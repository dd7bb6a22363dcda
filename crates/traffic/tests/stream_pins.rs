//! FNV-1a hashes over `(cycle, src, dst, class)` of the first 20 000
//! cycles of every generator on the paper's 10×10 placement, at the
//! default rates and at the edge rates of the Bernoulli arrivals (0, whole,
//! above 1), the phased profiles at the campaign loads and edge phase
//! shapes, plus 2 000 cycles of the 64×64 placement. A generator rewrite
//! must reproduce each stream message for message: same sources, same
//! destinations, same classes, every `rng` draw where it was.
//!
//! The pins are in `tests/pins/stream_pins.txt`, each stream's message
//! count and hash, one section a test. Re-bless only for an intended
//! stream change: `PIN_BLESS=1 cargo test -p rfnoc-traffic --test stream_pins`.

use rfnoc_pins::{hex, Pins};
use rfnoc_sim::{Destination, MessageClass, Workload};
use rfnoc_topology::{FabricSpec, Fnv, GridDims, NodeId, Shortcut};
use rfnoc_traffic::{
    AppProfile, AppWorkload, CombinedWorkload, MulticastConfig, MulticastTraffic, Placement,
    ProbabilisticWorkload, Profile, ProfileSpec, ProfileWorkload, TraceKind, TrafficConfig,
};

const CYCLES: u64 = 20_000;

const SECTIONS: [&str; 13] = [
    "table1",
    "request_response",
    "trace_with_multicast",
    "campaign",
    "large_uniform",
    "edge_rates",
    "hot_multiplier",
    "apps",
    "expected_edge",
    "phased_loads",
    "edge_shapes",
    "large_phased",
    "multicast",
];

fn check(got: &[(String, String)]) {
    Pins::load(env!("CARGO_MANIFEST_DIR"), "stream_pins", &SECTIONS).check(got);
}

/// `(key, "<messages> <hash>")` of the first `cycles` cycles of `workload`.
fn stream_pin(key: String, mut workload: impl Workload, cycles: u64) -> (String, String) {
    let mut hash = Fnv::new();
    let mut messages = 0;
    let mut buf = Vec::new();
    for cycle in 0..cycles {
        buf.clear();
        workload.messages_at(cycle, &mut buf);
        messages += buf.len();
        for m in &buf {
            hash.u64(cycle);
            hash.u64(m.src as u64);
            match m.dest {
                Destination::Unicast(dst) => hash.u64(dst as u64),
                Destination::Multicast(set) => hash.bytes(set.bits().to_le_bytes()),
            }
            let class = match m.class {
                MessageClass::Request => 0u8,
                MessageClass::Data => 1,
                MessageClass::Memory => 2,
                MessageClass::Multicast => 3,
            };
            hash.bytes([class]);
        }
    }
    (key, format!("{messages} {}", hex(hash.finish())))
}

fn trace(kind: TraceKind, config: TrafficConfig) -> ProbabilisticWorkload {
    ProbabilisticWorkload::new(Placement::paper_10x10(), kind, config).unwrap()
}

fn phased(spec: ProfileSpec, config: TrafficConfig, shortcuts: &[Shortcut]) -> ProfileWorkload {
    ProfileWorkload::new(Placement::paper_10x10(), spec, config, shortcuts).unwrap()
}

#[test]
fn table1_trace_streams_match_their_pins() {
    check(&TraceKind::all().map(|kind| {
        stream_pin(format!("table1.{kind}"), trace(kind, TrafficConfig::default()), CYCLES)
    }));
}

#[test]
fn request_response_stream_matches_its_pin() {
    let config = TrafficConfig { response_delay: Some(20), ..TrafficConfig::default() };
    check(&[stream_pin("request_response".into(), trace(TraceKind::Uniform, config), CYCLES)]);
}

/// `WorkloadSpec::TraceWithMulticast { Uniform, 0.2, 0.001 }` as
/// `rfnoc` assembles it (the Fig 9 workload).
#[test]
fn trace_with_multicast_stream_matches_its_pin() {
    let traffic = TrafficConfig::default();
    let mc = MulticastTraffic::new(
        Placement::paper_10x10(),
        MulticastConfig {
            rate_per_cache: 0.001,
            locality: 0.2,
            seed: traffic.seed ^ 0x5EED,
            ..MulticastConfig::default()
        },
    )
    .unwrap();
    let combined = CombinedWorkload::new()
        .with(Box::new(trace(TraceKind::Uniform, traffic)))
        .with(Box::new(mc));
    check(&[stream_pin("trace_with_multicast".into(), combined, CYCLES)]);
}

#[test]
fn campaign_profile_streams_match_their_pins() {
    let shortcuts = [Shortcut::new(11, 88), Shortcut::new(81, 18)];
    check(&Profile::all().map(|profile| {
        let workload = phased(ProfileSpec::new(profile, 7), TrafficConfig::default(), &shortcuts);
        stream_pin(format!("campaign.{profile}"), workload, CYCLES)
    }));
}

/// The `rf64_build` benchmark's stream: `Uniform` on the 64×64 quadrant
/// placement at the paper's total offered load, 0.008 × 100 / 4096 per
/// router.
#[test]
fn large_grid_uniform_stream_matches_its_pin() {
    let placement = Placement::quadrant_clusters_on(FabricSpec::mesh(GridDims::new(64, 64)));
    let config =
        TrafficConfig { injection_rate: 0.008 * 100.0 / 4096.0, ..TrafficConfig::default() };
    let workload = ProbabilisticWorkload::new(placement, TraceKind::Uniform, config).unwrap();
    check(&[stream_pin("large_uniform".into(), workload, 2_000)]);
}

/// Rate 0 makes no draw, a whole rate emits without drawing (memory ports
/// draw at half of it), and 1.7 emits one certain message and then draws
/// at 0.7.
#[test]
fn uniform_streams_at_edge_rates_match_their_pins() {
    check(&[0.0, 1.0, 1.7].map(|injection_rate| {
        let config = TrafficConfig { injection_rate, ..TrafficConfig::default() };
        let workload = trace(TraceKind::Uniform, config);
        stream_pin(format!("edge_rates.{injection_rate}"), workload, CYCLES)
    }));
}

/// A hotspot trace whose hot caches send 0.3 × 4.5 = 1.35 messages a
/// cycle (a whole and a fractional part on one source), and the same trace
/// with silent hot caches (rate 0, no draw) among sources that draw.
#[test]
fn hotspot_streams_at_edge_multipliers_match_their_pins() {
    check(&[4.5, 0.0].map(|hot_multiplier| {
        let config =
            TrafficConfig { injection_rate: 0.3, hot_multiplier, ..TrafficConfig::default() };
        let workload = trace(TraceKind::Hotspot4, config);
        stream_pin(format!("hot_multiplier.{hot_multiplier}"), workload, CYCLES)
    }));
}

/// Application streams draw once per non-memory source at `min(rate, 1)`,
/// even at rate 0 and above 1.
#[test]
fn app_streams_match_their_pins() {
    let mut got = Vec::new();
    for profile in [AppProfile::x264(), AppProfile::bodytrack()] {
        for rate in [0.05, 0.0, 1.5] {
            let key = format!("apps.{}_{rate}", profile.name);
            let workload = AppWorkload::new(Placement::paper_10x10(), profile.clone(), rate, 7);
            got.push(stream_pin(key, workload.unwrap(), CYCLES));
        }
    }
    check(&got);
}

/// The expected profile draws at rate 0 and emits one certain message per
/// source at any rate of 1 or more.
#[test]
fn expected_profile_streams_at_edge_rates_match_their_pins() {
    check(&[0.0, 1.5].map(|injection_rate| {
        let config = TrafficConfig { injection_rate, ..TrafficConfig::default() };
        let workload = phased(ProfileSpec::new(Profile::Expected, 7), config, &[]);
        stream_pin(format!("expected_edge.{injection_rate}"), workload, CYCLES)
    }));
}

/// The campaign's phased profiles at its three loads, with a two-shortcut
/// overlay and without one (stress ignores the overlay, so its two pins
/// agree), and at 0.3, where `rate × burst_gain` reaches 1: a bursting
/// source sends a certain message and makes no trial draw.
#[test]
fn phased_profile_streams_at_campaign_loads_match_their_pins() {
    let two = [Shortcut::new(11, 88), Shortcut::new(81, 18)];
    let mut got = Vec::new();
    for profile in [Profile::Stress, Profile::Adversarial] {
        for injection_rate in [0.006, 0.010, 0.020, 0.3] {
            for shortcuts in [&two[..], &[][..]] {
                let config = TrafficConfig { injection_rate, ..TrafficConfig::default() };
                let workload = phased(ProfileSpec::new(profile, 7), config, shortcuts);
                let n = shortcuts.len();
                let key = format!("phased_loads.{profile}_{injection_rate}_{n}shortcuts");
                got.push(stream_pin(key, workload, CYCLES));
            }
        }
    }
    check(&got);
}

/// Phase shapes at the edges: one-cycle phases (every source ends a phase
/// every cycle); one-cycle bursts between 50-cycle gaps at `alpha` 1.15,
/// whose heavy tail reaches the `100 × mean` clamp about once in 2,000
/// draws; and gaps of 10¹² cycles, which end far beyond the run.
#[test]
fn phased_profile_streams_at_edge_shapes_match_their_pins() {
    let two = [Shortcut::new(11, 88), Shortcut::new(81, 18)];
    let mut got = Vec::new();
    let shapes = [(1.0, 1.0, 1.5), (1.0, 50.0, 1.15), (60.0, 1e12, 1.5)];
    for profile in [Profile::Stress, Profile::Adversarial] {
        for (mean_on, mean_off, pareto_alpha) in shapes {
            let spec =
                ProfileSpec { mean_on, mean_off, pareto_alpha, ..ProfileSpec::new(profile, 7) };
            let shape = format!("on{mean_on}_off{mean_off}_alpha{pareto_alpha}");
            let workload = phased(spec, TrafficConfig::default(), &two);
            got.push(stream_pin(format!("edge_shapes.{profile}_{shape}"), workload, CYCLES));
        }
    }
    check(&got);
}

/// 2 000 cycles of the phased profiles on the 64×64 quadrant placement:
/// 4,096 sources, 64 words of phase bits.
#[test]
fn large_grid_phased_profile_streams_match_their_pins() {
    let corner = |x: NodeId, y: NodeId| y * 64 + x;
    let shortcuts =
        [Shortcut::new(corner(1, 1), corner(62, 62)), Shortcut::new(corner(62, 61), corner(1, 2))];
    check(&[Profile::Stress, Profile::Adversarial].map(|profile| {
        let workload = ProfileWorkload::new(
            Placement::quadrant_clusters_on(FabricSpec::mesh(GridDims::new(64, 64))),
            ProfileSpec::new(profile, 7),
            TrafficConfig::default(),
            &shortcuts,
        )
        .unwrap();
        stream_pin(format!("large_phased.{profile}"), workload, 2_000)
    }));
}

/// Multicast alone at an expected count of exactly 1 a cycle (one certain
/// message, no draw) and of 2.5 (two certain, one draw at 0.5), over the
/// 32 caches of the 10×10 placement.
#[test]
fn multicast_streams_at_whole_and_fractional_counts_match_their_pins() {
    check(&[1.0, 2.5].map(|per_cycle| {
        let placement = Placement::paper_10x10();
        let rate_per_cache = per_cycle / placement.caches().len() as f64;
        let config = MulticastConfig { rate_per_cache, ..MulticastConfig::default() };
        let workload = MulticastTraffic::new(placement, config).unwrap();
        stream_pin(format!("multicast.{per_cycle}"), workload, CYCLES)
    }));
}
