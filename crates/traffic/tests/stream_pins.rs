//! FNV-1a hashes over `(cycle, src, dst, class)` of the first 20 000
//! cycles of every generator on the paper's 10×10 placement, at the
//! default rates and at the edge rates of the Bernoulli arrivals (0, whole,
//! above 1), the phased profiles at the campaign loads and edge phase
//! shapes, plus 2 000 cycles of the 64×64 placement. A generator rewrite
//! must reproduce each stream message for message: same sources, same
//! destinations, same classes, every `rng` draw where it was.

use rfnoc_sim::{Destination, MessageClass, Workload};
use rfnoc_topology::{FabricSpec, GridDims, NodeId, Shortcut};
use rfnoc_traffic::{
    AppProfile, AppWorkload, CombinedWorkload, MulticastConfig, MulticastTraffic, Placement,
    ProbabilisticWorkload, Profile, ProfileSpec, ProfileWorkload, TraceKind, TrafficConfig,
};

const CYCLES: u64 = 20_000;

/// A stream's `(messages, hash)`.
type Pin = (usize, u64);

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// `(messages, hash)` of the first [`CYCLES`] cycles of `workload`.
fn stream_hash(workload: impl Workload) -> (usize, u64) {
    stream_hash_over(workload, CYCLES)
}

/// `(messages, hash)` of the first `cycles` cycles of `workload`.
fn stream_hash_over(mut workload: impl Workload, cycles: u64) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut messages = 0;
    let mut buf = Vec::new();
    for cycle in 0..cycles {
        buf.clear();
        workload.messages_at(cycle, &mut buf);
        messages += buf.len();
        for m in &buf {
            fnv(&mut hash, &cycle.to_le_bytes());
            fnv(&mut hash, &(m.src as u64).to_le_bytes());
            match m.dest {
                Destination::Unicast(dst) => fnv(&mut hash, &(dst as u64).to_le_bytes()),
                Destination::Multicast(set) => fnv(&mut hash, &set.bits().to_le_bytes()),
            }
            let class = match m.class {
                MessageClass::Request => 0u8,
                MessageClass::Data => 1,
                MessageClass::Memory => 2,
                MessageClass::Multicast => 3,
            };
            fnv(&mut hash, &[class]);
        }
    }
    (messages, hash)
}

fn trace(kind: TraceKind, config: TrafficConfig) -> ProbabilisticWorkload {
    ProbabilisticWorkload::new(Placement::paper_10x10(), kind, config).unwrap()
}

#[test]
fn table1_trace_streams_match_their_pins() {
    let pins: [(TraceKind, usize, u64); 7] = [
        (TraceKind::Uniform, 15_583, 0x46e3_259b_4968_1381),
        (TraceKind::UniDf, 15_563, 0x14bd_e6b7_c5fe_10e4),
        (TraceKind::BiDf, 15_548, 0xa037_366a_9ee3_9116),
        (TraceKind::HotBiDf, 17_447, 0x2846_a3d8_e9fb_99a4),
        (TraceKind::Hotspot1, 16_062, 0xff0b_38bc_ffb1_c217),
        (TraceKind::Hotspot2, 16_596, 0x1e09_f5aa_a6c9_446f),
        (TraceKind::Hotspot4, 17_413, 0xf1f2_bc5e_20a4_b821),
    ];
    for (kind, messages, hash) in pins {
        let got = stream_hash(trace(kind, TrafficConfig::default()));
        assert_eq!(got, (messages, hash), "{kind}: ({}, {:#018x})", got.0, got.1);
    }
}

#[test]
fn request_response_stream_matches_its_pin() {
    let config = TrafficConfig { response_delay: Some(20), ..TrafficConfig::default() };
    let got = stream_hash(trace(TraceKind::Uniform, config));
    assert_eq!(got, (19_182, 0xf362_08b0_1e64_7d00), "({}, {:#018x})", got.0, got.1);
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
    let got = stream_hash(combined);
    assert_eq!(got, (16_235, 0x58ae_ece1_602a_19e4), "({}, {:#018x})", got.0, got.1);
}

#[test]
fn campaign_profile_streams_match_their_pins() {
    let shortcuts = [Shortcut::new(11, 88), Shortcut::new(81, 18)];
    let pins: [(Profile, usize, u64); 3] = [
        (Profile::Expected, 15_966, 0x764f_4fa8_1f9c_9846),
        (Profile::Stress, 16_192, 0x2d17_fd00_247c_e13e),
        (Profile::Adversarial, 17_395, 0xa072_7f1d_9e78_9011),
    ];
    for (profile, messages, hash) in pins {
        let workload = ProfileWorkload::new(
            Placement::paper_10x10(),
            ProfileSpec::new(profile, 7),
            TrafficConfig::default(),
            &shortcuts,
        )
        .unwrap();
        let got = stream_hash(workload);
        assert_eq!(got, (messages, hash), "{profile}: ({}, {:#018x})", got.0, got.1);
    }
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
    let got = stream_hash_over(workload, 2_000);
    assert_eq!(got, (1_571, 0x9252_dc80_d970_67a1), "({}, {:#018x})", got.0, got.1);
}

/// Rate 0 makes no draw, a whole rate emits without drawing (memory ports
/// draw at half of it), and 1.7 emits one certain message and then draws
/// at 0.7.
#[test]
fn uniform_streams_at_edge_rates_match_their_pins() {
    let pins: [(f64, usize, u64); 3] = [
        (0.0, 0, 0xcbf2_9ce4_8422_2325),
        (1.0, 1_960_121, 0xd580_2d22_a900_2d4b),
        (1.7, 3_331_180, 0xbea0_e911_c186_ddc1),
    ];
    for (injection_rate, messages, hash) in pins {
        let config = TrafficConfig { injection_rate, ..TrafficConfig::default() };
        let got = stream_hash(trace(TraceKind::Uniform, config));
        assert_eq!(got, (messages, hash), "rate {injection_rate}: ({}, {:#018x})", got.0, got.1);
    }
}

/// A hotspot trace whose hot caches send 0.3 × 4.5 = 1.35 messages a
/// cycle (a whole and a fractional part on one source), and the same trace
/// with silent hot caches (rate 0, no draw) among sources that draw.
#[test]
fn hotspot_streams_at_edge_multipliers_match_their_pins() {
    let pins: [(f64, usize, u64); 2] =
        [(4.5, 672_321, 0x5b6b_869b_b72d_5cf3), (0.0, 564_083, 0xe580_17a4_976e_0fef)];
    for (hot_multiplier, messages, hash) in pins {
        let config =
            TrafficConfig { injection_rate: 0.3, hot_multiplier, ..TrafficConfig::default() };
        let got = stream_hash(trace(TraceKind::Hotspot4, config));
        assert_eq!(got, (messages, hash), "x{hot_multiplier}: ({}, {:#018x})", got.0, got.1);
    }
}

/// Application streams draw once per non-memory source at `min(rate, 1)`,
/// even at rate 0 and above 1.
#[test]
fn app_streams_match_their_pins() {
    let pins: [(AppProfile, f64, usize, u64); 6] = [
        (AppProfile::x264(), 0.05, 96_139, 0x5272_4a96_c1e7_2b20),
        (AppProfile::x264(), 0.0, 0, 0xcbf2_9ce4_8422_2325),
        (AppProfile::x264(), 1.5, 1_920_000, 0x2715_c836_df44_e6ea),
        (AppProfile::bodytrack(), 0.05, 96_112, 0x3f80_19f5_7812_d163),
        (AppProfile::bodytrack(), 0.0, 0, 0xcbf2_9ce4_8422_2325),
        (AppProfile::bodytrack(), 1.5, 1_920_000, 0x4d85_a199_99ee_d0e9),
    ];
    for (profile, rate, messages, hash) in pins {
        let name = profile.name;
        let workload = AppWorkload::new(Placement::paper_10x10(), profile, rate, 7).unwrap();
        let got = stream_hash(workload);
        assert_eq!(got, (messages, hash), "{name} at {rate}: ({}, {:#018x})", got.0, got.1);
    }
}

/// The expected profile draws at rate 0 and emits one certain message per
/// source at any rate of 1 or more.
#[test]
fn expected_profile_streams_at_edge_rates_match_their_pins() {
    let pins: [(f64, usize, u64); 2] =
        [(0.0, 0, 0xcbf2_9ce4_8422_2325), (1.5, 2_000_000, 0x8f3e_c4f9_84dc_e576)];
    for (injection_rate, messages, hash) in pins {
        let workload = ProfileWorkload::new(
            Placement::paper_10x10(),
            ProfileSpec::new(Profile::Expected, 7),
            TrafficConfig { injection_rate, ..TrafficConfig::default() },
            &[],
        )
        .unwrap();
        let got = stream_hash(workload);
        assert_eq!(got, (messages, hash), "rate {injection_rate}: ({}, {:#018x})", got.0, got.1);
    }
}

/// The campaign's phased profiles at its three loads, with a two-shortcut
/// overlay and without one (stress ignores the overlay, so its two pins
/// agree), and at 0.3, where `rate × burst_gain` reaches 1: a bursting
/// source sends a certain message and makes no trial draw.
#[test]
fn phased_profile_streams_at_campaign_loads_match_their_pins() {
    let two = [Shortcut::new(11, 88), Shortcut::new(81, 18)];
    #[rustfmt::skip]
    let pins: [(Profile, f64, Pin, Pin); 8] = [
        (Profile::Stress, 0.006, (12_613, 0xdb2c_d07c_4f9a_3d43), (12_613, 0xdb2c_d07c_4f9a_3d43)),
        (Profile::Stress, 0.010, (20_618, 0x8d80_59dc_188f_93bf), (20_618, 0x8d80_59dc_188f_93bf)),
        (Profile::Stress, 0.020, (40_459, 0x034f_d841_8f98_a341), (40_459, 0x034f_d841_8f98_a341)),
        (Profile::Stress, 0.3, (410_095, 0x633a_85be_be76_6fa1), (410_095, 0x633a_85be_be76_6fa1)),
        (Profile::Adversarial, 0.006, (12_125, 0xd9f7_ba30_2803_a37d), (12_288, 0x8cbb_d648_8f72_ae57)),
        (Profile::Adversarial, 0.010, (20_007, 0x865a_b660_fd93_c8a7), (20_991, 0xd7e0_efd4_4bca_c408)),
        (Profile::Adversarial, 0.020, (43_868, 0x518e_30c7_0b39_7c24), (40_748, 0xfe36_ff62_978a_d0f8)),
        (Profile::Adversarial, 0.3, (427_785, 0x42a5_7604_c806_521f), (416_864, 0xc222_fafa_46b3_e151)),
    ];
    for (profile, injection_rate, with_two, with_none) in pins {
        for (shortcuts, want) in [(&two[..], with_two), (&[][..], with_none)] {
            let workload = ProfileWorkload::new(
                Placement::paper_10x10(),
                ProfileSpec::new(profile, 7),
                TrafficConfig { injection_rate, ..TrafficConfig::default() },
                shortcuts,
            )
            .unwrap();
            let got = stream_hash(workload);
            let n = shortcuts.len();
            let at = format!("{profile} at {injection_rate}, {n} shortcuts");
            assert_eq!(got, want, "{at}: ({}, {:#018x})", got.0, got.1);
        }
    }
}

/// Phase shapes at the edges: one-cycle phases (every source ends a phase
/// every cycle); one-cycle bursts between 50-cycle gaps at `alpha` 1.15,
/// whose heavy tail reaches the `100 × mean` clamp about once in 2,000
/// draws; and gaps of 10¹² cycles, which end far beyond the run.
#[test]
fn phased_profile_streams_at_edge_shapes_match_their_pins() {
    let two = [Shortcut::new(11, 88), Shortcut::new(81, 18)];
    #[rustfmt::skip]
    let pins: [(Profile, f64, f64, f64, usize, u64); 6] = [
        (Profile::Stress, 1.0, 1.0, 1.5, 39_887, 0x26e9_93bb_3e89_f3d6),
        (Profile::Stress, 1.0, 50.0, 1.15, 2_996, 0x6c23_b0d3_4f23_3f8f),
        (Profile::Stress, 60.0, 1e12, 1.5, 196, 0x0926_c296_ab24_e97a),
        (Profile::Adversarial, 1.0, 1.0, 1.5, 39_704, 0x9121_bf66_b14a_9d9d),
        (Profile::Adversarial, 1.0, 50.0, 1.15, 3_091, 0x78a3_9b94_8958_4739),
        (Profile::Adversarial, 60.0, 1e12, 1.5, 287, 0x61da_4976_4fc7_7260),
    ];
    for (profile, mean_on, mean_off, pareto_alpha, messages, hash) in pins {
        let spec = ProfileSpec { mean_on, mean_off, pareto_alpha, ..ProfileSpec::new(profile, 7) };
        let workload =
            ProfileWorkload::new(Placement::paper_10x10(), spec, TrafficConfig::default(), &two)
                .unwrap();
        let got = stream_hash(workload);
        assert_eq!(
            got,
            (messages, hash),
            "{profile} on {mean_on} off {mean_off} alpha {pareto_alpha}: ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}

/// 2 000 cycles of the phased profiles on the 64×64 quadrant placement:
/// 4,096 sources, 64 words of phase bits.
#[test]
fn large_grid_phased_profile_streams_match_their_pins() {
    let corner = |x: NodeId, y: NodeId| y * 64 + x;
    let shortcuts =
        [Shortcut::new(corner(1, 1), corner(62, 62)), Shortcut::new(corner(62, 61), corner(1, 2))];
    let pins: [(Profile, usize, u64); 2] = [
        (Profile::Stress, 73_999, 0x1f88_9975_9b58_b042),
        (Profile::Adversarial, 74_916, 0x8d04_6560_9f39_fed8),
    ];
    for (profile, messages, hash) in pins {
        let workload = ProfileWorkload::new(
            Placement::quadrant_clusters_on(FabricSpec::mesh(GridDims::new(64, 64))),
            ProfileSpec::new(profile, 7),
            TrafficConfig::default(),
            &shortcuts,
        )
        .unwrap();
        let got = stream_hash_over(workload, 2_000);
        assert_eq!(got, (messages, hash), "{profile}: ({}, {:#018x})", got.0, got.1);
    }
}

/// Multicast alone at an expected count of exactly 1 a cycle (one certain
/// message, no draw) and of 2.5 (two certain, one draw at 0.5), over the
/// 32 caches of the 10×10 placement.
#[test]
fn multicast_streams_at_whole_and_fractional_counts_match_their_pins() {
    let pins: [(f64, usize, u64); 2] =
        [(1.0, 20_000, 0x750e_aed0_86e3_bcc0), (2.5, 50_048, 0xe158_8d6e_09f7_6418)];
    for (per_cycle, messages, hash) in pins {
        let placement = Placement::paper_10x10();
        let rate_per_cache = per_cycle / placement.caches().len() as f64;
        let config = MulticastConfig { rate_per_cache, ..MulticastConfig::default() };
        let got = stream_hash(MulticastTraffic::new(placement, config).unwrap());
        assert_eq!(got, (messages, hash), "{per_cycle} a cycle: ({}, {:#018x})", got.0, got.1);
    }
}
