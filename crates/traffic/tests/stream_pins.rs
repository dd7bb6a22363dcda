//! FNV-1a hashes over `(cycle, src, dst, class)` of the first 20 000
//! cycles of every generator on the paper's 10×10 placement. A generator
//! rewrite must reproduce each stream message for message: same sources,
//! same destinations, same classes, every `rng` draw where it was.

use rfnoc_sim::{Destination, MessageClass, Workload};
use rfnoc_topology::Shortcut;
use rfnoc_traffic::{
    CombinedWorkload, MulticastConfig, MulticastTraffic, Placement, ProbabilisticWorkload,
    Profile, ProfileSpec, ProfileWorkload, TraceKind, TrafficConfig,
};

const CYCLES: u64 = 20_000;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// `(messages, hash)` of the first [`CYCLES`] cycles of `workload`.
fn stream_hash(mut workload: impl Workload) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut messages = 0;
    let mut buf = Vec::new();
    for cycle in 0..CYCLES {
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
    ProbabilisticWorkload::new(Placement::paper_10x10(), kind, config)
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
    );
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
