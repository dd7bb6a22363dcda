//! Observer pins: FNV-1a hashes of everything the engine's observers
//! report — the whole telemetry report (every channel, plus the per-hop
//! profile where it is on), the capped flit trace, and its dropped-event
//! count — for four runs that each reach a different corner of the sweep's observer
//! path:
//!
//! * `vct_tree_mixed`: VCT tree multicast mixed with unicasts, where the
//!   sweep creates child packets (and opens their spans) mid-sweep;
//! * `rf_multicast_shortcuts`: RF multicast on a mesh with shortcuts, the
//!   multicast engine's serial-phase sends beside the sweep's hooks;
//! * `unicast_trace_overflow`: a unicast run whose flit trace overflows
//!   its cap, so the cap and the dropped count are pinned too;
//! * `default_channels_rf_adaptive`: adaptive shortcut routing near
//!   saturation with the standard channels only (no per-hop profile), the
//!   telemetry set most runs record.
//!
//! The golden-stats suite hashes the simulated statistics only; these pins
//! hold the observer output to the same bit-for-bit standard. Every
//! non-VCT case must reproduce the same constants at every engine thread
//! count (VCT multicast always runs on one shard).
//!
//! Re-bless after an *intentional* change to what an observer records:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p rfnoc-sim --test observer_pins -- --nocapture
//! ```
//!
//! and copy the printed table over `PINS`. `GOLDEN_THREADS` (a
//! comma-separated list, default `2,3,4`) narrows the thread sweep, as in
//! `golden_stats.rs`.

use rfnoc_sim::{
    DestSet, FlitTraceConfig, McConfig, MessageClass, MessageSpec, MulticastMode, Network,
    NetworkSpec, SimConfig, TelemetryConfig, VctConfig, Workload,
};
use rfnoc_topology::{GridDims, Shortcut};

/// FNV-1a over the `{:?}` rendering of `value`.
fn fnv_debug(value: &impl std::fmt::Debug) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic xorshift workload: unicasts at `load_256`/256 messages
/// per node per cycle, every `mc_every`-th message (0 = none) a
/// four-destination multicast from one of `mc_srcs`.
struct Synthetic {
    state: u64,
    nodes: usize,
    load_256: u64,
    mc_every: u64,
    mc_srcs: Vec<usize>,
    emitted: u64,
    until: u64,
}

impl Synthetic {
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl Workload for Synthetic {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        if cycle >= self.until {
            return;
        }
        for src in 0..self.nodes {
            if self.next() % 256 >= self.load_256 {
                continue;
            }
            self.emitted += 1;
            if self.mc_every > 0 && self.emitted.is_multiple_of(self.mc_every) {
                let pick = (self.next() % self.mc_srcs.len() as u64) as usize;
                let tx = self.mc_srcs[pick];
                let mut dests = DestSet::empty();
                while dests.len() < 4 {
                    let d = (self.next() % self.nodes as u64) as usize;
                    if d != tx {
                        dests.insert(d);
                    }
                }
                out.push(MessageSpec::multicast(tx, dests));
                continue;
            }
            let mut dst = (self.next() % self.nodes as u64) as usize;
            if dst == src {
                dst = (dst + 1) % self.nodes;
            }
            let class = match self.next() % 3 {
                0 => MessageClass::Request,
                1 => MessageClass::Data,
                _ => MessageClass::Memory,
            };
            out.push(MessageSpec::unicast(src, dst, class));
        }
    }
}

/// Multicast sources of the 6×6 cases (also the RF cluster transmitters).
const MC_SRCS: [usize; 4] = [7, 10, 25, 28];

fn observed_config(threads: usize, trace_limit: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline().with_threads(threads);
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_200;
    cfg.drain_cycles = 6_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(100));
    cfg.flit_trace = FlitTraceConfig::capped(trace_limit);
    cfg
}

/// The corner shortcuts of the 6×6 cases.
fn corner_shortcuts(dims: GridDims) -> Vec<Shortcut> {
    let n = dims.nodes();
    vec![
        Shortcut::new(0, n - 1),
        Shortcut::new(n - 1, 0),
        Shortcut::new(dims.width() - 1, n - dims.width()),
        Shortcut::new(n - dims.width(), dims.width() - 1),
    ]
}

/// The observer output of one run: `(telemetry, flit trace, dropped)`
/// hashes.
type Pins = (u64, u64, u64);

fn run_case(name: &str, threads: usize) -> Pins {
    let dims = GridDims::new(6, 6);
    let n = dims.nodes();
    let workload = |seed: u64, load_256: u64, mc_every: u64| Synthetic {
        state: seed,
        nodes: n,
        load_256,
        mc_every,
        mc_srcs: MC_SRCS.to_vec(),
        emitted: 0,
        until: 1_400,
    };
    let (spec, mut w) = match name {
        "vct_tree_mixed" => {
            let mut spec = NetworkSpec::mesh_baseline(dims, observed_config(threads, 1 << 20));
            spec.multicast = MulticastMode::Vct(VctConfig::default());
            (spec, workload(0x0b5e_0001, 12, 4))
        }
        "rf_multicast_shortcuts" => {
            let receivers: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
            let mut cluster_of = vec![None; n];
            for (cluster, &tx) in MC_SRCS.iter().enumerate() {
                cluster_of[tx] = Some(cluster);
                cluster_of[tx + 1] = Some(cluster);
            }
            let mut spec = NetworkSpec::with_shortcuts(
                dims,
                observed_config(threads, 1 << 20),
                corner_shortcuts(dims),
            );
            spec.multicast = MulticastMode::Rf;
            spec.mc = Some(McConfig {
                transmitters: MC_SRCS.to_vec(),
                cluster_of,
                serving: McConfig::serving_map(dims, &receivers),
                receivers,
                epoch_cycles: 500,
                rf_flit_bytes: 16,
            });
            (spec, workload(0x0b5e_0002, 12, 4))
        }
        "unicast_trace_overflow" => {
            let spec = NetworkSpec::mesh_baseline(dims, observed_config(threads, 20_000));
            (spec, workload(0x0b5e_0003, 24, 0))
        }
        "default_channels_rf_adaptive" => {
            let mut cfg = observed_config(threads, 1 << 20);
            cfg.telemetry = Some(TelemetryConfig::every(100));
            let spec = NetworkSpec::with_shortcuts(dims, cfg, corner_shortcuts(dims));
            (spec, workload(0x0b5e_0004, 64, 0))
        }
        other => panic!("unknown observer case {other:?}"),
    };
    let mut net = Network::new(spec);
    let stats = net.run(&mut w);
    let telemetry = stats.telemetry.as_ref().expect("telemetry configured");
    let profiled = name != "default_channels_rf_adaptive";
    assert_eq!(!telemetry.hops.is_empty(), profiled, "{name}: hop records iff profiled");
    assert!(!net.flit_trace().is_empty(), "{name}: empty flit trace");
    if name == "unicast_trace_overflow" {
        assert!(net.flit_trace_dropped() > 0, "{name}: the flit trace must overflow its cap");
    }
    (
        fnv_debug(&stats.telemetry),
        fnv_debug(&net.flit_trace()),
        fnv_debug(&net.flit_trace_dropped()),
    )
}

/// `(case, telemetry hash, flit-trace hash, dropped-count hash)`.
const PINS: &[(&str, u64, u64, u64)] = &[
    ("vct_tree_mixed", 0x06bc0ca3488098ad, 0xdd87fb514f618aa3, 0xaf63ad4c86019caf),
    ("rf_multicast_shortcuts", 0x2df6a2e0e8cb251e, 0x9c63460121a521af, 0xaf63ad4c86019caf),
    ("unicast_trace_overflow", 0x3473a87893e28678, 0xd45d30400c7dfc7e, 0x229e2934bd40b49a),
    ("default_channels_rf_adaptive", 0x0dd3311914ed546d, 0xa0c3b3128cadbf6e, 0xaf63ad4c86019caf),
];

/// The cases whose constants must also hold on the sharded engine.
fn sharded_cases() -> impl Iterator<Item = &'static (&'static str, u64, u64, u64)> {
    PINS.iter().filter(|(name, ..)| *name != "vct_tree_mixed")
}

fn check(name: &str, threads: usize, expected: Pins, failures: &mut Vec<String>) {
    let actual = run_case(name, threads);
    if actual != expected {
        failures
            .push(format!("{name} @ {threads} threads: expected {expected:#x?}, got {actual:#x?}"));
    }
}

#[test]
fn observer_output_matches_pins() {
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    let mut failures = Vec::new();
    for &(name, tel, trace, dropped) in PINS {
        if bless {
            let (tel, trace, dropped) = run_case(name, 1);
            println!("    (\"{name}\", {tel:#018x}, {trace:#018x}, {dropped:#018x}),");
        } else {
            check(name, 1, (tel, trace, dropped), &mut failures);
        }
    }
    assert!(
        failures.is_empty(),
        "observer output diverged from the pins:\n  {}\n\
         Re-bless with GOLDEN_BLESS=1 only for an intended observer change.",
        failures.join("\n  ")
    );
}

/// The sharded engine's observer output equals the serial engine's: the
/// non-VCT pins reproduce at every thread count in `GOLDEN_THREADS`.
#[test]
fn observer_pins_reproduce_at_every_thread_count() {
    let sweep: Vec<usize> = match std::env::var("GOLDEN_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("GOLDEN_THREADS is a comma-separated list"))
            .collect(),
        Err(_) => vec![2, 3, 4],
    };
    let mut failures = Vec::new();
    for &threads in &sweep {
        for &(name, tel, trace, dropped) in sharded_cases() {
            check(name, threads, (tel, trace, dropped), &mut failures);
        }
    }
    assert!(
        failures.is_empty(),
        "sharded observer output diverged from the serial pins:\n  {}",
        failures.join("\n  ")
    );
}
