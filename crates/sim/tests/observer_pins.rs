//! Observer pins: FNV-1a hashes of everything the engine's observers
//! report — every recorded field of the telemetry report, the per-hop
//! profile included where it is on — for four runs that each reach a
//! different corner of the sweep's observer path:
//!
//! * `vct_tree_mixed`: VCT tree multicast mixed with unicasts, where the
//!   sweep creates child packets (and opens their spans) mid-sweep;
//! * `rf_multicast_shortcuts`: RF multicast on a mesh with shortcuts, the
//!   multicast engine's serial-phase sends beside the sweep's hooks;
//! * `unicast_mesh`: plain unicast traffic on the bare mesh at twice the
//!   load of the multicast cases;
//! * `standard_rf_adaptive`: adaptive shortcut routing near saturation
//!   with the standard telemetry only (no per-hop profile), the telemetry
//!   set most runs record.
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
    DestSet, McConfig, MessageClass, MessageSpec, MulticastMode, Network,
    NetworkSpec, SimConfig, TelemetryConfig, TelemetryReport, VctConfig, Workload,
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

/// FNV-1a over every field of a telemetry report except the profile bit,
/// which echoes the configuration rather than anything the run observed.
fn telemetry_hash(report: &TelemetryReport) -> u64 {
    let TelemetryReport {
        interval,
        profile: _,
        routers,
        ports,
        samples,
        spans,
        dropped_spans,
        events,
        hops,
        dropped_hops,
    } = report;
    fnv_debug(&(
        interval, routers, ports, samples, spans, dropped_spans, events, hops, dropped_hops,
    ))
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

fn observed_config(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline().with_threads(threads);
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_200;
    cfg.drain_cycles = 6_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(100));
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

/// The telemetry hash of one run.
fn run_case(name: &str, threads: usize) -> u64 {
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
            let mut spec = NetworkSpec::mesh_baseline(dims, observed_config(threads));
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
                observed_config(threads),
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
        "unicast_mesh" => {
            let spec = NetworkSpec::mesh_baseline(dims, observed_config(threads));
            (spec, workload(0x0b5e_0003, 24, 0))
        }
        "standard_rf_adaptive" => {
            let mut cfg = observed_config(threads);
            cfg.telemetry = Some(TelemetryConfig::every(100));
            let spec = NetworkSpec::with_shortcuts(dims, cfg, corner_shortcuts(dims));
            (spec, workload(0x0b5e_0004, 64, 0))
        }
        other => panic!("unknown observer case {other:?}"),
    };
    let stats = Network::new(spec).run(&mut w);
    let telemetry = stats.telemetry.as_ref().expect("telemetry configured");
    let profiled = name != "standard_rf_adaptive";
    assert_eq!(!telemetry.hops.is_empty(), profiled, "{name}: hop records iff profiled");
    telemetry_hash(telemetry)
}

/// `(case, telemetry hash)`.
const PINS: &[(&str, u64)] = &[
    ("vct_tree_mixed", 0x6dc0290b514d6885),
    ("rf_multicast_shortcuts", 0x8303504f112060f4),
    ("unicast_mesh", 0x1dd0934ddc289024),
    ("standard_rf_adaptive", 0x70c4676ad4cc14b9),
];

/// The cases whose constants must also hold on the sharded engine.
fn sharded_cases() -> impl Iterator<Item = &'static (&'static str, u64)> {
    PINS.iter().filter(|(name, ..)| *name != "vct_tree_mixed")
}

fn check(name: &str, threads: usize, expected: u64, failures: &mut Vec<String>) {
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
    for &(name, tel) in PINS {
        if bless {
            println!("    (\"{name}\", {:#018x}),", run_case(name, 1));
        } else {
            check(name, 1, tel, &mut failures);
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
        for &(name, tel) in sharded_cases() {
            check(name, threads, tel, &mut failures);
        }
    }
    assert!(
        failures.is_empty(),
        "sharded observer output diverged from the serial pins:\n  {}",
        failures.join("\n  ")
    );
}
