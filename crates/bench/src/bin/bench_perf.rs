//! Simulator-throughput benchmark: times the raw cycle engine on a set of
//! fixed configurations and writes `results/json/BENCH_sim_throughput.json`
//! — the repo's tracked perf trajectory.
//!
//! Unlike the figure binaries this does not measure the *network*; it
//! measures the *simulator*: cycles per second and flit grants per second
//! of `Network::run` on a 10×10 mesh at several load points. The vendored
//! criterion crate is an API stub, so timing is hand-rolled with
//! `std::time::Instant`, exactly like the sweep runner.
//!
//! Usage: `bench_perf [--quick] [--telemetry] [--ledger] [--sim-threads N]`
//!   --quick        one short repetition per config (CI smoke)
//!   --telemetry    enable the telemetry layer (all channels, 1k-cycle
//!                  interval) and write the artifact as
//!                  `BENCH_sim_throughput_telemetry.json` — CI compares its
//!                  cycles/sec against the telemetry-off run to bound the
//!                  observation overhead
//!   --ledger       enable the run ledger (1k-cycle heartbeats) on every
//!                  timed run and write the artifact as
//!                  `BENCH_sim_throughput_ledger.json` — CI compares its
//!                  cycles/sec against the ledger-off run the same way
//!   --sim-threads  step every simulation on N sharded-engine threads
//!                  (bit-identical to serial; 0 is rejected)
//!
//! Besides the fixed 10×10 configs, a saturated 64×64 mesh is timed at 1
//! thread and — when `--sim-threads N > 1` — again at N threads; both land
//! in the artifact and the BENCH_trajectory row (ids
//! `mesh64x64_saturated_t<threads>`), so the trajectory records wall time
//! against thread count for the scaling workload. Threaded scale rows also
//! carry `shard_imbalance` (max/mean per-shard sweep time) and
//! `barrier_wait_frac` (barrier share of the sweep wall), measured by one
//! extra ledger-instrumented run so the timed run stays un-instrumented.
//!
//! Best-of-N rows additionally record the repeat-sample spread
//! (`cycles_per_sec_spread_{min,max,stddev}`) — the wall-clock noise
//! envelope behind the reported best, which `rfnoc-cli gate` uses as a
//! per-row noise prior when judging regressions. Artifacts and trajectory
//! rows are also filed into the cross-run trend store (`results/history/`,
//! override or disable with `RFNOC_HISTORY`).

use rfnoc::json::{rounded, Json};
use rfnoc_bench::artifact::{
    append_trajectory, git_describe, header, unix_now, write_artifact, MetricSpread,
    TrajectoryPoint,
};
use rfnoc_sim::{
    LedgerConfig, LedgerRecord, McConfig, MessageClass, MessageSpec, MulticastMode, Network,
    NetworkSpec, RunStats, SimConfig, TelemetryConfig, Workload,
};
use rfnoc_topology::{GridDims, Shortcut};
use std::time::{Duration, Instant};

/// Deterministic xorshift-driven synthetic traffic, mirroring the golden
/// determinism suite: per-node Bernoulli injection at `load_256`/256
/// messages per node per cycle.
struct SyntheticWorkload {
    state: u64,
    nodes: usize,
    load_256: u64,
    until: u64,
}

impl SyntheticWorkload {
    fn new(seed: u64, nodes: usize, load_256: u64, until: u64) -> Self {
        Self { state: seed, nodes, load_256, until }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl Workload for SyntheticWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        if cycle >= self.until {
            return;
        }
        for src in 0..self.nodes {
            if self.next() % 256 >= self.load_256 {
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

/// One benchmark configuration: a network builder plus its traffic load.
struct BenchConfig {
    id: &'static str,
    description: &'static str,
    /// Injection probability per node per cycle, in 1/256ths.
    load_256: u64,
    /// Builds the network spec for the given measurement window.
    build: fn(SimConfig) -> NetworkSpec,
}

const DIMS_W: usize = 10;
const DIMS_H: usize = 10;

fn dims() -> GridDims {
    GridDims::new(DIMS_W, DIMS_H)
}

fn shortcut_set() -> Vec<Shortcut> {
    let d = dims();
    let n = d.nodes();
    let w = d.width();
    vec![
        Shortcut::new(0, n - 1),
        Shortcut::new(n - 1, 0),
        Shortcut::new(w - 1, n - w),
        Shortcut::new(n - w, w - 1),
        Shortcut::new(n / 2 - w / 2, n - 1 - w / 2),
        Shortcut::new(n - 1 - w / 2, n / 2 - w / 2),
    ]
}

fn mesh(cfg: SimConfig) -> NetworkSpec {
    NetworkSpec::mesh_baseline(dims(), cfg)
}

fn rf(cfg: SimConfig) -> NetworkSpec {
    NetworkSpec::with_shortcuts(dims(), cfg, shortcut_set())
}

fn rf_mc(cfg: SimConfig) -> NetworkSpec {
    let d = dims();
    let receivers: Vec<usize> = (0..d.nodes()).filter(|i| i % 2 == 0).collect();
    let serving = McConfig::serving_map(d, &receivers);
    let transmitters = vec![22, 27, 72, 77];
    let mut cluster_of = vec![None; d.nodes()];
    for (cluster, &tx) in transmitters.iter().enumerate() {
        cluster_of[tx] = Some(cluster);
        cluster_of[tx + 1] = Some(cluster);
    }
    let mc = McConfig {
        transmitters,
        cluster_of,
        receivers,
        serving,
        epoch_cycles: 1_000,
        rf_flit_bytes: 16,
    };
    let mut spec = mesh(cfg);
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    spec
}

const CONFIGS: &[BenchConfig] = &[
    BenchConfig {
        id: "mesh10x10_low_load",
        description: "10x10 mesh, XY, ~0.4% per-node injection (mostly-idle network)",
        load_256: 1,
        build: mesh,
    },
    BenchConfig {
        id: "mesh10x10_mid_load",
        description: "10x10 mesh, XY, ~1.5% per-node injection (paper low-load sweep point)",
        load_256: 4,
        build: mesh,
    },
    BenchConfig {
        id: "mesh10x10_saturated",
        description: "10x10 mesh, XY, saturating injection",
        load_256: 96,
        build: mesh,
    },
    BenchConfig {
        id: "rf10x10_mid_load",
        description: "10x10 mesh + 6 RF shortcuts, shortest-path + adaptive, mid load",
        load_256: 24,
        build: rf,
    },
    BenchConfig {
        id: "rf10x10_mc_broadcast",
        description: "10x10 mesh, RF multicast broadcast channel, low load",
        load_256: 8,
        build: rf_mc,
    },
];

/// One timed run: the statistics plus the wall time of `Network::run`.
struct Sample {
    stats: RunStats,
    wall: Duration,
}

fn run_once(
    bc: &BenchConfig,
    measure_cycles: u64,
    telemetry: bool,
    ledger: bool,
    threads: usize,
) -> Sample {
    let mut cfg = SimConfig::paper_baseline().with_threads(threads);
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = measure_cycles;
    cfg.drain_cycles = 20_000;
    cfg.watchdog_cycles = 0;
    if telemetry {
        cfg.telemetry = Some(TelemetryConfig::every(1_000));
    }
    if ledger {
        cfg.ledger = Some(LedgerConfig::every(1_000));
    }
    let horizon = cfg.warmup_cycles + cfg.measure_cycles;
    let spec = (bc.build)(cfg);
    let mut network = Network::new(spec);
    let mut workload = SyntheticWorkload::new(0xb_e4c4 ^ bc.load_256, dims().nodes(), bc.load_256, horizon);
    let t0 = Instant::now();
    let stats = network.run(&mut workload);
    Sample { stats, wall: t0.elapsed() }
}

/// The thread-scaling workload: a saturated 64×64 mesh, the configuration
/// where the sharded engine has enough routers per shard to amortise the
/// cycle-boundary barriers.
fn run_scale(threads: usize, measure_cycles: u64, quick: bool, ledger: bool) -> Sample {
    let d = GridDims::new(64, 64);
    let mut cfg = SimConfig::paper_baseline().with_threads(threads);
    cfg.warmup_cycles = if quick { 100 } else { 200 };
    cfg.measure_cycles = measure_cycles;
    // The wall-time ratio is the metric; a saturated 64×64 never fully
    // drains anyway, so cap the tail hard in quick mode.
    cfg.drain_cycles = if quick { 400 } else { 3_000 };
    cfg.watchdog_cycles = 0;
    if ledger {
        cfg.ledger = Some(LedgerConfig::every(1_000));
    }
    let horizon = cfg.warmup_cycles + cfg.measure_cycles;
    let spec = NetworkSpec::mesh_baseline(d, cfg);
    let mut network = Network::new(spec);
    let mut workload = SyntheticWorkload::new(0xb164, d.nodes(), 96, horizon);
    let t0 = Instant::now();
    let stats = network.run(&mut workload);
    Sample { stats, wall: t0.elapsed() }
}

/// Reduces a ledger-instrumented run's shard records to the two scaling
/// metrics: `(shard_imbalance, barrier_wait_frac)` — max/mean per-shard
/// total sweep time, and the barrier share of the sweep-phase wall.
/// `(None, None)` without a ledger or without shard records (serial run).
fn shard_metrics(stats: &RunStats) -> (Option<f64>, Option<f64>) {
    let Some(report) = &stats.ledger else { return (None, None) };
    let mut per_shard: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    let (mut sweep_total, mut barrier_total) = (0.0f64, 0.0f64);
    for r in &report.records {
        if let LedgerRecord::Shard { shard, sweep_ms, barrier_ms, .. } = r {
            *per_shard.entry(*shard).or_insert(0.0) += sweep_ms;
            sweep_total += sweep_ms;
            barrier_total += barrier_ms;
        }
    }
    if per_shard.is_empty() {
        return (None, None);
    }
    let mean = sweep_total / per_shard.len() as f64;
    let max = per_shard.values().copied().fold(0.0, f64::max);
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    let total = sweep_total + barrier_total;
    let frac = if total > 0.0 { barrier_total / total } else { 0.0 };
    (Some(imbalance), Some(frac))
}

/// Best-of-N wall time: the least-perturbed run of a deterministic
/// simulation is the most faithful throughput estimate. The spread of the
/// repeats' cycles/s rides along as the row's noise prior.
fn best_of(reps: usize, mut run: impl FnMut() -> Sample) -> (Sample, Option<MetricSpread>) {
    let samples: Vec<Sample> = (0..reps).map(|_| run()).collect();
    let rep_cps: Vec<f64> = samples
        .iter()
        .map(|s| s.stats.end_cycle as f64 / s.wall.as_secs_f64().max(1e-9))
        .collect();
    let best = samples.into_iter().min_by_key(|s| s.wall).expect("at least one rep");
    (best, MetricSpread::of(&rep_cps))
}

/// One `configs` entry of the artifact: the timed run's counters and
/// throughput, plus the optional fields of its trajectory point.
fn config_row(point: &TrajectoryPoint, description: &str, s: &Sample) -> Json {
    let r4 = |v: f64| rounded(v, 4);
    point.optional_fields(
        Json::obj()
            .field("id", &point.id)
            .field("description", description)
            .field("cycles", s.stats.end_cycle)
            .field("flit_grants", s.stats.port_flits.iter().sum::<u64>())
            .field("wall_ms", r4(s.wall.as_secs_f64().max(1e-9) * 1e3))
            .field("cycles_per_sec", r4(point.cycles_per_sec))
            .field("flit_grants_per_sec", r4(point.flit_grants_per_sec))
            .field("completed_messages", s.stats.completed_messages)
            .field("avg_latency_cycles", r4(s.stats.avg_message_latency()))
            .field("saturated", s.stats.saturated),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let ledger = args.iter().any(|a| a == "--ledger");
    let sim_threads: usize = match args.iter().position(|a| a == "--sim-threads") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(0) | None => {
                eprintln!("bench_perf: --sim-threads needs a positive integer");
                std::process::exit(2);
            }
            Some(n) => n,
        },
        None => 1,
    };
    // Quick mode still takes best-of-2: single-rep wall times on the
    // short configs are noisy enough to flake the CI telemetry-overhead
    // comparison.
    let (measure_cycles, reps) = if quick { (4_000, 2) } else { (40_000, 3) };
    let name = if telemetry {
        "BENCH_sim_throughput_telemetry"
    } else if ledger {
        "BENCH_sim_throughput_ledger"
    } else {
        "BENCH_sim_throughput"
    };
    let git = git_describe();
    eprintln!(
        "bench_perf: {} configs x {reps} reps, {measure_cycles} measured cycles each ({}{}{}{})",
        CONFIGS.len(),
        if quick { "quick" } else { "full" },
        if telemetry { ", telemetry on" } else { "" },
        if ledger { ", ledger on" } else { "" },
        if sim_threads > 1 { ", sharded engine" } else { "" },
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut trajectory: Vec<TrajectoryPoint> = Vec::new();
    for bc in CONFIGS.iter() {
        let (s, spread) =
            best_of(reps, || run_once(bc, measure_cycles, telemetry, ledger, sim_threads));
        let secs = s.wall.as_secs_f64().max(1e-9);
        let cycles = s.stats.end_cycle;
        let grants: u64 = s.stats.port_flits.iter().sum();
        let cps = cycles as f64 / secs;
        let gps = grants as f64 / secs;
        let mut point = TrajectoryPoint::new(bc.id, cps, gps);
        point.spread = spread;
        eprintln!(
            "  {:<22} {:>9.0} kcycles/s  {:>9.0} kgrants/s  ({} cycles in {:.1?}{})",
            bc.id,
            cps / 1e3,
            gps / 1e3,
            cycles,
            s.wall,
            if s.stats.saturated { ", saturated" } else { "" },
        );
        rows.push(config_row(&point, bc.description, &s));
        trajectory.push(point);
    }

    // Thread-scaling sweep: the saturated 64×64 mesh at 1 thread, and at
    // `--sim-threads N` when N > 1. The serial run always lands in the
    // artifact so consecutive trajectory rows share the t1 metric.
    let scale_cycles = if quick { 600 } else { 10_000 };
    let scale_reps = if quick { 1 } else { 2 };
    let mut scale_threads = vec![1usize];
    if sim_threads > 1 {
        scale_threads.push(sim_threads);
    }
    let mut serial_wall: Option<Duration> = None;
    for &threads in &scale_threads {
        let (s, spread) = best_of(scale_reps, || run_scale(threads, scale_cycles, quick, ledger));
        let secs = s.wall.as_secs_f64().max(1e-9);
        let cycles = s.stats.end_cycle;
        let grants: u64 = s.stats.port_flits.iter().sum();
        let (cps, gps) = (cycles as f64 / secs, grants as f64 / secs);
        let id = format!("mesh64x64_saturated_t{threads}");
        let speedup = serial_wall
            .map(|w1| w1.as_secs_f64() / secs)
            .filter(|_| threads > 1);
        if threads == 1 {
            serial_wall = Some(s.wall);
        }
        // Shard balance for threaded rows: read the timed run's ledger if
        // it had one (`--ledger`), else run once more instrumented so the
        // timed wall stays comparable across the trajectory.
        let (imbalance, barrier_frac) = if threads > 1 {
            if ledger {
                shard_metrics(&s.stats)
            } else {
                shard_metrics(&run_scale(threads, scale_cycles, quick, true).stats)
            }
        } else {
            (None, None)
        };
        eprintln!(
            "  {:<22} {:>9.0} kcycles/s  {:>9.0} kgrants/s  ({} cycles in {:.1?}{}{})",
            id,
            cps / 1e3,
            gps / 1e3,
            cycles,
            s.wall,
            match speedup {
                Some(x) => format!(", {x:.2}x vs 1 thread"),
                None => String::new(),
            },
            match (imbalance, barrier_frac) {
                (Some(i), Some(b)) => {
                    format!(", imbalance {i:.2}x, barrier {:.1}%", b * 100.0)
                }
                _ => String::new(),
            },
        );
        let point = TrajectoryPoint {
            id,
            cycles_per_sec: cps,
            flit_grants_per_sec: gps,
            shard_imbalance: imbalance,
            barrier_wait_frac: barrier_frac,
            spread,
        };
        let description =
            format!("64x64 mesh, XY, saturating injection, {threads} engine thread(s)");
        rows.push(config_row(&point, &description, &s));
        trajectory.push(point);
    }

    let unix = unix_now();
    let doc = header(name)
        .field("quick", quick)
        .field("telemetry", telemetry)
        .field("ledger", ledger)
        .field("measure_cycles", measure_cycles)
        .field("reps", reps)
        .field("configs", Json::Arr(rows));
    write_artifact(name, &doc);

    // Un-instrumented runs also extend the dated perf trajectory, the
    // baseline CI diffs fresh runs against with `rfnoc-cli compare`.
    if !telemetry && !ledger {
        append_trajectory(&git, unix, quick, &trajectory);
    }
}
