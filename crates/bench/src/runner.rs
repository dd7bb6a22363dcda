//! Parallel plan execution: a work-stealing runner over scoped threads.
//!
//! The runner executes every [`RunPoint`] of a [`Plan`] across `--jobs`
//! worker threads (scoped `std::thread` — no dependencies), deduplicating
//! identical experiments (merged suite plans repeat baselines across
//! figures), scheduling the most expensive points first, and reporting
//! per-point timing and live progress on stderr. Results come back in plan
//! order regardless of execution interleaving, and each point's simulation
//! is bit-identical to a serial run — plan-level parallelism never touches
//! simulator state, only which thread runs which self-contained experiment.
//! Experiments that differ only in what their design stage does not read —
//! fault schedule, simulator windows, for a static design the workload —
//! share one profile and one shortcut selection: the first of them to run
//! computes the design, the others are handed it (see [`DesignSlot`]).
//! `--sim-threads N` additionally steps each experiment's router sweep on
//! `N` sharded-engine threads (also bit-identical); the runner then caps
//! `--jobs` so `jobs × sim_threads` stays within the machine's
//! parallelism.

use crate::ledger::{LedgerSink, ENGINE_HEARTBEAT_CYCLES};
use crate::plan::{Plan, RunPoint};
use rfnoc::json::{rounded, Json};
use rfnoc::ledger::record_json;
use rfnoc::{DesignKey, Experiment, RunReport, SharedDesign};
use rfnoc_sim::LedgerConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Runner knobs, usually parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (`--jobs N`; defaults to the available parallelism).
    pub jobs: usize,
    /// Simulator worker threads per experiment (`--sim-threads N`; the
    /// sharded cycle engine, bit-identical at any count). Defaults to 1.
    pub sim_threads: usize,
    /// Suppress human progress lines on stderr (`--quiet`). Quiet means
    /// "human output off", not "no observability": when [`Self::ledger`]
    /// is also set, the structured JSONL ledger is still written in full.
    pub quiet: bool,
    /// Stream a structured run ledger (`--ledger <name>`): point
    /// lifecycle records plus each experiment's engine heartbeats and
    /// per-shard sweep metrics, as JSONL in `results/ledger/<name>.jsonl`
    /// (a value containing `/` or ending in `.jsonl` is used as a path
    /// verbatim; `-` streams JSONL to stdout). `None` (the default)
    /// writes no ledger.
    pub ledger: Option<String>,
    /// Serve the live observatory endpoints (`--obs-port P`): `/metrics`
    /// (Prometheus text), `/healthz`, and `/events` (SSE ledger tail) on
    /// `127.0.0.1:P` for the duration of the run. `0` picks a free port
    /// (printed on stderr). `None` (the default) serves nothing.
    pub obs_port: Option<u16>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            jobs: default_jobs(),
            sim_threads: 1,
            quiet: false,
            ledger: None,
            obs_port: None,
        }
    }
}

/// The machine's available parallelism (1 when unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The numeric value of a command-line `flag`; exits with status 2,
/// naming the flag, when it is missing or does not parse.
fn number<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        let got = value.map_or(String::new(), |v| format!(", got {v:?}"));
        eprintln!("runner: {flag} needs a number{got}");
        std::process::exit(2);
    })
}

impl RunnerConfig {
    /// Parses `--jobs N` (or `-j N`, or `--jobs=N`), `--sim-threads N`
    /// (or `--sim-threads=N`), `--quiet`, `--ledger NAME` (or
    /// `--ledger=NAME`), and `--obs-port P` (or `--obs-port=P`) out of
    /// the process arguments; every other argument is ignored.
    ///
    /// Exits with status 2, before any experiment runs, on a `--jobs`,
    /// `--sim-threads` or `--obs-port` whose value is missing or does not
    /// parse, and on `--sim-threads 0` — the simulator rejects a zero
    /// thread count ([`rfnoc_sim::ConfigError::ZeroSimThreads`]).
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
                _ => (arg.as_str(), None),
            };
            let mut value = || inline.or_else(|| it.next().map(String::as_str));
            match flag {
                "--jobs" | "-j" => cfg.jobs = number(flag, value()),
                "--sim-threads" => cfg.sim_threads = number(flag, value()),
                "--obs-port" => cfg.obs_port = Some(number(flag, value())),
                "--ledger" => {
                    if let Some(name) = value() {
                        cfg.ledger = Some(name.to_string());
                    }
                }
                "--quiet" => cfg.quiet = true,
                _ => {}
            }
        }
        cfg.jobs = cfg.jobs.max(1);
        if cfg.sim_threads == 0 {
            eprintln!("runner: {}", rfnoc_sim::ConfigError::ZeroSimThreads);
            std::process::exit(2);
        }
        cfg
    }

    /// Plan-level worker threads after the simulator-thread budget:
    /// `jobs` is capped so `jobs × sim_threads` does not oversubscribe
    /// the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        let budget = default_jobs() / self.sim_threads.max(1);
        self.jobs.min(budget.max(1))
    }
}

/// One executed point: the point, its report, and how long it took.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The plan point this result belongs to.
    pub point: RunPoint,
    /// The experiment's report.
    pub report: RunReport,
    /// Wall-clock time of the (deduplicated) experiment run.
    pub wall: Duration,
    /// `(latency, power)` normalised to the point's designated baseline,
    /// when the plan paired one.
    pub normalized: Option<(f64, f64)>,
}

/// All results of a plan, in plan order.
#[derive(Debug, Clone)]
pub struct PlanResults {
    /// Per-point results, index-aligned with the plan's points.
    pub results: Vec<PointResult>,
    /// Wall-clock time of the whole run.
    pub total_wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Experiments actually executed after deduplication.
    pub unique_runs: usize,
    /// Sum of per-experiment wall times — the serial cost the parallel
    /// run replaced (deduplicated runs counted once).
    pub points_wall: Duration,
}

impl PlanResults {
    /// The result for a point ID.
    pub fn get(&self, id: &str) -> Option<&PointResult> {
        self.results.iter().find(|r| r.point.id == id)
    }

    /// The result for a point ID.
    ///
    /// # Panics
    ///
    /// Panics when the ID is not in the plan — a bug in the caller's
    /// formatter, so fail loudly with the ID.
    pub fn expect(&self, id: &str) -> &PointResult {
        self.get(id).unwrap_or_else(|| panic!("no result for plan point {id:?}"))
    }

    /// Iterates the results in plan order.
    pub fn iter(&self) -> impl Iterator<Item = &PointResult> {
        self.results.iter()
    }

    /// The subset of results belonging to `plan` (by point ID), in that
    /// plan's order — splits a merged suite run back into per-figure
    /// result sets.
    pub fn subset(&self, plan: &Plan) -> PlanResults {
        let results: Vec<PointResult> = plan
            .points
            .iter()
            .map(|p| self.expect(&p.id).clone())
            .collect();
        PlanResults {
            results,
            total_wall: self.total_wall,
            jobs: self.jobs,
            unique_runs: self.unique_runs,
            points_wall: self.points_wall,
        }
    }
}

/// One design of a plan, shared by the experiments whose
/// [`Experiment::design_key`]s are equal: built by the first of them a
/// worker picks up, handed to the rest, gone when the last has run. It
/// lives nowhere but in the plan run that made it.
struct DesignSlot {
    /// How many of its experiments have yet to claim the design, and the
    /// design once one of them has built it.
    state: Mutex<(usize, Option<SharedDesign>)>,
}

impl DesignSlot {
    fn new() -> Self {
        Self { state: Mutex::new((0, None)) }
    }

    /// Counts one more experiment in; all are counted before any claims.
    fn add_user(&mut self) {
        self.state.get_mut().expect("no worker has run yet").0 += 1;
    }

    /// The design, for one of its experiments, and the host time this call
    /// spent building it — zero for every claim but the first. A claim that
    /// arrives while the first is still building waits for it, no longer
    /// than building the design itself would have taken. The last claim
    /// empties the slot.
    fn claim(&self, experiment: &Experiment) -> (SharedDesign, Duration) {
        let mut state = self.state.lock().expect("another worker panicked building this design");
        let (unclaimed, design) = &mut *state;
        let mut build_wall = Duration::ZERO;
        if design.is_none() {
            let start = Instant::now();
            *design = Some(experiment.design());
            build_wall = start.elapsed();
        }
        *unclaimed -= 1;
        let design = if *unclaimed == 0 { design.take() } else { design.clone() };
        (design.expect("built above"), build_wall)
    }
}

/// Executes every point of the plan on `cfg.jobs` worker threads and
/// returns results in plan order.
///
/// Identical experiments (by value) run once and share their report.
/// Unique experiments are scheduled longest-estimated-first through an
/// atomic work queue, so stragglers start early and the workers
/// self-balance. Experiments with equal design keys share one design
/// stage; its time shows in the `build_wall` (and the wall) of the point
/// that ran it and as zero in the others, so the points of a plan with a
/// non-zero `build_wall` are as many as its distinct designs.
///
/// # Panics
///
/// Panics before any experiment runs if a point's workload fails
/// [`rfnoc::WorkloadSpec::validate`] (its traffic parameters included),
/// and if a worker thread panics (the panic is propagated).
pub fn run_plan(plan: &Plan, cfg: &RunnerConfig) -> PlanResults {
    let sink = LedgerSink::from_config(cfg);
    run_plan_with(plan, cfg, &sink)
}

/// [`run_plan`] against an explicit progress/ledger sink — the variant
/// for embedders that share one sink across several plans (a campaign's
/// phases on one timeline).
///
/// # Panics
///
/// As [`run_plan`].
pub fn run_plan_with(plan: &Plan, cfg: &RunnerConfig, sink: &LedgerSink) -> PlanResults {
    let start = Instant::now();
    // A generator handed an out-of-range parameter panics on a worker
    // thread in the middle of the plan: refuse the plan here.
    for point in &plan.points {
        let exp = &point.experiment;
        if let Err(e) = exp.workload.validate(&exp.placement, &exp.traffic) {
            panic!("plan point {:?}: invalid traffic parameters: {e}", point.id);
        }
    }
    // Deduplicate by experiment value; points index into `unique`.
    let mut unique: Vec<&RunPoint> = Vec::new();
    let mut point_to_unique: Vec<usize> = Vec::with_capacity(plan.points.len());
    for point in &plan.points {
        match unique.iter().position(|u| u.experiment == point.experiment) {
            Some(i) => point_to_unique.push(i),
            None => {
                unique.push(point);
                point_to_unique.push(unique.len() - 1);
            }
        }
    }

    // Distinct designs among the unique experiments, by value of exactly
    // what the design stage reads; experiments index into `designs`.
    let mut keys: Vec<DesignKey<'_>> = Vec::new();
    let mut designs: Vec<DesignSlot> = Vec::new();
    let design_of: Vec<Option<usize>> = unique
        .iter()
        .map(|u| {
            let key = u.experiment.design_key()?;
            let d = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                designs.push(DesignSlot::new());
                designs.len() - 1
            });
            designs[d].add_user();
            Some(d)
        })
        .collect();

    // Longest-first schedule over the unique experiments.
    let mut order: Vec<usize> = (0..unique.len()).collect();
    order.sort_by(|&a, &b| {
        unique[b]
            .experiment
            .cost_estimate()
            .total_cmp(&unique[a].experiment.cost_estimate())
            .then(a.cmp(&b))
    });

    let jobs = cfg.effective_jobs().clamp(1, unique.len().max(1));
    sink.human(&format!(
        "plan: {} points ({} unique experiments, {} designs) on {} thread{}",
        plan.len(),
        unique.len(),
        designs.len(),
        jobs,
        if jobs == 1 { "" } else { "s" }
    ));
    let ms = |d: Duration| rounded(d.as_secs_f64() * 1e3, 4);
    let lifecycle = |kind: &str, point: &RunPoint| {
        Json::obj().field("kind", kind).field("point", &point.id)
    };
    sink.emit(
        None,
        Json::obj()
            .field("kind", "plan_start")
            .field("points", plan.len())
            .field("unique", unique.len())
            .field("dedup_hits", plan.len() - unique.len())
            .field("jobs", jobs)
            .field("sim_threads", cfg.sim_threads),
    );
    if sink.enabled() {
        for &u in &order {
            sink.emit(None, lifecycle("point_queued", unique[u]));
        }
    }

    let slots: Vec<OnceLock<(RunReport, Duration)>> =
        (0..unique.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&u) = order.get(k) else { break };
                    let point = unique[u];
                    sink.emit(None, lifecycle("point_start", point));
                    let t0 = Instant::now();
                    // The engine-level ledger rides along only when a
                    // ledger file is being written — enabling it (like
                    // sim-threads) needs a mutated experiment copy, and
                    // neither changes simulated results (bit-identical).
                    let tuned;
                    let experiment = if cfg.sim_threads > 1 || sink.enabled() {
                        let mut exp = point.experiment.clone();
                        if cfg.sim_threads > 1 {
                            exp.system.sim.threads = cfg.sim_threads;
                        }
                        if sink.enabled() {
                            exp.system.sim.ledger =
                                Some(LedgerConfig::every(ENGINE_HEARTBEAT_CYCLES));
                        }
                        tuned = exp;
                        &tuned
                    } else {
                        &point.experiment
                    };
                    let (design, build_wall) = match design_of[u] {
                        Some(d) => designs[d].claim(experiment),
                        // No design stage: there is nothing to select.
                        None => (experiment.design(), Duration::ZERO),
                    };
                    let report = RunReport { build_wall, ..experiment.run_on(&design) };
                    let wall = t0.elapsed();
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    sink.human(&format!(
                        "  [{finished}/{}] {} — {:.1} cyc, {:.2?}{}{}",
                        unique.len(),
                        point.id,
                        report.avg_latency(),
                        wall,
                        if report.stats.saturated {
                            " [SATURATED: latency is a lower bound]"
                        } else {
                            ""
                        },
                        if report.stats.is_healthy() { "" } else { " [WATCHDOG]" },
                    ));
                    if sink.enabled() {
                        // Forward the experiment's engine stream onto the
                        // shared timeline, each record tagged with the
                        // point it belongs to.
                        if let Some(led) = &report.stats.ledger {
                            for rec in &led.records {
                                sink.emit(Some(&point.id), record_json(rec));
                            }
                        }
                        sink.emit(
                            None,
                            lifecycle("point_finish", point)
                                .field("wall_ms", ms(wall))
                                .field("avg_latency", rounded(report.avg_latency(), 4))
                                .field("saturated", report.stats.saturated)
                                .field("healthy", report.stats.is_healthy()),
                        );
                    }
                    slots[u].set((report, wall)).expect("each unique point runs once");
                }
            });
        }
    });

    // Assemble in plan order and resolve baseline normalisation.
    let reports: Vec<&(RunReport, Duration)> =
        slots.iter().map(|s| s.get().expect("all points ran")).collect();
    let results: Vec<PointResult> = plan
        .points
        .iter()
        .zip(&point_to_unique)
        .map(|(point, &u)| {
            let (report, wall) = reports[u];
            let normalized = point.baseline_id.as_ref().map(|bid| {
                let bidx = plan
                    .index_of(bid)
                    .unwrap_or_else(|| panic!("baseline {bid:?} missing from plan"));
                let (baseline, _) = reports[point_to_unique[bidx]];
                report.normalized_to(baseline)
            });
            let mut report = report.clone();
            if !std::ptr::eq(point, unique[u]) {
                // A repeat of an earlier point's experiment built nothing.
                report.build_wall = Duration::ZERO;
            }
            PointResult { point: point.clone(), report, wall: *wall, normalized }
        })
        .collect();
    let total_wall = start.elapsed();
    let points_wall: Duration = reports.iter().map(|(_, wall)| *wall).sum();
    sink.emit(
        None,
        Json::obj()
            .field("kind", "plan_finish")
            .field("points", plan.len())
            .field("unique", unique.len())
            .field("wall_ms", ms(total_wall))
            .field("points_wall_ms", ms(points_wall)),
    );
    PlanResults {
        results,
        total_wall,
        jobs,
        unique_runs: unique.len(),
        points_wall,
    }
}
