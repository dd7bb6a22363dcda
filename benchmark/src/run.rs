//! Runs one workload in this process: a reference run, then reps until the
//! `--seconds` budget is used, then the checks and the result.

use crate::checks::{Checks, StatsHash};
use crate::inputs::{inputs, Inputs};
use crate::metrics::{print_result, Samples, END_TO_END, PER_LAYER};
use crate::single::{self, Rep};
use crate::stats::median;
use crate::sweep::SweepRun;
use crate::trace::Tracer;
use rfnoc_parallel::WorkerPool;
use std::path::PathBuf;
use std::time::Instant;

/// What the driver passes on the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 keeps the paper seeds.
    pub seed: u64,
    /// Seconds the reps should fill, to the nearest whole rep.
    pub seconds: f64,
    /// Traced pass (per-crate metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Shrunk workloads, two reps, no time budget.
    pub smoke: bool,
}

/// Every pass runs at least this many reps, so that rep-to-rep equality
/// is always checked.
const MIN_REPS: u32 = 2;

/// The repository root: the working directory (how the driver and the
/// README run the benchmark) or its parent (how `cargo test` runs it).
pub fn repo_root() -> Result<PathBuf, String> {
    [".", ".."]
        .into_iter()
        .map(PathBuf::from)
        .find(|root| root.join("BENCHMARK.json").is_file() && root.join("benchmark").is_dir())
        .ok_or_else(|| "run from the repository root (no BENCHMARK.json here)".to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kb.unwrap_or(0.0) / 1024.0
}

/// Median round trip of an empty job through a 2-worker pool — the floor
/// under the sharded engine's per-cycle barrier.
fn dispatch_ns() -> f64 {
    let pool = WorkerPool::new(2);
    let ns: Vec<f64> = (0..10_000)
        .map(|_| {
            let t0 = Instant::now();
            pool.scoped_run(&|_| {});
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&ns)
}

/// Runs the workload and prints its result. Returns whether every check
/// held; `Err` for an unknown workload or an unwritable `out/`.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let name = args.workload.as_str();
    let Some(inputs) = inputs(name, args.seed, args.smoke) else {
        return Err(format!("unknown workload {name:?}"));
    };
    // `benchmark/out/` is the only directory the benchmark writes to.
    let out_dir = repo_root()?.join("benchmark/out").join(name);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let sweep = SweepRun {
        name,
        seed: args.seed,
        smoke: args.smoke,
        out_dir: &out_dir,
    };
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(name);

    // The reference doubles as the warm-up: `Experiment::run()` on the
    // serial engine for the single experiments, the same plan with every
    // observer off for the observed sweep.
    let reference: Option<(StatsHash, f64)> = match &inputs {
        Inputs::Single(exps) => Some(single::reference(exps, &mut checks)),
        Inputs::Sweep {
            stream_ledger: true,
            ..
        } => {
            let rep = sweep.rep(false, None, &mut checks);
            Some((rep.hash, rep.wall_s))
        }
        Inputs::Sweep { .. } => None,
    };

    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut reps = MIN_REPS;
    for rep in 0.. {
        let t0 = Instant::now();
        untraced.push(match &inputs {
            Inputs::Single(exps) => single::untraced(exps, &mut checks),
            Inputs::Sweep { .. } => sweep.rep(true, None, &mut checks),
        });
        if args.trace {
            tracer.rep = rep;
            traced.push(match &inputs {
                Inputs::Single(exps) => single::traced(exps, &mut tracer, &mut checks),
                Inputs::Sweep { .. } => sweep.rep(true, Some(&mut tracer), &mut checks),
            });
        }
        if rep == 0 && !args.smoke {
            // The count is fixed after the first rep rather than decided
            // against the clock before each one: two runs of a workload then
            // make the same number of reps, and report comparable medians.
            reps = reps.max((args.seconds / t0.elapsed().as_secs_f64()).round() as u32);
        }
        if rep + 1 >= reps {
            break;
        }
    }

    let first = untraced[0].hash;
    for (pass, reps) in [("untraced", &untraced), ("traced", &traced)] {
        for (i, rep) in reps.iter().enumerate() {
            checks.expect(rep.hash == first, || {
                format!(
                    "{pass} rep {i} hashes {:x}, the first rep {:x}",
                    rep.hash.0, first.0
                )
            });
        }
    }
    if let Some((hash, _)) = reference {
        checks.expect(hash == first, || {
            format!(
                "the reference hashes {:x}, the first rep {:x}",
                hash.0, first.0
            )
        });
    }

    let walls = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut samples = Samples::default();
    let table = if args.trace {
        for rep in traced.iter() {
            samples.extend(rep.samples.iter().cloned());
        }
        samples.push(
            "trace.overhead_frac",
            walls(&traced) / walls(&untraced) - 1.0,
        );
        samples.push("parallel.dispatch_ns", dispatch_ns());
        match (&inputs, reference) {
            // `Experiment::run()` on one thread over the staged pipeline on
            // the workload's: 1 on the serial workloads, the sharding
            // speed-up of the whole experiment on `_t2`.
            (Inputs::Single(_), Some((_, s))) => {
                samples.push("sim.shard_speedup", s / walls(&untraced))
            }
            (Inputs::Sweep { .. }, Some((_, s))) => {
                samples.push("sim.observer_overhead_frac", walls(&untraced) / s - 1.0);
            }
            _ => {}
        }
        let path = out_dir.join("trace.json");
        std::fs::write(&path, tracer.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        PER_LAYER
    } else {
        for rep in untraced.iter() {
            samples.extend(rep.samples.iter().cloned());
        }
        samples.push("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    print_result(name, &samples.summarise(table), &mut checks);
    Ok(checks.failed == 0)
}
