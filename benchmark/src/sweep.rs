//! Reps of the two sweep workloads: expand the plan, run it on the sweep
//! runner, render and write the artifact.
//!
//! The runner owns each point's pipeline, so the traced rep cannot split a
//! point from outside. It instead probes every point serially first —
//! the staged set-up plus the point's whole traffic stream — and records
//! the runner's per-point wall times as duration-only spans.

use crate::checks::Checks;
use crate::inputs::{inputs, Inputs, SWEEP_JOBS};
use crate::single::{self, Counts, Rep};
use crate::stats::median;
use crate::totals::{named, ratio, Totals};
use crate::trace::{SpanId, Tracer};
use rfnoc_bench::artifact::render_json;
use rfnoc_bench::geomean;
use rfnoc_bench::plan::Plan;
use rfnoc_bench::runner::{run_plan, PlanResults, RunnerConfig};
use std::path::Path;
use std::time::Instant;

/// The paper's Fig 7 trace-averaged `(design, latency, power)` normalised
/// to the 16B baseline — the reference of the accuracy metrics.
const PAPER_FIG7: [(&str, f64, f64); 3] = [
    ("Static", 0.80, 1.11),
    ("Adaptive-50", 0.68, 1.24),
    ("Adaptive-25", 0.72, 1.15),
];

/// Where a sweep workload comes from and where its files go.
#[derive(Debug, Clone, Copy)]
pub struct SweepRun<'a> {
    /// Workload name.
    pub name: &'a str,
    /// The `--seed` value.
    pub seed: u64,
    /// Smoke sizes.
    pub smoke: bool,
    /// `out/<workload>/`.
    pub out_dir: &'a Path,
}

/// A tracer with the `rep` span everything hangs under.
type Traced<'a> = Option<(&'a mut Tracer, SpanId)>;

fn timed<T>(traced: &mut Traced<'_>, name: &str, f: impl FnOnce() -> T) -> T {
    match traced {
        Some((t, root)) => t.time(name, Some(*root), f),
        None => f(),
    }
}

impl SweepRun<'_> {
    /// The plan and runner configuration; with `observers` false,
    /// telemetry, recovery tracking and both ledgers are stripped.
    fn expand(&self, observers: bool) -> (Plan, RunnerConfig) {
        let Some(Inputs::Sweep {
            mut plan,
            stream_ledger,
        }) = inputs(self.name, self.seed, self.smoke)
        else {
            panic!("{} is not a sweep workload", self.name);
        };
        let mut cfg = RunnerConfig {
            jobs: SWEEP_JOBS,
            sim_threads: 1,
            quiet: true,
            ledger: None,
            obs_port: None,
        };
        if !observers {
            for point in &mut plan.points {
                let sim = &mut point.experiment.system.sim;
                (sim.telemetry, sim.recovery, sim.ledger) = (None, None, None);
            }
        } else if stream_ledger {
            let path = self.out_dir.join("runner.jsonl");
            cfg.ledger = Some(path.to_str().expect("the out path is UTF-8").to_string());
        }
        (plan, cfg)
    }

    /// One rep. With a tracer it records spans and returns the per-crate
    /// samples; without, the end-to-end samples. `observers` false runs the
    /// plan with every observer off — the reference whose statistics the
    /// observed run must reproduce.
    pub fn rep(&self, observers: bool, tracer: Option<&mut Tracer>, checks: &mut Checks) -> Rep {
        let mut traced: Traced<'_> = tracer.map(|t| {
            let root = t.open("rep", None);
            (t, root)
        });

        // Set-up: untraced, every point elaborated to cycle 0 and dropped;
        // traced, the same stage by stage plus the traffic stream.
        let (plan, _) = self.expand(observers);
        let t0 = Instant::now();
        let counts = match &mut traced {
            Some((t, root)) => probe_points(&plan, t, *root, checks),
            None => {
                for point in &plan.points {
                    drop(single::setup(&point.experiment));
                }
                Counts::default()
            }
        };
        let setup_s = t0.elapsed().as_secs_f64();

        // The pipeline a user runs: inputs → costed results on disk.
        let start = Instant::now();
        let (plan, cfg) = timed(&mut traced, "bench.plan_expand", || self.expand(observers));
        let results = timed(&mut traced, "bench.run_plan", || run_plan(&plan, &cfg));
        let artifact = timed(&mut traced, "bench.render_json", || {
            render_json(self.name, &results)
        });
        let path = self.out_dir.join(format!("{}.json", self.name));
        timed(&mut traced, "bench.write", || {
            std::fs::write(&path, &artifact).expect("write the artifact under out/");
        });
        let wall_s = start.elapsed().as_secs_f64();
        if let Some((t, root)) = &mut traced {
            t.close(*root);
        }

        checks.expect(rfnoc::compare::parse(&artifact).is_ok(), || {
            format!("{} does not parse", path.display())
        });
        let mut totals = Totals::default();
        for r in results.iter() {
            let routers = r.point.experiment.placement.dims().nodes();
            let power_w = r.report.total_power_w();
            totals.add(&r.point.id, routers, &r.report.stats, power_w, checks);
        }

        let samples = match traced {
            Some((t, root)) => {
                let run = t.last("bench.run_plan");
                for r in results.iter() {
                    t.record(
                        &format!("point:{}", r.point.id),
                        run,
                        r.wall.as_nanos() as u64,
                    );
                }
                let ledger_bytes = cfg
                    .ledger
                    .as_ref()
                    .and_then(|path| std::fs::metadata(path).ok())
                    .map_or(0, |meta| meta.len());
                let mut samples = t.rep_samples();
                samples.extend(counts.samples(t));
                samples.extend(runner_samples(&results));
                samples.extend(paper_errors(&results));
                samples.extend(totals.per_layer());
                samples.extend(named([
                    ("bench.artifact_bytes", artifact.len() as f64),
                    ("bench.ledger_jsonl_bytes", ledger_bytes as f64),
                    ("trace.unattributed_frac", ratio(t.self_s(root), wall_s)),
                ]));
                samples
            }
            None => {
                let mut samples = totals.end_to_end(results.points_wall.as_secs_f64());
                samples.extend(named([("wall_s", wall_s), ("setup_s", setup_s)]));
                samples
            }
        };
        Rep {
            hash: totals.hash,
            wall_s,
            samples,
        }
    }
}

/// The traced set-up probe: every point staged to cycle 0 under a
/// `probe/point:<id>` span, then its traffic generated for the whole
/// window. Returns the counts no span carries.
fn probe_points(plan: &Plan, t: &mut Tracer, root: SpanId, checks: &mut Checks) -> Counts {
    let probe = t.open("probe", Some(root));
    let mut counts = Counts::default();
    for point in &plan.points {
        let exp = &point.experiment;
        let span = t.open(&format!("point:{}", point.id), Some(probe));
        let mut ready = single::staged_setup(exp, t, span, &mut counts, checks);
        let horizon = exp.system.sim.warmup_cycles + exp.system.sim.measure_cycles;
        t.time("traffic.generate", Some(span), || {
            let mut buf = Vec::new();
            for cycle in 0..horizon {
                buf.clear();
                ready.workload.messages_at(cycle, &mut buf);
                counts.messages += buf.len() as u64;
            }
        });
        t.close(span);
    }
    t.close(probe);
    counts
}

/// What the runner reports about its own schedule.
fn runner_samples(results: &PlanResults) -> Vec<(String, f64)> {
    let walls: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
    let points_wall = results.points_wall.as_secs_f64();
    named([
        ("bench.points_wall_s", points_wall),
        // With parallel parts the slowest point sets the tail: 1.0 means
        // both runner threads were busy from start to end.
        (
            "bench.parallel_efficiency",
            ratio(
                points_wall,
                SWEEP_JOBS as f64 * results.total_wall.as_secs_f64(),
            ),
        ),
        ("bench.point_wall_p50_s", median(&walls)),
        (
            "bench.point_wall_max_s",
            walls.iter().copied().fold(0.0, f64::max),
        ),
    ])
}

/// Mean absolute distance of the trace-averaged normalised latency and
/// power from the paper's Fig 7 numbers, over the three RF designs —
/// averaged as the suite's `norm_table` does, geometrically. Empty for a
/// plan without Fig 7's points.
fn paper_errors(results: &PlanResults) -> Vec<(String, f64)> {
    let (mut lat_err, mut pow_err) = (0.0, 0.0);
    for (design, paper_lat, paper_pow) in PAPER_FIG7 {
        let (lats, pows): (Vec<f64>, Vec<f64>) = results
            .iter()
            .filter(|r| r.point.id.starts_with("fig7/") && r.point.labels.design == design)
            .filter_map(|r| r.normalized)
            .unzip();
        let (Some(lat), Some(pow)) = (geomean(&lats), geomean(&pows)) else {
            return Vec::new();
        };
        lat_err += (lat - paper_lat).abs();
        pow_err += (pow - paper_pow).abs();
    }
    let designs = PAPER_FIG7.len() as f64;
    named([
        ("paper.latency_err", lat_err / designs),
        ("paper.power_err", pow_err / designs),
    ])
}
