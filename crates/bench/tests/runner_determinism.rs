//! The parallel runner must be an execution-order detail, never a
//! results detail: `--jobs 8` has to produce bit-identical statistics to
//! a serial run, and deduplicated points must share one report.

use rfnoc::{Architecture, FaultSpec, WorkloadSpec};
use rfnoc_bench::plan::{labeled, BaselineSel, Design, Plan, SweepSpec};
use rfnoc_bench::runner::{run_plan, RunnerConfig};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{LedgerConfig, RunStats, SimConfig};
use rfnoc_topology::GridDims;
use rfnoc_traffic::{Placement, Profile, ProfileSpec, TraceKind, TrafficConfig};

/// A small but representative plan: two designs (one adaptive, so the
/// profiling pass is covered), two workloads, short windows, and a
/// baseline pairing.
fn small_plan() -> Plan {
    let mut sim = SimConfig::paper_baseline();
    sim.warmup_cycles = 200;
    sim.measure_cycles = 1_500;
    sim.drain_cycles = 500;
    SweepSpec::new("determinism")
        .designs(vec![
            Design::new("base", Architecture::Baseline, LinkWidth::B4),
            Design::new(
                "adaptive",
                Architecture::AdaptiveShortcuts { access_points: 20 },
                LinkWidth::B4,
            ),
        ])
        .workloads(vec![
            labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform)),
            labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1)),
        ])
        .sims(vec![labeled("short", sim)])
        .profile_cycles(500)
        .baseline(BaselineSel::design("base"))
        .expand()
}

#[test]
fn parallel_results_are_bit_identical_to_serial() {
    let plan = small_plan();
    let serial = run_plan(&plan, &RunnerConfig { jobs: 1, quiet: true, ..RunnerConfig::default() });
    let parallel = run_plan(&plan, &RunnerConfig { jobs: 8, quiet: true, ..RunnerConfig::default() });

    assert_eq!(serial.results.len(), plan.len());
    assert_eq!(parallel.results.len(), plan.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.point.id, p.point.id, "plan order must be preserved");
        // RunStats includes every message latency, histogram bucket, and
        // activity counter — bit-identical stats mean identical runs.
        assert_eq!(s.report.stats, p.report.stats, "stats diverge at {}", s.point.id);
        assert_eq!(s.normalized, p.normalized, "normalisation diverges at {}", s.point.id);
    }
}

#[test]
fn duplicate_experiments_run_once_and_share_reports() {
    // The same spec under two names — every experiment appears twice.
    let plan = Plan::merge([small_plan(), {
        let mut copy = small_plan();
        for point in &mut copy.points {
            point.id = format!("copy/{}", point.id);
            if let Some(b) = &mut point.baseline_id {
                *b = format!("copy/{b}");
            }
        }
        copy
    }]);
    let results = run_plan(&plan, &RunnerConfig { jobs: 4, quiet: true, ..RunnerConfig::default() });

    assert_eq!(plan.len(), 8);
    assert_eq!(results.unique_runs, 4, "duplicates must be deduplicated");
    for r in results.iter().take(4) {
        let copy = results.expect(&format!("copy/{}", r.point.id));
        assert_eq!(r.report.stats, copy.report.stats);
        assert_eq!(r.wall, copy.wall, "deduplicated points share one timed run");
    }
}

/// A plan whose points share a design every way they can: one adaptive
/// design under three fault intensities and under a second simulator
/// configuration, one static design on two traces — and two adaptive
/// designs on one trace, which share a profile but not a selection.
fn shared_design_plan() -> Plan {
    let short = {
        let mut sim = SimConfig::paper_baseline();
        sim.warmup_cycles = 200;
        sim.measure_cycles = 1_500;
        sim.drain_cycles = 500;
        sim
    };
    let other = {
        let mut sim = short.clone().with_ledger(LedgerConfig::every(400));
        sim.warmup_cycles = 300;
        sim.measure_cycles = 1_000;
        sim
    };
    let adaptive = |access_points| Architecture::AdaptiveShortcuts { access_points };
    let adaptive50 = Design::new("Adaptive-50", adaptive(50), LinkWidth::B16);
    let storms = SweepSpec::new("shared/storms")
        .designs(vec![adaptive50.clone()])
        .workloads(vec![labeled(
            "adversarial",
            WorkloadSpec::Profile(ProfileSpec::new(Profile::Adversarial, 7)),
        )])
        .sims(vec![labeled("short", short.clone()), labeled("other", other)])
        .traffics(vec![labeled(
            "0.012",
            TrafficConfig { injection_rate: 0.012, ..TrafficConfig::default() },
        )])
        .faults(
            [0.0, 1.0, 2.0]
                .into_iter()
                .map(|intensity| {
                    labeled(format!("{intensity:.1}"), FaultSpec::Correlated { seed: 11, intensity })
                })
                .collect(),
        )
        .profile_cycles(500);
    let traces = SweepSpec::new("shared/traces")
        .designs(vec![
            Design::new("Static", Architecture::StaticShortcuts, LinkWidth::B16),
            adaptive50,
            Design::new("Adaptive-25", adaptive(25), LinkWidth::B16),
        ])
        .workloads(vec![
            labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform)),
            labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1)),
        ])
        .sims(vec![labeled("short", short)])
        .profile_cycles(500);
    let mut plan = Plan::merge([storms.expand(), traces.expand()]);
    // The second simulator configuration runs the storm at one intensity,
    // and the adaptive designs run one trace.
    plan.points.retain(|p| {
        (p.labels.sim != "other" || p.labels.fault == "1.0")
            && (p.labels.design == "Static" || p.labels.workload != "Uniform")
    });
    plan
}

/// The ledger's heartbeats carry host time; everything else in the
/// statistics is simulated.
fn simulated(mut stats: RunStats) -> RunStats {
    stats.ledger = None;
    stats
}

/// Whatever the runner shares between points — a profile, a selection, a
/// distance matrix — every point must report what the stand-alone
/// `Experiment::run`, which computes all of it itself, reports.
#[test]
fn points_sharing_a_design_equal_their_stand_alone_runs() {
    let plan = shared_design_plan();
    let ids: Vec<&str> = plan.points.iter().map(|p| p.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "shared/storms/short/0-0",
            "shared/storms/short/1-0",
            "shared/storms/short/2-0",
            "shared/storms/other/1-0",
            "shared/traces/static/uniform",
            "shared/traces/static/1hotspot",
            "shared/traces/adaptive-50/1hotspot",
            "shared/traces/adaptive-25/1hotspot",
        ]
    );
    let alone: Vec<RunStats> =
        plan.points.iter().map(|p| simulated(p.experiment.run().stats)).collect();
    assert!(
        alone[2].mesh_link_faults > 0 && alone[2].shortcut_faults > 0,
        "the storm must rewrite the routing tables"
    );
    for jobs in [1, 2, 8] {
        let results =
            run_plan(&plan, &RunnerConfig { jobs, quiet: true, ..RunnerConfig::default() });
        assert_eq!(results.unique_runs, plan.len());
        for (r, alone) in results.iter().zip(&alone) {
            assert_eq!(
                r.report.stats.ledger.is_some(),
                r.point.labels.sim == "other",
                "{}: the point's own simulator configuration runs",
                r.point.id
            );
            assert_eq!(
                &simulated(r.report.stats.clone()),
                alone,
                "jobs {jobs}: {} diverges from its stand-alone run",
                r.point.id
            );
        }
    }
}

/// One design stage per distinct design, charged to exactly one point —
/// never to a repeat of an earlier point's experiment.
#[test]
fn a_design_is_built_once_and_charged_to_one_point() {
    let mut plan = shared_design_plan();
    let mut repeat = plan.points[4].clone();
    repeat.id = "shared/traces/static/uniform-again".into();
    plan.points.push(repeat);
    // The storm's four points, Static's three, and the two adaptive ones.
    let designs = [
        vec!["shared/storms/short/0-0", "shared/storms/short/1-0", "shared/storms/short/2-0",
            "shared/storms/other/1-0"],
        vec!["shared/traces/static/uniform", "shared/traces/static/1hotspot",
            "shared/traces/static/uniform-again"],
        vec!["shared/traces/adaptive-50/1hotspot"],
        vec!["shared/traces/adaptive-25/1hotspot"],
    ];
    for jobs in [1, 2, 8] {
        let results =
            run_plan(&plan, &RunnerConfig { jobs, quiet: true, ..RunnerConfig::default() });
        assert_eq!(results.unique_runs, 8);
        for design in &designs {
            let charged: Vec<&str> = design
                .iter()
                .copied()
                .filter(|id| !results.expect(id).report.build_wall.is_zero())
                .collect();
            assert_eq!(charged.len(), 1, "jobs {jobs}: {design:?} charged to {charged:?}");
            assert_ne!(charged[0], "shared/traces/static/uniform-again");
        }
    }
    // A mesh baseline has no design stage to charge.
    let base = run_plan(&small_plan(), &RunnerConfig { jobs: 2, quiet: true, ..RunnerConfig::default() });
    for r in base.iter() {
        assert_eq!(r.report.build_wall.is_zero(), r.point.labels.design == "base", "{}", r.point.id);
    }
}

#[test]
fn baseline_pairing_yields_finite_ratios() {
    let results = run_plan(&small_plan(), &RunnerConfig { jobs: 2, quiet: true, ..RunnerConfig::default() });
    for r in results.iter() {
        if r.point.is_baseline {
            assert_eq!(r.normalized, None, "baselines are not normalised to themselves");
        } else {
            let (lat, pow) = r.normalized.expect("non-baselines are paired");
            assert!(lat > 0.0 && pow > 0.0 && lat.is_finite() && pow.is_finite());
        }
    }
}

/// A plan with a bad traffic parameter is refused up front, naming the
/// point — not discovered by a worker thread halfway through.
#[test]
#[should_panic(expected = "\"determinism/base/uniform\": invalid traffic parameters: hot_fraction")]
fn invalid_traffic_parameters_refuse_the_plan() {
    let mut plan = small_plan();
    plan.points[0].experiment.traffic.hot_fraction = 1.5;
    run_plan(&plan, &RunnerConfig { jobs: 1, quiet: true, ..RunnerConfig::default() });
}

/// So is a multicast workload on a placement with routers beyond the
/// 128-bit destination vector, which used to panic on its first multicast.
#[test]
#[should_panic(expected = "\"determinism/base/uniform\": invalid traffic parameters: multicast")]
fn multicast_beyond_the_dest_set_refuses_the_plan() {
    let mut plan = small_plan();
    let exp = &mut plan.points[0].experiment;
    exp.placement = Placement::quadrant_clusters(GridDims::new(16, 16));
    exp.workload = WorkloadSpec::TraceWithMulticast {
        base: TraceKind::Uniform,
        locality: 0.2,
        rate_per_cache: 0.001,
    };
    run_plan(&plan, &RunnerConfig { jobs: 1, quiet: true, ..RunnerConfig::default() });
}
