//! The parallel runner must be an execution-order detail, never a
//! results detail: `--jobs 8` has to produce bit-identical statistics to
//! a serial run, and deduplicated points must share one report.

use rfnoc::{Architecture, WorkloadSpec};
use rfnoc_bench::plan::{labeled, BaselineSel, Design, Plan, SweepSpec};
use rfnoc_bench::runner::{run_plan, RunnerConfig};
use rfnoc_power::LinkWidth;
use rfnoc_sim::SimConfig;
use rfnoc_traffic::TraceKind;

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
