//! The quick scenarios' artifacts, read through `rfnoc::json`: what the
//! paper's claims and the harness's schemas promise of each JSON file that
//! `run_all --filter fig7`, `telemetry_report`, `profile_report`,
//! `run_all mesh_scaling` and `run_all resilience` write in `--quick` mode.
//!
//! Each binary runs once per test process, in a scratch directory of its
//! own, and every test reading its artifacts shares that run. The timing
//! gates are `#[ignore]`d: they hold only for release binaries, so CI runs
//! them by name with `cargo test --release -p rfnoc-bench --test
//! quick_artifacts -- --ignored`.

use rfnoc::json::{read_file, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

mod common;

/// Runs `exe args` in scratch directory `name` the first time `cell` is
/// asked for, and returns that directory.
fn generated(
    cell: &'static OnceLock<PathBuf>,
    exe: &str,
    name: &str,
    args: &[&str],
) -> &'static Path {
    cell.get_or_init(|| {
        let dir = common::scratch_dir(&format!("quick_artifacts/{name}"));
        let (code, _, stderr) = common::spawn(exe, &dir, args);
        assert_eq!(code, 0, "{name}: {stderr}");
        dir
    })
}

fn fig7() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    let args = ["--filter", "fig7", "--quick", "--jobs", "2"];
    generated(&DIR, env!("CARGO_BIN_EXE_run_all"), "fig7", &args)
}

fn telemetry() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    generated(&DIR, env!("CARGO_BIN_EXE_telemetry_report"), "telemetry", &["--quick"])
}

fn profile() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    generated(&DIR, env!("CARGO_BIN_EXE_profile_report"), "profile", &["--quick"])
}

fn scaling() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    let args = ["mesh_scaling", "--quick", "--jobs", "2"];
    generated(&DIR, env!("CARGO_BIN_EXE_run_all"), "scaling", &args)
}

fn resilience() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    let args = ["resilience", "--quick", "--jobs", "2"];
    generated(&DIR, env!("CARGO_BIN_EXE_run_all"), "resilience", &args)
}

/// `results/json/<name>.json` under `dir`.
fn artifact_in(dir: &Path, name: &str) -> PathBuf {
    dir.join("results/json").join(format!("{name}.json"))
}

fn read(dir: &Path, name: &str) -> Json {
    read_file(artifact_in(dir, name)).unwrap()
}

fn at<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} in {}", v.line()))
}

fn num(v: &Json, key: &str) -> f64 {
    match at(v, key) {
        Json::Num(x) => *x,
        other => panic!("{key:?} is {}, not a number", other.line()),
    }
}

fn flag(v: &Json, key: &str) -> bool {
    match at(v, key) {
        Json::Bool(b) => *b,
        other => panic!("{key:?} is {}, not a boolean", other.line()),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    at(v, key).as_str().unwrap_or_else(|| panic!("{key:?} is not a string in {}", v.line()))
}

fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match at(v, key) {
        Json::Arr(items) => items,
        other => panic!("{key:?} is {}, not an array", other.line()),
    }
}

/// Every point of `fig7` (and of the combined `run_all` artifact) has a
/// positive latency with ordered percentiles, the runner recorded its two
/// jobs, and the one Static design serving three traces is selected once,
/// charged to the point that built it.
#[test]
fn fig7_points_have_ordered_percentiles_and_one_static_build() {
    for name in ["fig7", "run_all"] {
        let d = read(fig7(), name);
        let points = items(&d, "points");
        assert!(!points.is_empty(), "{name}: no points");
        assert_eq!(num(&d, "jobs"), 2.0, "{name}: jobs recorded wrong");
        for p in points {
            let id = text(p, "id");
            assert!(num(p, "avg_latency_cycles") > 0.0, "{name}: {id}");
            let (p50, p95, p99) = (
                num(p, "p50_latency_cycles"),
                num(p, "p95_latency_cycles"),
                num(p, "p99_latency_cycles"),
            );
            assert!(p50 <= p95 && p95 <= p99, "{name}: {id}: p50 {p50} p95 {p95} p99 {p99}");
        }
        let builds: Vec<f64> = points
            .iter()
            .filter(|p| text(p, "design") == "Static")
            .map(|p| num(p, "build_ms"))
            .collect();
        let built = builds.iter().filter(|&&b| b > 0.0).count();
        assert!(builds.len() == 3 && built == 1, "{name}: Static build_ms {builds:?}");
    }
}

/// The build stage (profiling plus selection) is about 0.06 of the
/// points' wall on fig7; 0.08 catches a per-pick or per-source-per-cycle
/// cost creeping back into it. Release binaries only.
#[test]
#[ignore]
fn fig7_build_stage_is_under_eight_percent_of_the_wall() {
    for name in ["fig7", "run_all"] {
        let points = read(fig7(), name);
        let points = items(&points, "points");
        let build: f64 = points.iter().map(|p| num(p, "build_ms")).sum();
        let wall: f64 = points.iter().map(|p| num(p, "wall_ms")).sum();
        assert!(
            build <= 0.08 * wall,
            "{name}: build stage is {:.3} of the points' wall",
            build / wall
        );
    }
}

/// Both standard-telemetry artifacts: the 10×10 shape of every per-link
/// and per-router vector, the destination counts summing to the completed
/// messages, samples that tile the run, and a span digest.
#[test]
fn telemetry_samples_tile_the_run() {
    for name in ["TELEMETRY_congestion", "TELEMETRY_fault_timeline"] {
        let d = read(telemetry(), name);
        assert_eq!(text(&d, "name"), name);
        assert!(!flag(&d, "profile"), "{name}: standard telemetry has no per-hop profile");
        assert!(num(&d, "interval") > 0.0 && num(&d, "routers") == 100.0, "{name}");
        assert_eq!(items(&d, "link_grants").len(), 600, "{name}");
        assert_eq!(items(&d, "link_utilization").len(), 600, "{name}");
        assert_eq!(items(&d, "per_source").len(), 100, "{name}");
        let per_dest = items(&d, "per_dest");
        assert_eq!(per_dest.len(), 100, "{name}");
        let delivered: f64 = per_dest
            .iter()
            .map(|v| match v {
                Json::Num(x) => *x,
                other => panic!("{name}: per_dest entry {}", other.line()),
            })
            .sum();
        assert_eq!(delivered, num(&d, "completed_messages"), "{name}");
        let samples = items(&d, "samples");
        assert!(!samples.is_empty(), "{name}: no samples");
        let mut at_cycle = 0.0;
        for s in samples {
            assert!(num(s, "start") == at_cycle && num(s, "cycles") > 0.0, "{name}: {}", s.line());
            assert_eq!(items(s, "latency_hist").len(), 8, "{name}: {}", s.line());
            at_cycle += num(s, "cycles");
        }
        assert_eq!(at_cycle, num(&d, "end_cycle"), "{name}: samples do not tile the run");
        let spans = at(&d, "spans");
        assert!(num(spans, "recorded") > 0.0, "{name}: {}", spans.line());
        assert!(num(spans, "completed") <= num(spans, "recorded"), "{name}: {}", spans.line());
    }
    let congestion = read(telemetry(), "TELEMETRY_congestion");
    assert!(flag(&congestion, "saturated"), "congestion scenario must saturate");
}

/// The fault timeline records the band failing, and no RF grant happens
/// in any interval that starts after it.
#[test]
fn fault_timeline_shows_the_band_down_and_rf_silent_after() {
    let d = read(telemetry(), "TELEMETRY_fault_timeline");
    let down = items(&d, "events")
        .iter()
        .find(|e| text(e, "kind").contains("BandDown"))
        .unwrap_or_else(|| panic!("no BandDown event: {}", at(&d, "events").line()));
    let fault_cycle = num(down, "cycle");
    let post: Vec<&Json> =
        items(&d, "samples").iter().filter(|s| num(s, "start") > fault_cycle).collect();
    assert!(!post.is_empty(), "no interval after the BandDown at {fault_cycle}");
    for s in post {
        assert_eq!(num(s, "rf_grants"), 0.0, "RF should be dead after BandDown: {}", s.line());
    }
}

/// Each run's delay attribution reconciles: the seven components sum to
/// the total and to the recorded component sum, over a positive packet
/// count; each artifact compares some shortcut-covered pairs. At
/// saturation RF shortcuts cut the per-packet VA+SA contention on the
/// pairs they cover (at low load there is none to cut).
#[test]
fn profile_attribution_reconciles_and_rf_reduces_contention() {
    const PARTS: [&str; 7] =
        ["source_queue", "route", "va_wait", "switch", "sa_wait", "link", "tail_serialization"];
    for name in ["PROFILE_lowload", "PROFILE_congestion"] {
        let d = read(profile(), name);
        assert_eq!(text(&d, "name"), name);
        let runs = items(&d, "runs");
        assert!(!runs.is_empty(), "{name}: no runs");
        for run in runs {
            let label = text(run, "label");
            let att = at(run, "attribution");
            let parts: f64 = PARTS.iter().map(|k| num(att, k)).sum();
            assert!(
                parts == num(att, "total_cycles") && parts == num(att, "component_sum"),
                "{name}/{label}: attribution components {parts} != {}",
                att.line()
            );
            assert!(num(att, "packets") > 0.0, "{name}/{label}: no packets attributed");
        }
        let covered = at(&d, "covered_pair_comparison");
        assert!(num(covered, "pairs") > 0.0, "{name}: no shortcut-covered pairs");
    }
    let congestion = read(profile(), "PROFILE_congestion");
    let c = at(&congestion, "covered_pair_comparison");
    assert!(
        flag(c, "rf_reduces_contention"),
        "RF should lower contention at saturation: mesh {} vs rf {}",
        num(c, "mesh_avg_contention"),
        num(c, "rf_avg_contention")
    );
}

/// The Perfetto trace: complete spans with a non-negative start and at
/// least one cycle, the fault run's timeline instants, and metadata
/// naming only processes and threads.
#[test]
fn perfetto_trace_has_spans_instants_and_names() {
    let t = read(profile(), "PROFILE_trace");
    let events = items(&t, "traceEvents");
    assert!(!events.is_empty(), "empty trace");
    let phases: BTreeSet<&str> = events.iter().map(|e| text(e, "ph")).collect();
    assert!(phases.is_subset(&["X", "i", "M"].into()), "{phases:?}");
    for e in events.iter().filter(|e| text(e, "ph") == "X") {
        assert!(num(e, "ts") >= 0.0 && num(e, "dur") >= 1.0, "{}", e.line());
    }
    assert!(events.iter().any(|e| text(e, "ph") == "i"), "fault run must emit timeline instants");
    let names: BTreeSet<&str> =
        events.iter().filter(|e| text(e, "ph") == "M").map(|e| text(e, "name")).collect();
    assert!(names.is_subset(&["process_name", "thread_name"].into()), "{names:?}");
}

/// Quick mode covers the paper grid and 32×32, both fabrics, with and
/// without the RF overlay; every point ran, measured a positive rate and
/// did not saturate, and every RF point placed shortcuts.
#[test]
fn mesh_scaling_covers_both_sizes_fabrics_and_designs() {
    let d = read(scaling(), "BENCH_mesh_scaling");
    assert_eq!(text(&d, "name"), "BENCH_mesh_scaling");
    assert!(flag(&d, "quick"));
    let points = items(&d, "points");
    let key = |p: &Json| {
        (num(p, "side") as u64, text(p, "fabric").to_string(), text(p, "design").to_string())
    };
    let keys: BTreeSet<_> = points.iter().map(key).collect();
    for side in [10, 32] {
        for fabric in ["mesh", "ring"] {
            for design in ["mesh-only", "rf"] {
                let k = (side, fabric.to_string(), design.to_string());
                assert!(keys.contains(&k), "{k:?} missing");
            }
        }
    }
    for p in points {
        let k = key(p);
        assert!(num(p, "avg_latency_cycles") > 0.0, "{k:?}");
        assert!(num(p, "cycles_per_sec") > 0.0 && num(p, "flit_grants_per_sec") > 0.0, "{k:?}");
        assert!(num(p, "sim_wall_ms") > 0.0, "{k:?}");
        assert!(!flag(p, "saturated"), "{k:?}");
        if k.2 == "rf" {
            assert!(num(p, "shortcuts") > 0.0, "{k:?}");
        }
    }
}

/// Selection plus table build keep the 32×32 RF set-up in seconds: 20 s
/// is a catastrophic-regression guard with CI headroom, not a
/// microbenchmark gate (one box sets it up in well under a second). And a
/// baseline ring-mesh must not cost a walk per router pair: its base route
/// is a closed form over two routers' places. Both fabrics build near a
/// millisecond; the 5 ms floor keeps scheduler noise out while a per-pair
/// table, 41 ms, still trips it. Release binaries only.
#[test]
#[ignore]
fn mesh_scaling_32x32_set_up_stays_in_budget() {
    let d = read(scaling(), "BENCH_mesh_scaling");
    let side32: Vec<&Json> =
        items(&d, "points").iter().filter(|p| num(p, "side") == 32.0).collect();
    let worst =
        side32.iter().map(|p| num(p, "build_ms") + num(p, "network_new_ms")).fold(0.0, f64::max);
    assert!(worst < 20_000.0, "32x32 selection + network build took {worst:.0} ms");
    let new_ms = |fabric: &str| {
        let p = side32
            .iter()
            .find(|p| text(p, "design") == "mesh-only" && text(p, "fabric") == fabric)
            .unwrap_or_else(|| panic!("no 32x32 mesh-only {fabric} point"));
        num(p, "network_new_ms")
    };
    let (mesh, ring) = (new_ms("mesh"), new_ms("ring"));
    assert!(ring <= 3.0 * mesh.max(5.0), "network_new_ms: mesh {mesh}, ring {ring}");
}

/// The resilience campaign's summary: the three fault profiles, each with
/// a fault-free rung at exactly 1.0× latency and no recoveries, and
/// faulted rungs whose every recovery was measured through drain,
/// rewrite and convergence; a worst-case replay ID per profile; and the
/// headline ordering, the adversarial profile saturating no later than
/// the expected one. The fault-free and the faulted run of a (profile,
/// load) share one profile and one selection: 12 points, 6 designs, each
/// charged to the one point that built it.
#[test]
fn resilience_campaign_measures_every_faulted_rung() {
    let d = read(resilience(), "RESILIENCE_resilience");
    assert_eq!(text(&d, "name"), "RESILIENCE_resilience");
    assert!(flag(&d, "quick"));
    let profiles = items(&d, "profiles");
    let ids: BTreeSet<&str> = profiles.iter().map(|p| text(p, "id")).collect();
    assert_eq!(ids, ["expected", "stress", "adversarial"].into());
    for p in profiles {
        let pid = text(p, "id");
        let rungs = items(p, "degradation");
        let clean = rungs
            .iter()
            .find(|r| text(r, "id") == "0.0")
            .unwrap_or_else(|| panic!("{pid}: missing fault-free rung"));
        assert!(rungs.iter().any(|r| text(r, "id") != "0.0"), "{pid}: no faulted rung");
        assert_eq!(num(clean, "mean_norm_latency"), 1.0, "{pid}: {}", clean.line());
        assert_eq!(num(clean, "recovery_records"), 0.0, "{pid}: {}", clean.line());
        for r in rungs {
            let rid = text(r, "id");
            assert!(num(r, "runs") > 0.0, "{pid}/{rid}");
            let completion = num(r, "mean_completion_rate");
            assert!((0.0..=1.0).contains(&completion), "{pid}/{rid}: {completion}");
            if rid != "0.0" {
                assert!(num(r, "recovery_records") > 0.0, "{pid}/{rid}");
                assert!(num(r, "recovery_converged") > 0.0, "{pid}/{rid}");
                assert_ne!(*at(r, "mean_rewrite_cycles"), Json::Null, "{pid}/{rid}");
                assert_ne!(*at(r, "max_convergence_cycles"), Json::Null, "{pid}/{rid}");
            }
        }
        assert!(!text(p, "worst_point").is_empty(), "{pid}: no worst-case replay ID");
    }
    assert!(flag(&d, "adversarial_saturates_no_later"), "{}", d.line());

    let points = read(resilience(), "resilience");
    let points = items(&points, "points");
    let built: Vec<&str> =
        points.iter().filter(|p| num(p, "build_ms") > 0.0).map(|p| text(p, "id")).collect();
    assert!(points.len() == 12 && built.len() == 6, "{} points, built {built:?}", points.len());
}

/// The campaign artifact carries no wall times: a second run with the same
/// seeds reproduces it, so a zero-threshold compare finds no difference.
#[test]
fn resilience_campaign_reruns_identically() {
    let first = artifact_in(resilience(), "RESILIENCE_resilience");
    let dir = common::scratch_dir("quick_artifacts/resilience_rerun");
    let args = ["resilience", "--quick", "--jobs", "2", "--quiet"];
    let (code, _, stderr) = common::spawn(env!("CARGO_BIN_EXE_run_all"), &dir, &args);
    assert_eq!(code, 0, "{stderr}");
    let second = artifact_in(&dir, "RESILIENCE_resilience");
    let breaches =
        rfnoc::compare::compare_files(first.to_str().unwrap(), second.to_str().unwrap(), 0.0);
    assert_eq!(breaches, Ok(0));
}
