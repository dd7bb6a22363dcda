//! End-to-end tests of the run ledger through the bench runner: a plan
//! executed with `--ledger` must write a JSONL file whose every line
//! parses, whose point lifecycle is balanced, and whose engine heartbeat
//! and shard records ride the same timeline — and the instrumented run's
//! statistics must be bit-identical to an uninstrumented one.

use rfnoc::json::{parse, Json};
use rfnoc::ledger::LedgerSummary;
use rfnoc::{Architecture, WorkloadSpec};
use rfnoc_bench::plan::{labeled, Design, Plan, SweepSpec};
use rfnoc_bench::runner::{run_plan, RunnerConfig};
use rfnoc_power::LinkWidth;
use rfnoc_sim::SimConfig;
use rfnoc_traffic::TraceKind;
use std::collections::BTreeSet;

fn small_plan() -> Plan {
    let mut sim = SimConfig::paper_baseline();
    sim.warmup_cycles = 200;
    sim.measure_cycles = 1_500;
    sim.drain_cycles = 500;
    SweepSpec::new("ledger_e2e")
        .designs(vec![
            Design::new("base", Architecture::Baseline, LinkWidth::B4),
            Design::new("static", Architecture::StaticShortcuts, LinkWidth::B4),
        ])
        .workloads(vec![
            labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform)),
            labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1)),
        ])
        .sims(vec![labeled("short", sim)])
        .expand()
}

fn temp_ledger(name: &str) -> String {
    let dir = std::env::temp_dir().join("rfnoc_ledger_e2e");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{name}.jsonl")).to_str().unwrap().to_string()
}

/// The written ledger parses line-by-line, the lifecycle is balanced
/// (every unique point queued, started, and finished; plan bracketed by
/// `plan_start`/`plan_finish`), engine heartbeats are present and
/// well-formed per point, and — at `sim_threads > 1` — shard records
/// appear. [`LedgerSummary`] is the same reader `rfnoc-cli tail` and
/// `ledger-summary` use, so this is the full schema round-trip; the raw
/// lines are checked on their own as well.
#[test]
fn runner_ledger_schema_roundtrip() {
    let path = temp_ledger("roundtrip");
    let plan = small_plan();
    let cfg = RunnerConfig {
        jobs: 2,
        sim_threads: 4,
        quiet: true,
        ledger: Some(path.clone()),
        ..RunnerConfig::default()
    };
    let results = run_plan(&plan, &cfg);
    assert_eq!(results.results.len(), plan.len());

    let summary = LedgerSummary::from_file(&path).expect("ledger parses");
    assert!(summary.problems.is_empty(), "schema problems: {:?}", summary.problems);
    let unique = results.unique_runs as f64;
    assert_eq!(summary.points_planned, Some(unique));
    assert_eq!(summary.points_queued, results.unique_runs);
    assert_eq!(summary.points_started, results.unique_runs);
    assert_eq!(summary.points_finished, results.unique_runs);
    assert_eq!(summary.point_wall_ms.len(), results.unique_runs);
    assert!(summary.plan_wall_ms.is_some(), "plan_finish must close the stream");
    assert!(summary.heartbeats >= results.unique_runs, "each run heartbeats at least once");
    assert!(summary.kcps_mean() > 0.0);
    assert!(!summary.shards.is_empty(), "sharded runs must stream shard records");
    assert!(summary.shard_imbalance().is_some());
    assert!(summary.barrier_wait_frac().is_some());

    check_raw_lines(&std::fs::read_to_string(&path).unwrap(), 4);
    let _ = std::fs::remove_file(&path);
}

/// The ledger's lines as written, without [`LedgerSummary`]: `t_ms`
/// never falls; `plan_start` opens the stream with the engine's thread
/// count and `plan_finish` closes it; every unique point is queued,
/// started and finished exactly once, each finish with a positive wall;
/// every point heartbeats; and the shard records name exactly shards
/// `0..sim_threads`, which swept some routers.
fn check_raw_lines(ledger: &str, sim_threads: u64) {
    let recs: Vec<Json> = ledger.lines().map(|l| parse(l).expect(l)).collect();
    assert!(!recs.is_empty(), "empty ledger");
    let num = |r: &Json, key: &str| match r.get(key) {
        Some(Json::Num(x)) => *x,
        _ => panic!("no number {key:?} in {}", r.line()),
    };
    let text = |r: &Json, key: &str| -> String {
        r.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no {key:?} in {}", r.line()))
            .into()
    };
    let mut last_t = 0.0;
    for r in &recs {
        let t = num(r, "t_ms");
        assert!(t >= last_t - 1e-9, "t_ms fell from {last_t}: {}", r.line());
        last_t = t;
    }
    let kinds: Vec<String> = recs.iter().map(|r| text(r, "kind")).collect();
    assert_eq!(kinds[0], "plan_start");
    assert_eq!(kinds[kinds.len() - 1], "plan_finish");
    let unique = num(&recs[0], "unique") as usize;
    assert_eq!(num(&recs[0], "sim_threads"), sim_threads as f64, "{}", recs[0].line());
    for kind in ["point_queued", "point_start", "point_finish"] {
        let n = kinds.iter().filter(|k| *k == kind).count();
        assert_eq!(n, unique, "{kind}: {n} records for {unique} points");
    }
    let of_kind = |kind: &'static str| recs.iter().filter(move |r| text(r, "kind") == kind);
    for r in of_kind("point_finish") {
        assert!(num(r, "wall_ms") > 0.0, "{}", r.line());
    }
    let heartbeating: BTreeSet<String> = of_kind("heartbeat").map(|r| text(r, "point")).collect();
    assert_eq!(heartbeating.len(), unique, "heartbeats from {heartbeating:?}");
    let shards: BTreeSet<u64> = of_kind("shard").map(|r| num(r, "shard") as u64).collect();
    assert_eq!(shards, (0..sim_threads).collect(), "shard records at {sim_threads} sim threads");
    assert!(of_kind("shard").map(|r| num(r, "swept_routers")).sum::<f64>() > 0.0);
}

/// Runner-level inertness: running the same plan with and without the
/// ledger produces bit-identical statistics for every point (the ledger
/// report itself aside), serial and sharded.
#[test]
fn ledger_does_not_change_runner_results() {
    let plan = small_plan();
    for sim_threads in [1usize, 2] {
        let plain = run_plan(
            &plan,
            &RunnerConfig { jobs: 2, sim_threads, quiet: true, ..RunnerConfig::default() },
        );
        let path = temp_ledger(&format!("inert_t{sim_threads}"));
        let ledgered = run_plan(
            &plan,
            &RunnerConfig {
                jobs: 2,
                sim_threads,
                quiet: true,
                ledger: Some(path.clone()),
                ..RunnerConfig::default()
            },
        );
        for (a, b) in plain.iter().zip(ledgered.iter()) {
            assert_eq!(a.point.id, b.point.id);
            let mut sa = a.report.stats.clone();
            let mut sb = b.report.stats.clone();
            assert!(sb.ledger.is_some(), "{}: ledgered run carries a report", b.point.id);
            sa.ledger = None;
            sb.ledger = None;
            assert_eq!(sa, sb, "ledger perturbed {} at {sim_threads} sim threads", a.point.id);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// `--quiet` plus `--ledger`: the quiet flag silences stderr only — the
/// ledger file must still be written in full.
#[test]
fn quiet_still_writes_the_ledger() {
    let path = temp_ledger("quiet");
    let plan = small_plan();
    let cfg = RunnerConfig {
        jobs: 1,
        quiet: true,
        ledger: Some(path.clone()),
        ..RunnerConfig::default()
    };
    let _ = run_plan(&plan, &cfg);
    let summary = LedgerSummary::from_file(&path).expect("ledger parses");
    assert!(summary.records > 0, "quiet must not suppress the ledger file");
    assert!(summary.plan_wall_ms.is_some());
    let _ = std::fs::remove_file(&path);
}

/// Blocking HTTP GET against the observatory server; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// Full observatory e2e: a plan run with `--obs-port 0` serves
/// `/healthz`, a `/metrics` exposition carrying the headline series, and
/// an `/events` SSE replay whose data frames are exactly the records in
/// the ledger file — file and socket tee from one sink.
#[test]
fn obs_endpoints_mirror_the_ledger_file() {
    let path = temp_ledger("obs_e2e");
    let plan = small_plan();
    let cfg = RunnerConfig {
        jobs: 2,
        sim_threads: 2,
        quiet: true,
        ledger: Some(path.clone()),
        obs_port: Some(0),
    };
    let sink = rfnoc_bench::ledger::LedgerSink::from_config(&cfg);
    let addr = sink.obs_addr().expect("obs server bound");
    let results = rfnoc_bench::runner::run_plan_with(&plan, &cfg, &sink);
    assert_eq!(results.results.len(), plan.len());

    assert_eq!(http_get(addr, "/healthz"), "ok\n");
    let metrics = http_get(addr, "/metrics");
    for series in [
        "rfnoc_kcycles_per_sec",
        "rfnoc_in_flight",
        "rfnoc_shard_imbalance",
        "rfnoc_points_finished",
        "rfnoc_ledger_records",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }

    // The SSE replay starts from record zero, so attaching after the run
    // still yields the full stream; dropping the sink closes the hub and
    // terminates the stream with an `event: end`.
    let events = std::thread::spawn(move || http_get(addr, "/events"));
    drop(sink);
    let sse = events.join().expect("events reader");
    assert!(sse.contains("event: end"), "stream must terminate:\n{sse}");
    let streamed: Vec<&str> = sse
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .filter(|l| l.starts_with('{'))
        .collect();
    let file = std::fs::read_to_string(&path).expect("ledger file");
    let on_disk: Vec<&str> = file.lines().collect();
    assert_eq!(streamed, on_disk, "socket and file must see the same records");
    let _ = std::fs::remove_file(&path);
}
