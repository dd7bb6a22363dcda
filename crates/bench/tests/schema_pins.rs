//! Schema pins: the key names, nesting, id-keying, key order and (on
//! fixed inputs) values of every JSON artifact and ledger record the
//! harness writes, compared leaf by leaf against `tests/pins/*.txt`.
//!
//! A pin file holds one `path = value` line per leaf in document order;
//! arrays of objects that all carry a string `"id"` are keyed by it, like
//! `rfnoc::compare::flatten`. Numbers are compared at four decimals.
//! Leaves that differ between any two runs (wall times, timestamps, git,
//! the host's thread count) are pinned as `*`: present, value free.
//!
//! `PIN_BLESS=1 cargo test -p rfnoc-bench --test schema_pins` rewrites
//! the files — only for an intended schema change.

use rfnoc::json::{parse, Json};
use rfnoc::ledger::LedgerSummary;
use rfnoc::{Architecture, WorkloadSpec};
use rfnoc_bench::artifact;
use rfnoc_bench::campaign::{
    self, CampaignSummary, IntensitySummary, MeanMax, ProfileSummary,
    RecoveryAggregate,
};
use rfnoc_bench::plan::{labeled, BaselineSel, Design, Plan, SweepSpec};
use rfnoc_bench::profile::{self, ProfiledRun};
use rfnoc_bench::runner::{run_plan, RunnerConfig};
use rfnoc_bench::telemetry;
use rfnoc_power::LinkWidth;
use rfnoc_sim::{
    FaultEvent, FaultPlan, LedgerRecord, MessageClass, MessageSpec, Network, NetworkSpec,
    RunStats, ScriptedWorkload, SimConfig, TelemetryConfig, TimelineEventKind,
};
use rfnoc_topology::{GridDims, Shortcut};
use rfnoc_traffic::{Profile, TraceKind};
use std::fmt::Write as _;

/// Leaves whose value depends on the host or the clock.
fn volatile(key: &str) -> bool {
    matches!(key, "git" | "generated_unix" | "jobs" | "t_ms" | "build_ms")
        || key.contains("wall_ms")
}

fn walk(value: &Json, path: &str, key: &str, volatile: fn(&str) -> bool, out: &mut String) {
    match value {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                walk(v, &sub, k, volatile, out);
            }
        }
        Json::Arr(items) => {
            let by_id = !items.is_empty()
                && items.iter().all(|i| i.get("id").and_then(Json::as_str).is_some());
            for (idx, item) in items.iter().enumerate() {
                let slot = match item.get("id").and_then(Json::as_str) {
                    Some(id) if by_id => id.to_string(),
                    _ => idx.to_string(),
                };
                walk(item, &format!("{path}[{slot}]"), key, volatile, out);
            }
            if items.is_empty() {
                let _ = writeln!(out, "{path} = []");
            }
        }
        leaf => {
            let value = match leaf {
                _ if volatile(key) => "*".to_string(),
                Json::Num(v) => format!("{v:.4}"),
                Json::Str(s) => format!("{s:?}"),
                Json::Bool(b) => b.to_string(),
                _ => "null".to_string(),
            };
            let _ = writeln!(out, "{path} = {value}");
        }
    }
}

fn leaves_with(text: &str, volatile: fn(&str) -> bool) -> String {
    let doc = parse(text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    let mut out = String::new();
    walk(&doc, "", "", volatile, &mut out);
    out
}

/// Every leaf of `text` as `path = value` lines, in document order.
fn leaves(text: &str) -> String {
    leaves_with(text, volatile)
}

/// [`leaves`] of a document built from fixed inputs only: no leaf is a
/// clock reading, every value is pinned.
fn leaves_fixed(text: &str) -> String {
    leaves_with(text, |_| false)
}

fn check_pin(name: &str, got: &str) {
    rfnoc_pins::check_document(env!("CARGO_MANIFEST_DIR"), name, got);
}

fn short_sim() -> SimConfig {
    let mut sim = SimConfig::paper_baseline();
    sim.warmup_cycles = 200;
    sim.measure_cycles = 1_500;
    sim.drain_cycles = 4_000;
    sim
}

fn small_plan() -> Plan {
    SweepSpec::new("pins")
        .designs(vec![
            Design::new("base", Architecture::Baseline, LinkWidth::B16),
            Design::new("static", Architecture::StaticShortcuts, LinkWidth::B4),
        ])
        .workloads(vec![labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform))])
        .sims(vec![labeled("short", short_sim())])
        .baseline(BaselineSel::design("base"))
        .expand()
}

#[test]
fn plan_artifact() {
    let cfg = RunnerConfig { jobs: 1, quiet: true, ..RunnerConfig::default() };
    let results = run_plan(&small_plan(), &cfg);
    check_pin("plan_artifact", &leaves(&artifact::render_json("pins", &results)));
}

/// A 4×4 mesh with two shortcuts, a band failure mid-run, and telemetry
/// (profiling channel on) — feeds the telemetry and profile artifacts.
fn observed_run() -> RunStats {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 400;
    cfg.drain_cycles = 5_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(128));
    let dims = GridDims::new(4, 4);
    let spec = NetworkSpec::with_shortcuts(
        dims,
        cfg,
        vec![Shortcut::new(0, 15), Shortcut::new(15, 0)],
    )
    .with_fault_plan(FaultPlan::new(vec![(300, FaultEvent::BandDown)]));
    // dst = 5·src+1 mod 16 never equals src (4·src+1 is odd).
    let mut events: Vec<(u64, MessageSpec)> = (0..60u64)
        .map(|i| {
            let src = (i % 16) as usize;
            let dst = ((i * 5 + 1) % 16) as usize;
            (i * 4, MessageSpec::unicast(src, dst, MessageClass::Data))
        })
        .collect();
    events.extend((0..30u64).map(|i| (i * 8, MessageSpec::unicast(0, 15, MessageClass::Data))));
    events.sort_by_key(|&(t, _)| t);
    Network::new(spec).run(&mut ScriptedWorkload::new(events))
}

#[test]
fn telemetry_artifact() {
    let stats = observed_run();
    let report = stats.telemetry.as_ref().expect("telemetry on");
    check_pin(
        "telemetry_artifact",
        &leaves(&telemetry::render_json("TELEMETRY_pins", &stats, report)),
    );
}

#[test]
fn profile_artifact() {
    let stats = observed_run();
    let report = stats.telemetry.as_ref().expect("telemetry on");
    let runs = [
        ProfiledRun { label: "mesh", arch: "Baseline".into(), stats: &stats, report },
        ProfiledRun { label: "rf", arch: "Static".into(), stats: &stats, report },
    ];
    check_pin(
        "profile_artifact",
        &leaves(&profile::render_json("PROFILE_pins", 0.05, &runs)),
    );
}

#[test]
fn resilience_artifact() {
    let rung = |label: &str, recovery: RecoveryAggregate| IntensitySummary {
        label: label.into(),
        runs: 2,
        saturated_runs: 1,
        mean_norm_latency: 1.234_56,
        max_norm_latency: 2.5,
        mean_completion: 0.987_654,
        recovery,
    };
    let faulted = RecoveryAggregate {
        records: 3,
        converged: 2,
        drain: MeanMax { count: 3, sum: 100, max: 50 },
        rewrite: MeanMax { count: 3, sum: 30, max: 12 },
        convergence: MeanMax { count: 2, sum: 801, max: 600 },
    };
    let summary = CampaignSummary {
        profiles: vec![
            ProfileSummary {
                profile: Profile::Expected,
                saturation_rate: None,
                worst_point: None,
                worst_norm_latency: 1.0,
                degradation: vec![rung("0.0", RecoveryAggregate::default())],
            },
            ProfileSummary {
                profile: Profile::Adversarial,
                saturation_rate: Some(0.02),
                worst_point: Some("resilience/adaptive/\"adversarial\" s1".into()),
                worst_norm_latency: 2.5,
                degradation: vec![
                    rung("0.0", RecoveryAggregate::default()),
                    rung("1.0", faulted),
                ],
            },
        ],
        degradation_delta: 1.5,
        adversarial_saturates_no_later: true,
    };
    check_pin(
        "resilience_artifact",
        &leaves(&campaign::resilience_artifact("RESILIENCE_pins", true, &summary).pretty()),
    );
}

const LEDGER: &str = concat!(
    "{\"t_ms\": 0.100, \"kind\": \"plan_start\", \"points\": 4, \"unique\": 3, ",
    "\"dedup_hits\": 1, \"jobs\": 2, \"sim_threads\": 4}\n",
    "{\"t_ms\": 0.200, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
    "{\"t_ms\": 0.300, \"kind\": \"point_start\", \"point\": \"a\"}\n",
    "{\"t_ms\": 1.000, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 2000, ",
    "\"cycles\": 2000, \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, ",
    "\"in_flight\": 5, \"completed\": 10, \"active_routers\": 16}\n",
    "{\"t_ms\": 1.100, \"point\": \"a\", \"kind\": \"shard\", \"cycle\": 2000, ",
    "\"shard\": 0, \"swept_routers\": 900, \"sweep_ms\": 3.0, ",
    "\"barrier_ms\": 1.0, \"replay_ops\": 40}\n",
    "{\"t_ms\": 1.200, \"point\": \"a\", \"kind\": \"shard\", \"cycle\": 2000, ",
    "\"shard\": 1, \"swept_routers\": 700, \"sweep_ms\": 1.0, ",
    "\"barrier_ms\": 3.0, \"replay_ops\": 20}\n",
    "{\"t_ms\": 1.500, \"point\": \"a\", \"kind\": \"event\", \"cycle\": 2100, ",
    "\"event\": \"fault\", \"detail\": \"ShortcutDown { id: 3 }\"}\n",
    "{\"t_ms\": 2.000, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 3500, ",
    "\"cycles\": 1500, \"wall_ms\": 1.5, \"kcycles_per_sec\": 300.0, ",
    "\"in_flight\": 2, \"completed\": 40, \"active_routers\": 12}\n",
    "{\"t_ms\": 2.500, \"kind\": \"point_finish\", \"point\": \"a\", ",
    "\"wall_ms\": 2.2, \"avg_latency\": 21.5, \"saturated\": false, ",
    "\"healthy\": true}\n",
    "{\"t_ms\": 3.000, \"kind\": \"plan_finish\", \"points\": 4, \"unique\": 3, ",
    "\"wall_ms\": 2.9, \"points_wall_ms\": 2.2}\n",
);

#[test]
fn ledger_summary_report() {
    let summary = LedgerSummary::from_text(LEDGER).unwrap();
    check_pin("ledger_summary_report", &leaves_fixed(&summary.render_json()));
}

#[test]
fn engine_ledger_records() {
    let event = |kind| LedgerRecord::Event { cycle: 123, kind };
    let records = [
        LedgerRecord::Heartbeat {
            cycle: 1000,
            cycles: 500,
            wall_ms: 1.25,
            kcycles_per_sec: 400.0,
            in_flight: 7,
            completed: 93,
            active_routers: 64,
        },
        LedgerRecord::Shard {
            cycle: 1000,
            shard: 3,
            swept_routers: 1200,
            sweep_ms: 0.5,
            barrier_ms: 0.123_456,
            replay_ops: 42,
        },
        event(TimelineEventKind::Fault(FaultEvent::MeshLinkDown { a: 14, b: 15 })),
        event(TimelineEventKind::RetuneApplied { installed: 5 }),
        event(TimelineEventKind::TablesRewritten),
        event(TimelineEventKind::RecoveryConverged { fault_cycle: 100, after: 23 }),
        event(TimelineEventKind::WatchdogFired),
    ];
    let mut got = String::new();
    for r in &records {
        got.push_str(&leaves_fixed(&rfnoc::ledger::record_json(r).line()));
        got.push('\n');
    }
    check_pin("engine_ledger_records", &got);
}

/// The key list, in order, of each record kind on a runner-written
/// ledger: lifecycle records from the runner, engine records forwarded
/// with their point tag, all stamped by the sink.
#[test]
fn runner_ledger_stream() {
    let path = std::env::temp_dir().join("rfnoc_schema_pins_runner.jsonl");
    let cfg = RunnerConfig {
        jobs: 1,
        sim_threads: 2,
        quiet: true,
        ledger: Some(path.to_str().unwrap().to_string()),
        obs_port: None,
    };
    let mut plan = small_plan();
    for point in &mut plan.points {
        point.experiment.faults = rfnoc::FaultSpec::Correlated { seed: 7, intensity: 1.0 };
    }
    run_plan(&plan, &cfg);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut shapes: Vec<String> = Vec::new();
    for line in text.lines() {
        let Json::Obj(fields) = parse(line).unwrap() else { panic!("{line}") };
        let kind = fields.iter().find(|(k, _)| k == "kind").unwrap().1.as_str().unwrap();
        let tag = match fields.iter().find(|(k, _)| k == "event") {
            Some((_, event)) => format!("{kind}/{}", event.as_str().unwrap()),
            None => kind.to_string(),
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let shape = format!("{tag}: {}", keys.join(" "));
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    shapes.sort();
    check_pin("runner_ledger_stream", &(shapes.join("\n") + "\n"));
}
