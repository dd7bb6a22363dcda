//! `rfnoc-cli` — command-line front end for the RF-I NoC reproduction.
//!
//! ```text
//! rfnoc-cli run <arch> <width> <workload> [fault flags]
//!                                            simulate one design point
//! rfnoc-cli compare <workload>               baseline vs static vs adaptive
//! rfnoc-cli compare <A.json> <B.json> [--threshold PCT]
//!                                            diff two result artifacts;
//!                                            exit 2 on a regression
//! rfnoc-cli sweep <arch> <workload>          16B/8B/4B width sweep
//! rfnoc-cli map <workload>                   adaptive shortcut map
//! rfnoc-cli tail <ledger.jsonl> [--follow] [--poll-ms N]
//!                                            live run-ledger summary
//! rfnoc-cli ledger-summary <ledger.jsonl>    ledger -> flat JSON report
//! rfnoc-cli info                             architecture & workload names
//! ```
//!
//! Fault flags (run only): `--fault-seed <n>`, `--shortcut-faults <f>`,
//! `--mesh-faults <f>`, `--glitches <f>`, `--repair-after <cycles>` —
//! expected event counts for a deterministic random fault plan spread
//! over the measurement window.
//!
//! Telemetry (run only): `--telemetry <interval>` enables the
//! interval-sampled telemetry layer and prints the per-interval timeline
//! (rates, RF grants, stalls, fault/retune events) after the report.
//!
//! Threads (run only): `--sim-threads <n>` steps the router sweep on `n`
//! worker threads (the sharded cycle engine). Results are bit-identical
//! at any thread count; `0` is rejected.
//!
//! Ledger: `tail` renders a compact live view of a run-ledger JSONL file
//! (written by the bench runner's `--ledger <name>` flag) — throughput
//! sparkline, slowest shard, imbalance ratio, ETA from the remaining plan
//! points; `--follow` re-renders as the file grows and exits once the
//! plan finishes. `ledger-summary` reduces a finished ledger to a flat
//! JSON report (metric names carry the `compare` direction keywords, so
//! two reports gate with `rfnoc-cli compare a.json b.json`); schema
//! problems go to stderr and exit code 2.

use rfnoc::{Architecture, Experiment, FaultSpec, RunReport, SystemConfig, WorkloadSpec};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{FaultRates, TelemetryConfig, TelemetryReport, TimelineEventKind};
use rfnoc_traffic::{AppProfile, Placement, TraceKind};
use std::process::ExitCode;

const ARCH_NAMES: &[&str] = &[
    "baseline",
    "static",
    "wire",
    "adaptive",
    "adaptive25",
    "vct",
    "mc",
    "mcsc",
];

fn parse_arch(name: &str) -> Option<Architecture> {
    Some(match name {
        "baseline" => Architecture::Baseline,
        "static" => Architecture::StaticShortcuts,
        "wire" => Architecture::WireShortcuts,
        "adaptive" => Architecture::AdaptiveShortcuts { access_points: 50 },
        "adaptive25" => Architecture::AdaptiveShortcuts { access_points: 25 },
        "vct" => Architecture::VctMulticast,
        "mc" => Architecture::RfMulticast { access_points: 50 },
        "mcsc" => {
            Architecture::AdaptiveWithMulticast { access_points: 50, shortcut_budget: 15 }
        }
        _ => return None,
    })
}

fn parse_width(name: &str) -> Option<LinkWidth> {
    Some(match name {
        "16" | "16B" | "16b" => LinkWidth::B16,
        "8" | "8B" | "8b" => LinkWidth::B8,
        "4" | "4B" | "4b" => LinkWidth::B4,
        _ => return None,
    })
}

fn parse_workload(name: &str) -> Option<WorkloadSpec> {
    if let Some(kind) =
        TraceKind::all().into_iter().find(|t| t.name().eq_ignore_ascii_case(name))
    {
        return Some(WorkloadSpec::Trace(kind));
    }
    if let Some(app) =
        AppProfile::paper_suite().into_iter().find(|p| p.name.eq_ignore_ascii_case(name))
    {
        return Some(WorkloadSpec::App(app));
    }
    // trace+mc20 / trace+mc50 forms
    if let Some((base, loc)) = name.split_once("+mc") {
        let kind = TraceKind::all()
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(base))?;
        let locality: f64 = loc.parse::<u32>().ok()? as f64 / 100.0;
        if !(0.0..=1.0).contains(&locality) || locality == 0.0 {
            return None;
        }
        return Some(WorkloadSpec::TraceWithMulticast {
            base: kind,
            locality,
            rate_per_cache: 0.001,
        });
    }
    None
}

/// Parses the optional fault flags that may follow `run`'s positionals.
///
/// Returns `None` on an unknown flag or malformed value.
fn parse_fault_flags(args: &[String]) -> Option<FaultSpec> {
    if args.is_empty() {
        return Some(FaultSpec::None);
    }
    let mut seed = 1u64;
    let mut rates = FaultRates::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--fault-seed" => seed = value.parse().ok()?,
            "--shortcut-faults" => rates.shortcut_failures = value.parse().ok()?,
            "--mesh-faults" => rates.mesh_link_failures = value.parse().ok()?,
            "--glitches" => rates.glitches = value.parse().ok()?,
            "--repair-after" => rates.repair_after = Some(value.parse().ok()?),
            _ => return None,
        }
    }
    Some(FaultSpec::Random { seed, rates })
}

fn report_line(report: &RunReport) {
    println!("{report}");
    println!("  power breakdown: {}", report.power);
    println!("  area breakdown:  {}", report.area);
    println!(
        "  avg hops {:.2}, completion {:.1}%, {} messages",
        report.stats.avg_hops(),
        report.stats.completion_rate() * 100.0,
        report.stats.completed_messages
    );
    let s = &report.stats;
    if s.shortcut_faults + s.mesh_link_faults + s.repairs + s.retransmitted_flits > 0 {
        println!(
            "  faults: {} shortcut, {} mesh link, {} repaired, {} flits retransmitted",
            s.shortcut_faults, s.mesh_link_faults, s.repairs, s.retransmitted_flits
        );
    }
}

fn run_one(arch: Architecture, width: LinkWidth, workload: WorkloadSpec) -> RunReport {
    Experiment::new(SystemConfig::new(arch, width), workload).run()
}

/// Prints the telemetry timeline: one row per interval (capped at 20
/// evenly spaced rows; event-bearing intervals always shown).
fn print_timeline(report: &TelemetryReport) {
    let event_label = |kind: &TimelineEventKind| match kind {
        TimelineEventKind::Fault(e) => format!("fault: {e:?}"),
        TimelineEventKind::RetuneApplied { installed } => {
            format!("retune_applied({installed} shortcuts)")
        }
        TimelineEventKind::TablesRewritten => "tables_rewritten".into(),
        TimelineEventKind::WatchdogFired => "watchdog_fired".into(),
        TimelineEventKind::RecoveryConverged { fault_cycle, after } => {
            format!("recovery_converged(fault@{fault_cycle} after {after})")
        }
    };
    println!(
        "  {:>16} {:>8} {:>8} {:>8} {:>8} {:>18}  events",
        "interval", "inj/cyc", "cmp/cyc", "rf/cyc", "peak-buf", "va/sa/credit"
    );
    let n = report.samples.len();
    let stride = n.div_ceil(20).max(1);
    for (i, s) in report.samples.iter().enumerate() {
        let events: Vec<String> =
            report.events_in_sample(i).map(|e| event_label(&e.kind)).collect();
        if i % stride != 0 && events.is_empty() && i + 1 != n {
            continue;
        }
        let cycles = s.cycles.max(1) as f64;
        let peak = s.buffered_peak.iter().copied().max().unwrap_or(0);
        println!(
            "  {:>16} {:>8.3} {:>8.3} {:>8.3} {:>8} {:>18}  {}",
            format!("[{}, {})", s.start, s.start + s.cycles),
            s.injected as f64 / cycles,
            s.completed_packets as f64 / cycles,
            s.rf_grants as f64 / cycles,
            peak,
            format!("{}/{}/{}", s.va_stalls, s.sa_stalls, s.credit_stalls),
            if events.is_empty() { "-".to_string() } else { events.join("; ") },
        );
    }
    let complete = report.spans.iter().filter(|s| s.is_complete()).count();
    println!(
        "  spans: {} recorded ({} complete, {} dropped), {} timeline events",
        report.spans.len(),
        complete,
        report.dropped_spans,
        report.events.len()
    );
}

fn cmd_run(args: &[String]) -> Option<ExitCode> {
    let [arch, width, workload, rest @ ..] = args else { return None };
    let mut experiment = Experiment::new(
        SystemConfig::new(parse_arch(arch)?, parse_width(width)?),
        parse_workload(workload)?,
    );
    // Peel off `--telemetry <interval>` and `--sim-threads <n>` before the
    // fault flags.
    let mut fault_args: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--telemetry" {
            let interval: u64 = it.next()?.parse().ok()?;
            if interval == 0 {
                return None;
            }
            experiment.system.sim.telemetry = Some(TelemetryConfig::every(interval));
        } else if flag == "--sim-threads" {
            let threads: usize = it.next()?.parse().ok()?;
            experiment.system.sim.threads = threads;
            if let Err(e) = experiment.system.sim.validate() {
                eprintln!("rfnoc-cli: {e}");
                return Some(ExitCode::FAILURE);
            }
        } else {
            fault_args.push(flag.clone());
        }
    }
    experiment.faults = parse_fault_flags(&fault_args)?;
    if let Err(e) = experiment.traffic.validate() {
        eprintln!("rfnoc-cli: {e}");
        return Some(ExitCode::FAILURE);
    }
    let report = experiment.run();
    report_line(&report);
    if let Some(tel) = &report.stats.telemetry {
        println!("telemetry ({} samples at interval {}):", tel.samples.len(), tel.interval);
        print_timeline(tel);
    }
    Some(ExitCode::SUCCESS)
}

/// `compare A.json B.json [--threshold PCT]`: diff two result artifacts
/// metric-by-metric; exit nonzero if any metric regressed past the
/// threshold (default 5%).
fn cmd_compare_files(args: &[String]) -> Option<ExitCode> {
    let [base, new, rest @ ..] = args else { return None };
    let threshold = match rest {
        [] => 5.0,
        [flag, value] if flag == "--threshold" => value.parse().ok().filter(|t| *t >= 0.0)?,
        _ => return None,
    };
    match rfnoc::compare::compare_files(base, new, threshold) {
        Ok(0) => Some(ExitCode::SUCCESS),
        Ok(_) => Some(ExitCode::from(2)),
        Err(e) => {
            eprintln!("compare: {e}");
            Some(ExitCode::FAILURE)
        }
    }
}

fn cmd_compare(args: &[String]) -> Option<ExitCode> {
    if args.len() >= 2 && args[..2].iter().all(|a| a.ends_with(".json")) {
        return cmd_compare_files(args);
    }
    let [workload] = args else { return None };
    let workload = parse_workload(workload)?;
    let baseline = run_one(Architecture::Baseline, LinkWidth::B16, workload.clone());
    report_line(&baseline);
    for (arch, width) in [
        (Architecture::StaticShortcuts, LinkWidth::B16),
        (Architecture::AdaptiveShortcuts { access_points: 50 }, LinkWidth::B16),
        (Architecture::AdaptiveShortcuts { access_points: 50 }, LinkWidth::B4),
    ] {
        let report = run_one(arch, width, workload.clone());
        let (lat, pow) = report.normalized_to(&baseline);
        report_line(&report);
        println!("  vs 16B baseline: {lat:.2}x latency, {pow:.2}x power");
    }
    Some(ExitCode::SUCCESS)
}

fn cmd_sweep(args: &[String]) -> Option<ExitCode> {
    let [arch, workload] = args else { return None };
    let arch = parse_arch(arch)?;
    let workload = parse_workload(workload)?;
    for width in LinkWidth::all() {
        report_line(&run_one(arch.clone(), width, workload.clone()));
    }
    Some(ExitCode::SUCCESS)
}

fn cmd_map(args: &[String]) -> Option<ExitCode> {
    let [workload] = args else { return None };
    let workload = parse_workload(workload)?;
    let system = SystemConfig::new(
        Architecture::AdaptiveShortcuts { access_points: 50 },
        LinkWidth::B16,
    );
    let built = Experiment::new(system, workload.clone()).build();
    let placement = Placement::paper_10x10();
    let dims = placement.dims();
    println!("adaptive shortcuts for {}:", workload.name());
    for s in &built.shortcuts {
        println!(
            "  {} -> {}  ({} hops)",
            dims.coord_of(s.src),
            dims.coord_of(s.dst),
            dims.manhattan(s.src, s.dst)
        );
    }
    Some(ExitCode::SUCCESS)
}

/// `tail <ledger.jsonl> [--follow] [--poll-ms N]`: renders the live
/// run-ledger summary. With `--follow`, re-renders whenever new records
/// land (polling every `--poll-ms` milliseconds, default 500; 0 is
/// rejected) and exits once the plan finishes.
fn cmd_tail(args: &[String]) -> Option<ExitCode> {
    let [path, rest @ ..] = args else { return None };
    let mut follow = false;
    let mut poll = std::time::Duration::from_millis(500);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--follow" {
            follow = true;
        } else if flag == "--poll-ms" {
            let ms: u64 = it.next()?.parse().ok()?;
            if ms == 0 {
                eprintln!("rfnoc-cli: {}", rfnoc_sim::ConfigError::ZeroPollInterval);
                return Some(ExitCode::from(2));
            }
            poll = std::time::Duration::from_millis(ms);
        } else {
            return None;
        }
    }
    let mut last_records = usize::MAX;
    loop {
        let summary = match rfnoc::ledger::LedgerSummary::from_file(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tail: {e}");
                return Some(ExitCode::FAILURE);
            }
        };
        if summary.records != last_records {
            last_records = summary.records;
            if follow {
                println!("--- {path} ---");
            }
            print!("{}", summary.render_tail());
        }
        if !follow || summary.plan_wall_ms.is_some() {
            return Some(ExitCode::SUCCESS);
        }
        std::thread::sleep(poll);
    }
}

/// `ledger-summary <ledger.jsonl>`: reduces a finished ledger to a flat
/// JSON report on stdout. Schema problems (non-monotone heartbeats, gaps,
/// missing fields) are listed on stderr and yield exit code 2 so CI can
/// gate on them.
fn cmd_ledger_summary(args: &[String]) -> Option<ExitCode> {
    let [path] = args else { return None };
    let summary = match rfnoc::ledger::LedgerSummary::from_file(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ledger-summary: {e}");
            return Some(ExitCode::FAILURE);
        }
    };
    print!("{}", summary.render_json());
    if summary.problems.is_empty() {
        Some(ExitCode::SUCCESS)
    } else {
        for p in &summary.problems {
            eprintln!("ledger-summary: {p}");
        }
        Some(ExitCode::from(2))
    }
}

fn cmd_info() -> Option<ExitCode> {
    println!("architectures: {}", ARCH_NAMES.join(" "));
    let traces: Vec<&str> = TraceKind::all().iter().map(|t| t.name()).collect();
    println!("traces:        {}", traces.join(" "));
    let apps: Vec<&str> = AppProfile::paper_suite().iter().map(|p| p.name).collect();
    println!("apps:          {}", apps.join(" "));
    println!("multicast:     <trace>+mc20 or <trace>+mc50");
    Some(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "sweep" => cmd_sweep(rest),
        Some((cmd, rest)) if cmd == "map" => cmd_map(rest),
        Some((cmd, rest)) if cmd == "tail" => cmd_tail(rest),
        Some((cmd, rest)) if cmd == "ledger-summary" => cmd_ledger_summary(rest),
        Some((cmd, _)) if cmd == "info" => cmd_info(),
        _ => None,
    };
    result.unwrap_or_else(|| {
        eprintln!(
            "usage:\n  rfnoc-cli run <arch> <16|8|4> <workload> \
             [--telemetry INTERVAL] [--sim-threads N] \
             [--fault-seed N] [--shortcut-faults F] [--mesh-faults F] \
             [--glitches F] [--repair-after C]\n  \
             rfnoc-cli compare <workload>\n  \
             rfnoc-cli compare <base.json> <new.json> [--threshold PCT]\n  \
             rfnoc-cli sweep <arch> <workload>\n  \
             rfnoc-cli map <workload>\n  \
             rfnoc-cli tail <ledger.jsonl> [--follow] [--poll-ms N]\n  \
             rfnoc-cli ledger-summary <ledger.jsonl>\n  \
             rfnoc-cli info"
        );
        ExitCode::FAILURE
    })
}
