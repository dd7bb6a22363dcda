//! Delay-attribution report: *why* packets are slow, not just how slow.
//!
//! Profiles the paper's 10×10 system at the two canonical fig7 operating
//! points (see `rfnoc_bench::scenarios`), mesh-only vs static RF
//! shortcuts, and renders three artifacts:
//!
//! 1. `results/json/PROFILE_lowload.json` — attribution at low load,
//!    where latency is almost all pipeline (route/switch/link) and the
//!    mesh-vs-RF gap is hop count, not contention.
//! 2. `results/json/PROFILE_congestion.json` — attribution past the
//!    saturation knee, where VA/SA stalls dominate; on the pairs covered
//!    by shortcuts the RF run shows the contention shift the paper's
//!    latency curves imply.
//! 3. `results/json/PROFILE_trace.json` — a Perfetto/Chrome trace of the
//!    faulted RF run (per-router and per-band tracks, hop spans, fault
//!    and retune instants). Open it at <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release -p rfnoc-bench --bin profile_report [--quick]
//! ```

use rfnoc::Architecture;
use rfnoc_bench::artifact::{artifact_path, write_file};
use rfnoc_bench::perfetto::{self, TraceSpec};
use rfnoc_bench::profile::{self, summarize, ProfiledRun};
use rfnoc_bench::scenarios::{
    fault_experiment, instrumented_experiment, LOW_LOAD_RATE, SATURATED_RATE,
};
use rfnoc_bench::print_table;

/// Hop spans kept in the Perfetto trace; enough for several thousand
/// packets while keeping the JSON loadable in the UI.
const TRACE_SPAN_CAP: usize = 60_000;

fn attribution_scenario(name: &str, rate: f64, quick: bool) {
    eprintln!("profile_report: {name} (rate {rate})");
    let mesh = instrumented_experiment(Architecture::Baseline, quick, rate, true).run();
    let rf = instrumented_experiment(Architecture::StaticShortcuts, quick, rate, true).run();
    let mesh_tel = mesh.stats.telemetry.as_ref().expect("telemetry enabled");
    let rf_tel = rf.stats.telemetry.as_ref().expect("telemetry enabled");

    let runs = [
        ProfiledRun {
            label: "mesh",
            arch: mesh.system.clone(),
            stats: &mesh.stats,
            report: mesh_tel,
        },
        ProfiledRun { label: "rf", arch: rf.system.clone(), stats: &rf.stats, report: rf_tel },
    ];
    write_file(&artifact_path(name), &profile::render_json(name, rate, &runs));

    // Printed budget: cycles per component, as a share of total latency.
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let s = summarize(run.report);
            let pct = |c: u64| {
                if s.all.total == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}%", 100.0 * c as f64 / s.all.total as f64)
                }
            };
            vec![
                run.label.to_string(),
                s.all.packets.to_string(),
                pct(s.all.source_queue),
                pct(s.all.route + s.all.switch + s.all.link),
                pct(s.all.va_wait),
                pct(s.all.sa_wait),
                pct(s.all.tail_serialization),
                format!("{:.1}", s.all.avg_contention()),
            ]
        })
        .collect();
    print_table(
        &format!("{name}: where the cycles go (rate {rate})"),
        &["run", "packets", "src-queue", "pipeline", "va-wait", "sa-wait", "tail", "avg contention"],
        &rows,
    );

    let covered = profile::rf_covered_pairs(rf_tel);
    let mesh_cov = profile::summarize_pairs(mesh_tel, &covered);
    let rf_cov = profile::summarize_pairs(rf_tel, &covered);
    println!(
        "\nshortcut-covered pairs ({}): mesh {:.1} vs rf {:.1} contention cycles/packet",
        covered.len(),
        mesh_cov.avg_contention(),
        rf_cov.avg_contention(),
    );
}

fn trace_scenario(quick: bool) {
    let experiment = fault_experiment(Architecture::StaticShortcuts, quick, true);
    let design = experiment.design();
    eprintln!("profile_report: trace run ({})", experiment.summary());
    let report = experiment.run_on(&design);
    let tel = report.stats.telemetry.as_ref().expect("telemetry enabled");
    let spec = TraceSpec {
        dims: experiment.placement.dims(),
        shortcuts: design.shortcuts(),
        max_span_events: TRACE_SPAN_CAP,
    };
    write_file(&artifact_path("PROFILE_trace"), &perfetto::render_trace(tel, &spec));
    println!(
        "\ntrace: {} hop spans recorded ({} dropped), {} timeline events — open results/json/PROFILE_trace.json at ui.perfetto.dev",
        tel.hops.len(),
        tel.dropped_hops,
        tel.events.len(),
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    attribution_scenario("PROFILE_lowload", LOW_LOAD_RATE, quick);
    attribution_scenario("PROFILE_congestion", SATURATED_RATE, quick);
    trace_scenario(quick);
}
