//! Congestion telemetry report: where and *when* the network saturates.
//!
//! Runs two instrumented scenarios on the paper's 10×10 system and
//! renders the telemetry layer's artifacts:
//!
//! 1. **Congestion** — a saturating uniform load on the static-shortcut
//!    design. Prints ASCII maps of the mean mesh-port and the ejection
//!    utilization per router and the hottest output ports, and writes
//!    `results/json/TELEMETRY_congestion.json` (interval time series,
//!    per-link utilization, per-band RF utilization, span digest) and
//!    `results/svg/TELEMETRY_link_heatmap.svg` (mesh links stroked by
//!    utilization, RF arcs shaded by band utilization).
//! 2. **Fault timeline** — the same design at moderate load with the
//!    whole RF band failing mid-run. Writes
//!    `results/json/TELEMETRY_fault_timeline.json`; the printed timeline
//!    shows the fault event in the interval where RF utilization drops.
//!
//! ```sh
//! cargo run --release -p rfnoc-bench --bin telemetry_report [--quick]
//! ```

use rfnoc::timeline::timeline_table;
use rfnoc::Architecture;
use rfnoc_bench::artifact::{artifact_path, write_file};
use rfnoc_bench::scenarios::{
    fault_cycle, fault_experiment, instrumented_experiment, rf_capacity, SATURATED_RATE,
};
use rfnoc_bench::svg::{render_link_heatmap, LinkHeatFigure};
use rfnoc_bench::telemetry::{
    self, covered_cycles, hottest_ports, link_utilization, MESH_PORTS, PORT_NAMES,
};
use rfnoc_sim::TelemetryReport;
use rfnoc_traffic::Placement;
use std::path::Path;

fn congestion_scenario(quick: bool) {
    // A load comfortably past the 16B uniform saturation knee, so the
    // heatmap shows the congested steady state (fig7's saturated region).
    let experiment =
        instrumented_experiment(Architecture::StaticShortcuts, quick, SATURATED_RATE, false);
    let design = experiment.design();
    eprintln!("telemetry_report: congestion run ({})", experiment.summary());
    let report = experiment.run_on(&design);
    let stats = &report.stats;
    let tel = stats.telemetry.as_ref().expect("telemetry was enabled");

    println!("# Congestion telemetry: {} on Uniform (saturating load)", report.system);
    println!(
        "  {} cycles in {} samples, {} spans ({} dropped), saturated: {}",
        covered_cycles(tel),
        tel.samples.len(),
        tel.spans.len(),
        tel.dropped_spans,
        stats.saturated,
    );
    print!("\n{}", timeline_table(tel, 16));
    print_port_maps(tel);
    print_hot_ports(tel);

    write_file(&artifact_path("TELEMETRY_congestion"), &telemetry::render_json("TELEMETRY_congestion", stats, tel));

    // Heatmap: mesh links at flit/cycle utilization, RF arcs at band
    // utilization (per shortcut source, since sources are unique).
    let placement = Placement::paper_10x10();
    let util = scaled_link_util(tel);
    let shortcut_util: Vec<f64> = design
        .shortcuts()
        .iter()
        .map(|s| telemetry::port_utilization(tel, s.src, 5, rf_capacity()))
        .collect();
    let figure = LinkHeatFigure {
        shortcuts: design.shortcuts(),
        port_util: &util,
        shortcut_util: &shortcut_util,
        title: format!(
            "Link utilization: {} on Uniform, saturating load (scale x{HEAT_SCALE})",
            report.system
        ),
    };
    write_file(
        Path::new("results/svg/TELEMETRY_link_heatmap.svg"),
        &render_link_heatmap(&placement, &figure),
    );
}

/// Colour gain: mesh links saturate the ramp at 1/HEAT_SCALE flits/cycle.
const HEAT_SCALE: f64 = 2.5;

fn scaled_link_util(tel: &TelemetryReport) -> Vec<f64> {
    link_utilization(tel).iter().map(|u| (u * HEAT_SCALE).min(1.0)).collect()
}

/// One character per utilization level, `.` below 2 % to `#` above 55 %.
fn glyph(util: f64) -> char {
    match util {
        u if u < 0.02 => '.',
        u if u < 0.05 => '1',
        u if u < 0.10 => '2',
        u if u < 0.20 => '3',
        u if u < 0.35 => '5',
        u if u < 0.55 => '7',
        _ => '#',
    }
}

/// Prints one glyph per router of `util(router)`, laid out as the grid.
fn print_router_map(util: impl Fn(usize) -> f64) {
    let dims = Placement::paper_10x10().dims();
    for y in 0..dims.height() {
        let row: Vec<String> =
            (0..dims.width()).map(|x| glyph(util(y * dims.width() + x)).to_string()).collect();
        println!("    {}", row.join(" "));
    }
}

fn print_port_maps(tel: &TelemetryReport) {
    println!("\nmean mesh-link utilization per router ('.'<2% … '#'>55%):\n");
    print_router_map(|r| {
        (0..MESH_PORTS).map(|p| telemetry::port_utilization(tel, r, p, 1)).sum::<f64>()
            / MESH_PORTS as f64
    });
    println!("\nejection (local port) utilization:\n");
    print_router_map(|r| telemetry::port_utilization(tel, r, MESH_PORTS, 2));
}

fn print_hot_ports(tel: &TelemetryReport) {
    let dims = Placement::paper_10x10().dims();
    let cycles = covered_cycles(tel).max(1);
    println!("\nhottest output ports:");
    for (r, p, grants) in hottest_ports(tel, 8) {
        println!(
            "    {} port {:<5} {:>9} flits  ({:.1}% of cycles)",
            dims.coord_of(r),
            PORT_NAMES[p],
            grants,
            100.0 * grants as f64 / cycles as f64
        );
    }
}

fn fault_scenario(quick: bool) {
    let fault_at = fault_cycle(quick);
    let experiment = fault_experiment(Architecture::StaticShortcuts, quick, false);
    eprintln!("telemetry_report: fault run (BandDown at cycle {fault_at})");
    let report = experiment.run();
    let stats = &report.stats;
    let tel = stats.telemetry.as_ref().expect("telemetry was enabled");

    println!("\n# Fault timeline: whole RF band down at cycle {fault_at}");
    print!("\n{}", timeline_table(tel, 24));
    write_file(&artifact_path("TELEMETRY_fault_timeline"), &telemetry::render_json("TELEMETRY_fault_timeline", stats, tel));

    // Sanity narration: RF utilization before vs after the fault interval.
    if let Some(i) = tel.sample_index_at(fault_at) {
        let rate = |s: &rfnoc_sim::IntervalSample| s.rf_grants as f64 / s.cycles.max(1) as f64;
        let before: f64 = tel.samples[..i].iter().map(rate).sum::<f64>() / i.max(1) as f64;
        let after: f64 = tel.samples[i + 1..]
            .iter()
            .map(rate)
            .sum::<f64>()
            / tel.samples.len().saturating_sub(i + 1).max(1) as f64;
        println!(
            "\nRF grants/cycle: {before:.3} before the fault interval, {after:.3} after"
        );
        for e in tel.events_in_sample(i) {
            println!("  event in interval {i}: cycle {} {}", e.cycle, e.kind);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    congestion_scenario(quick);
    fault_scenario(quick);
}
