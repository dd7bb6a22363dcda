//! Ablation: region-based vs pure pair-based application-specific
//! selection (§3.2.2).
//!
//! The paper motivates region-to-region placement by the port limit: "once
//! a shortcut is selected, its source and destination are removed from
//! further consideration. However, if a communication hotspot exists, this
//! restriction prevents more than one shortcut from being placed at this
//! hotspot." This harness compares the full region-aware heuristic against
//! the pure max-`F·W` pair heuristic on the hotspot traces.
//!
//! ```sh
//! cargo run --release -p rfnoc-bench --bin ablation_regions
//! ```

use rfnoc::{Architecture, SystemConfig, WorkloadSpec};
use rfnoc_bench::print_table;
use rfnoc_power::LinkWidth;
use rfnoc_sim::{Network, NetworkSpec, RoutingKind, SimConfig};
use rfnoc_topology::select::{
    select_application_specific, select_max_cost, SelectionConstraints,
};
use rfnoc_topology::{GridGraph, Shortcut};
use rfnoc_traffic::{staggered_rf_routers, Placement, TraceKind, TrafficConfig};

fn simulate(shortcuts: Vec<Shortcut>, trace: TraceKind) -> f64 {
    let placement = Placement::paper_10x10();
    let mut cfg = SimConfig::paper_baseline().with_link_width(LinkWidth::B16);
    cfg.warmup_cycles = 2_000;
    cfg.measure_cycles = 30_000;
    let mut spec = NetworkSpec::with_shortcuts(placement.dims(), cfg, shortcuts);
    if spec.shortcuts.is_empty() {
        spec.routing = RoutingKind::Xy;
    }
    let mut network = Network::new(spec);
    let mut workload = rfnoc_traffic::ProbabilisticWorkload::new(
        placement,
        trace,
        TrafficConfig::default(),
    )
    .expect("the default traffic config is valid");
    network.run(&mut workload).avg_message_latency()
}

fn main() {
    println!("# Ablation: region-based vs pair-based application-specific selection");
    let placement = Placement::paper_10x10();
    let graph = GridGraph::mesh(placement.dims());
    let rf50 = staggered_rf_routers(placement.dims(), 50);
    let mut rows = Vec::new();
    for trace in [TraceKind::Hotspot1, TraceKind::Hotspot2, TraceKind::Hotspot4, TraceKind::Uniform]
    {
        // the profile matches the workload (same generator seed)
        let profile = WorkloadSpec::Trace(trace).profile(
            &placement,
            &TrafficConfig::default(),
            rfnoc::DEFAULT_PROFILE_CYCLES,
        );
        let constraints = SelectionConstraints::for_enabled(
            100,
            SystemConfig::new(Architecture::Baseline, LinkWidth::B16).shortcut_budget,
            &rf50,
        )
        .excluding_corners(&graph);
        let region_based = select_application_specific(&graph, &profile, &constraints);
        let pair_based = select_max_cost(&graph, &profile, &constraints);
        let base = simulate(Vec::new(), trace);
        let region_lat = simulate(region_based.clone(), trace);
        let pair_lat = simulate(pair_based.clone(), trace);
        rows.push(vec![
            trace.name().to_string(),
            format!("{base:.1}"),
            format!("{pair_lat:.1} ({:.2}x)", pair_lat / base),
            format!("{region_lat:.1} ({:.2}x)", region_lat / base),
            format!("{} / {}", pair_based.len(), region_based.len()),
        ]);
    }
    print_table(
        "Simulated latency (16B mesh, cycles)",
        &["trace", "baseline", "pair-based", "region-based", "#shortcuts (pair/region)"],
        &rows,
    );
    println!(
        "\nExpectation: the pure pair-based heuristic runs out of positive-\n\
         frequency pairs once the hotspot's two ports are consumed; region-\n\
         based selection keeps placing shortcuts at neighbouring routers and\n\
         wins on the hotspot traces."
    );
}
