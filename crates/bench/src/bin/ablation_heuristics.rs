//! Ablation: the two shortcut-selection heuristics of Figure 3.
//!
//! The paper: "We have tried both heuristics and found the resulting set
//! of shortcuts to perform comparably well. Therefore ... we shall use the
//! latter, less complex approach." This harness checks that claim: it
//! compares the exhaustive permutation-graph greedy (Figure 3a, O(B·V⁵)
//! naively) against the max-cost greedy (Figure 3b, O(B·V³)) on the
//! uniform-weight objective and on end-to-end simulated latency.
//!
//! ```sh
//! cargo run --release -p rfnoc-bench --bin ablation_heuristics
//! ```

use rfnoc_bench::print_table;
use rfnoc_power::LinkWidth;
use rfnoc_sim::{Network, NetworkSpec, SimConfig};
use rfnoc_topology::select::{
    select_exhaustive_greedy, select_max_cost, SelectionConstraints,
};
use rfnoc_topology::{GridGraph, PairWeights, Shortcut};
use rfnoc_traffic::{Placement, ProbabilisticWorkload, TraceKind, TrafficConfig};
use std::time::Instant;

fn simulate(shortcuts: Vec<Shortcut>) -> f64 {
    let placement = Placement::paper_10x10();
    let mut cfg = SimConfig::paper_baseline().with_link_width(LinkWidth::B16);
    cfg.warmup_cycles = 2_000;
    cfg.measure_cycles = 30_000;
    let spec = if shortcuts.is_empty() {
        NetworkSpec::mesh_baseline(placement.dims(), cfg)
    } else {
        NetworkSpec::with_shortcuts(placement.dims(), cfg, shortcuts)
    };
    let mut network = Network::new(spec);
    let mut workload = ProbabilisticWorkload::new(
        placement,
        TraceKind::Uniform,
        TrafficConfig::default(),
    )
    .expect("the default traffic config is valid");
    network.run(&mut workload).avg_message_latency()
}

fn main() {
    println!("# Ablation: Figure 3a (exhaustive greedy) vs Figure 3b (max-cost)");
    let graph = GridGraph::mesh(Placement::paper_10x10().dims());
    let weights = PairWeights::uniform(100);
    let constraints = SelectionConstraints::allowing_all(100, 16).excluding_corners(&graph);

    let t0 = Instant::now();
    let max_cost = select_max_cost(&graph, &weights, &constraints);
    let t_max_cost = t0.elapsed();
    let t0 = Instant::now();
    let exhaustive = select_exhaustive_greedy(&graph, &weights, &constraints);
    let t_exhaustive = t0.elapsed();

    let objective = |set: &[Shortcut]| {
        let g = GridGraph::with_shortcuts(graph.dims(), set);
        GridGraph::total_cost(&g.distances(), &weights)
    };
    let base_obj = objective(&[]);
    let rows = vec![
        vec![
            "max-cost (Fig 3b)".into(),
            format!("{:.0}", objective(&max_cost)),
            format!("{:.1}%", (1.0 - objective(&max_cost) / base_obj) * 100.0),
            format!("{:.2?}", t_max_cost),
            format!("{:.1}", simulate(max_cost.clone())),
        ],
        vec![
            "exhaustive (Fig 3a)".into(),
            format!("{:.0}", objective(&exhaustive)),
            format!("{:.1}%", (1.0 - objective(&exhaustive) / base_obj) * 100.0),
            format!("{:.2?}", t_exhaustive),
            format!("{:.1}", simulate(exhaustive.clone())),
        ],
        vec![
            "no shortcuts".into(),
            format!("{base_obj:.0}"),
            "0.0%".into(),
            "-".into(),
            format!("{:.1}", simulate(Vec::new())),
        ],
    ];
    print_table(
        "Uniform-weight objective Σ W(x,y), selection time, simulated latency (Uniform trace)",
        &["heuristic", "objective", "reduction", "time", "latency (cyc)"],
        &rows,
    );
    println!(
        "\nExpectation (paper §3.2.1): both heuristics perform comparably well;\n\
         the exhaustive version buys a slightly better objective at vastly\n\
         higher selection cost."
    );
}
