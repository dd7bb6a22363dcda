//! The paper results that are not sweeps: the Figure 2 maps, the
//! Figure 5 and Table 2 listings, and the two ablations that set
//! selection heuristics and regions side by side (the phased-workload
//! table is in [`crate::phased`]). Each is a `run_all <name>` entry ([`crate::suite::tables`]) whose stdout is the
//! committed `results/<name>.txt`.

use crate::suite::{adaptive50, windows, SuiteOptions};
use crate::svg::{render_topology, utilization_heat, TopologyFigure};
use crate::{artifact, print_table};
use rfnoc::{
    build_system, static_shortcuts, Architecture, Experiment, SystemConfig,
    WorkloadSpec, DEFAULT_PROFILE_CYCLES, DEFAULT_SHORTCUT_BUDGET,
};
use rfnoc_power::{LinkWidth, NocPowerModel};
use rfnoc_sim::bands::RfBudget;
use rfnoc_sim::{MessageClass, Network, NetworkSpec, SimConfig};
use rfnoc_topology::select::{
    select_application_specific, select_exhaustive_greedy, select_max_cost,
    SelectionConstraints,
};
use rfnoc_topology::{GridGraph, PairWeights, Shortcut};
use rfnoc_traffic::{
    staggered_rf_routers, AppProfile, ComponentKind, Placement, ProbabilisticWorkload,
    TraceKind, TrafficConfig,
};
use std::path::Path;
use std::time::Instant;

/// `arch` on the paper's 16B mesh over the paper's 10k + 100k-cycle
/// window, quartered in quick mode.
pub(crate) fn system16(arch: Architecture, opts: &SuiteOptions) -> SystemConfig {
    SystemConfig::new(arch, LinkWidth::B16)
        .with_sim(windows(opts, SimConfig::paper_baseline(), 10_000, 100_000))
}

// ------------------------------------------------------------------ fig2

/// Component glyphs: core '.', cache 'c', memory 'M'; RF-enabled routers
/// are upper-cased / marked.
fn render_map(placement: &Placement, rf_enabled: &[usize], shortcuts: &[Shortcut]) -> String {
    let dims = placement.dims();
    let mut out = String::new();
    for y in 0..dims.height() {
        out.push_str("    ");
        for x in 0..dims.width() {
            let node = y * dims.width() + x;
            let mut ch = match placement.kind(node) {
                ComponentKind::Core => '.',
                ComponentKind::Cache => 'c',
                ComponentKind::Memory => 'M',
            };
            if rf_enabled.contains(&node) {
                ch = match ch {
                    '.' => 'o',
                    'c' => 'C',
                    other => other,
                };
            }
            if shortcuts.iter().any(|s| s.src == node) {
                ch = 'S';
            }
            if shortcuts.iter().any(|s| s.dst == node) {
                ch = if ch == 'S' { 'B' } else { 'D' };
            }
            out.push(ch);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

fn describe(placement: &Placement, shortcuts: &[Shortcut]) {
    let dims = placement.dims();
    for s in shortcuts {
        println!(
            "    {} -> {}   (spans {} mesh hops)",
            dims.coord_of(s.src),
            dims.coord_of(s.dst),
            dims.manhattan(s.src, s.dst)
        );
    }
}

/// Figure 2: (a) the RF-I overlay with 50 staggered RF-enabled routers,
/// (b) the static (architecture-specific) shortcut set and (c) the
/// adaptive set selected for the 1Hotspot trace — ASCII maps on stdout,
/// and under `results/svg/` the three maps plus a utilization heatmap of
/// 1Hotspot on (c).
pub(crate) fn fig2_shortcut_maps(opts: &SuiteOptions) {
    let placement = Placement::paper_10x10();
    let dims = placement.dims();
    let svg = |name: &str, figure: TopologyFigure<'_>| {
        let path = format!("results/svg/{name}.svg");
        artifact::write_file(Path::new(&path), &render_topology(&placement, &figure));
    };

    println!("# Figure 2a: RF-I overlay — 50 staggered RF-enabled routers");
    println!("  (o = RF-enabled core router, C = RF-enabled cache, M = memory)\n");
    let rf50 = staggered_rf_routers(dims, 50);
    println!("{}", render_map(&placement, &rf50, &[]));
    svg(
        "fig2a_rf_overlay",
        TopologyFigure {
            rf_enabled: &rf50,
            title: "Figure 2a: 50 staggered RF-enabled routers".into(),
            ..Default::default()
        },
    );

    println!("# Figure 2b: static (architecture-specific) shortcuts");
    println!("  (S = shortcut source, D = destination, B = both)\n");
    let static_set = static_shortcuts(&placement, DEFAULT_SHORTCUT_BUDGET);
    println!("{}", render_map(&placement, &[], &static_set));
    describe(&placement, &static_set);
    svg(
        "fig2b_static_shortcuts",
        TopologyFigure {
            shortcuts: &static_set,
            title: "Figure 2b: architecture-specific shortcuts".into(),
            ..Default::default()
        },
    );

    println!("\n# Figure 2c: adaptive shortcuts selected for the 1Hotspot trace");
    let experiment =
        Experiment::new(system16(adaptive50(), opts), WorkloadSpec::Trace(TraceKind::Hotspot1));
    let design = experiment.design();
    let adaptive_set = design.shortcuts();
    println!("{}", render_map(&placement, &rf50, adaptive_set));
    describe(&placement, adaptive_set);
    svg(
        "fig2c_adaptive_1hotspot",
        TopologyFigure {
            rf_enabled: &rf50,
            shortcuts: adaptive_set,
            title: "Figure 2c: adaptive shortcuts for 1Hotspot".into(),
            ..Default::default()
        },
    );

    let hot = placement.hotspot_caches(1)[0];
    let near = adaptive_set
        .iter()
        .filter(|s| dims.manhattan(s.src, hot).min(dims.manhattan(s.dst, hot)) <= 4)
        .count();
    println!(
        "\n  hotspot cache at {}; {near}/{} shortcuts have an endpoint within 4 hops \
         (the region effect of section 3.2.2)",
        dims.coord_of(hot),
        adaptive_set.len()
    );

    eprintln!("simulating 1Hotspot for the utilization heatmap ...");
    let report = experiment.run_on(&design);
    svg(
        "utilization_1hotspot_adaptive",
        TopologyFigure {
            rf_enabled: &rf50,
            shortcuts: adaptive_set,
            heat: utilization_heat(&report.stats, dims.nodes()),
            title: "Mesh utilization: 1Hotspot on adaptive shortcuts".into(),
        },
    );
}

// ------------------------------------------------------------------ fig5

/// Figure 5: (a) network simulation parameters and (b) application trace
/// setup — the configuration tables of the methodology section, read from
/// the defaults the experiments run so that they cannot drift from them.
pub(crate) fn fig5_parameters(_opts: &SuiteOptions) {
    let sim = SimConfig::paper_baseline();
    let traffic = TrafficConfig::default();
    let placement = Placement::paper_10x10();
    let dims = placement.dims();
    let rf = RfBudget::paper_default();

    println!("# Figure 5a: network simulation parameters");
    let rows = vec![
        vec!["topology".into(), format!("{}x{} 2D mesh", dims.width(), dims.height())],
        vec![
            "components".into(),
            format!(
                "{} cores, {} cache banks, {} memory ports",
                placement.cores().len(),
                placement.caches().len(),
                placement.memories().len()
            ),
        ],
        vec!["system clock".into(), "4 GHz (cores/caches)".into()],
        vec!["network clock".into(), format!("{} GHz", rf.clock_hz / 1e9)],
        vec!["routing".into(), "wormhole; XY baseline, shortest-path with RF-I".into()],
        vec![
            "router pipeline".into(),
            "5 cycles head (RC/VA/SA/ST/LT), 3 cycles body/tail".into(),
        ],
        vec![
            "virtual channels".into(),
            format!(
                "{} adaptive + {} escape (mesh-only, deadlock avoidance)",
                sim.vcs_adaptive, sim.vcs_escape
            ),
        ],
        vec!["VC buffer depth".into(), format!("{} flits", sim.buffer_depth)],
        vec!["link width".into(), format!("{} baseline; swept 16B/8B/4B", sim.link_width)],
        vec![
            "RF-I".into(),
            format!(
                "{}B aggregate, {}B single-cycle channels, budget {DEFAULT_SHORTCUT_BUDGET} \
                 shortcuts",
                rf.aggregate_bytes_per_cycle, sim.rf_channel_bytes
            ),
        ],
        vec![
            "message sizes".into(),
            format!(
                "request {}B, data {}B, cache-memory {}B",
                MessageClass::Request.bytes(),
                MessageClass::Data.bytes(),
                MessageClass::Memory.bytes()
            ),
        ],
        vec![
            "local ports".into(),
            format!("{} flits/network-cycle (4 GHz nodes)", sim.local_port_speedup),
        ],
        vec![
            "simulation window".into(),
            format!(
                "{} warmup + {} measured cycles (+{} drain)",
                sim.warmup_cycles, sim.measure_cycles, sim.drain_cycles
            ),
        ],
        vec![
            "injection".into(),
            format!("{} msg/component/cycle (probabilistic traces)", traffic.injection_rate),
        ],
        vec![
            "reconfiguration".into(),
            format!("{} cycles (routing-table rewrite)", sim.reconfig_cycles),
        ],
    ];
    print_table("Simulation parameters", &["parameter", "value"], &rows);

    println!("\n# Figure 5b: application trace setup");
    let rows: Vec<Vec<String>> = AppProfile::paper_suite()
        .into_iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                p.threads.to_string(),
                p.input_set.to_string(),
                format!("{} hotspot(s)", p.hotspot_count),
            ]
        })
        .collect();
    print_table(
        "Applications (synthetic stand-ins; see DESIGN.md substitutions)",
        &["application", "threads", "input", "network hotspots"],
        &rows,
    );
}

// ---------------------------------------------------------------- table2

/// Table 2: active-layer silicon area of the network designs, broken into
/// router / link / RF-I columns, side by side with the paper's values.
pub(crate) fn table2_area(_opts: &SuiteOptions) {
    println!("# Table 2: area of network designs (mm^2)");
    let placement = Placement::paper_10x10();
    let model = NocPowerModel::paper_32nm();
    // The adaptive design's port/provision structure is workload
    // independent; use any profile to elaborate it.
    let profile = WorkloadSpec::Trace(TraceKind::Uniform).profile(
        &placement,
        &TrafficConfig::default(),
        5_000,
    );

    // (paper row name, architecture, width, paper total)
    let rows_spec: Vec<(&str, Architecture, LinkWidth, f64)> = vec![
        ("Mesh Baseline (16B)", Architecture::Baseline, LinkWidth::B16, 30.29),
        ("Mesh Baseline (8B)", Architecture::Baseline, LinkWidth::B8, 9.38),
        ("Mesh Baseline (4B)", Architecture::Baseline, LinkWidth::B4, 3.25),
        ("Mesh (16B) Arch-Specific", Architecture::StaticShortcuts, LinkWidth::B16, 32.65),
        ("Mesh (16B) + 50 RF-I APs", adaptive50(), LinkWidth::B16, 37.66),
        ("Mesh (8B) Arch-Specific", Architecture::StaticShortcuts, LinkWidth::B8, 10.41),
        ("Mesh (8B) + 50 RF-I APs", adaptive50(), LinkWidth::B8, 12.60),
        ("Mesh (4B) Arch-Specific", Architecture::StaticShortcuts, LinkWidth::B4, 3.92),
        ("Mesh (4B) + 50 RF-I APs", adaptive50(), LinkWidth::B4, 5.34),
    ];

    let mut rows = Vec::new();
    let mut base16_total = None;
    for (name, arch, width, paper_total) in rows_spec {
        let system = SystemConfig::new(arch.clone(), width);
        let built = build_system(&system, &placement, arch.is_adaptive().then_some(&profile));
        let area = model.area(&built.design);
        if base16_total.is_none() {
            base16_total = Some(area.total_mm2());
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", area.router_mm2),
            format!("{:.2}", area.link_mm2),
            format!("{:.2}", area.rf_mm2),
            format!("{:.2}", area.total_mm2()),
            format!("{paper_total:.2}"),
            format!("{:+.1}%", (area.total_mm2() / paper_total - 1.0) * 100.0),
        ]);
    }
    print_table(
        "Area of network designs",
        &["design", "router", "link", "RF-I", "total", "paper total", "delta"],
        &rows,
    );

    // Headline: 50 APs on a 4B mesh vs the 16B baseline.
    let adaptive4 = build_system(
        &SystemConfig::new(adaptive50(), LinkWidth::B4),
        &placement,
        Some(&profile),
    );
    let saving =
        1.0 - model.area(&adaptive4.design).total_mm2() / base16_total.expect("computed");
    println!(
        "\nHeadline: 50 access points on a 4B mesh reduce area by {:.1}% \
         (paper: 82.3%)",
        saving * 100.0
    );
}

// ------------------------------------------------------------- ablations

/// Average message latency of `trace` on the paper's 16B 10×10 mesh with
/// `shortcuts` (shortest-path routing; XY without any) over the
/// ablations' 2k + 30k-cycle window, quartered in quick mode.
fn simulate(shortcuts: &[Shortcut], trace: TraceKind, opts: &SuiteOptions) -> f64 {
    let placement = Placement::paper_10x10();
    let sim = SimConfig::paper_baseline().with_link_width(LinkWidth::B16);
    let spec = NetworkSpec::with_fabric(
        placement.fabric(),
        windows(opts, sim, 2_000, 30_000),
        shortcuts.to_vec(),
    );
    let mut workload = ProbabilisticWorkload::new(placement, trace, TrafficConfig::default())
        .expect("the default traffic config is valid");
    Network::new(spec).run(&mut workload).avg_message_latency()
}

/// The two shortcut-selection heuristics of Figure 3. The paper: "We have
/// tried both heuristics and found the resulting set of shortcuts to
/// perform comparably well." This compares the exhaustive
/// permutation-graph greedy (Figure 3a, O(B·V⁵) naively) with the max-cost
/// greedy (Figure 3b, O(B·V³)) on the uniform-weight objective and on
/// simulated latency.
pub(crate) fn ablation_heuristics(opts: &SuiteOptions) {
    println!("# Ablation: Figure 3a (exhaustive greedy) vs Figure 3b (max-cost)");
    let graph = GridGraph::mesh(Placement::paper_10x10().dims());
    let weights = PairWeights::uniform(100);
    let constraints = SelectionConstraints::allowing_all(100, DEFAULT_SHORTCUT_BUDGET)
        .excluding_corners(&graph);

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
    let latency = |set: &[Shortcut]| simulate(set, TraceKind::Uniform, opts);
    let rows = vec![
        vec![
            "max-cost (Fig 3b)".into(),
            format!("{:.0}", objective(&max_cost)),
            format!("{:.1}%", (1.0 - objective(&max_cost) / base_obj) * 100.0),
            format!("{t_max_cost:.2?}"),
            format!("{:.1}", latency(&max_cost)),
        ],
        vec![
            "exhaustive (Fig 3a)".into(),
            format!("{:.0}", objective(&exhaustive)),
            format!("{:.1}%", (1.0 - objective(&exhaustive) / base_obj) * 100.0),
            format!("{t_exhaustive:.2?}"),
            format!("{:.1}", latency(&exhaustive)),
        ],
        vec![
            "no shortcuts".into(),
            format!("{base_obj:.0}"),
            "0.0%".into(),
            "-".into(),
            format!("{:.1}", latency(&[])),
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

/// Region-based against pure pair-based application-specific selection
/// (§3.2.2). The paper motivates region-to-region placement by the port
/// limit: "if a communication hotspot exists, this restriction prevents
/// more than one shortcut from being placed at this hotspot." This
/// compares the full region-aware heuristic with the pure max-`F·W` pair
/// heuristic on the hotspot traces.
pub(crate) fn ablation_regions(opts: &SuiteOptions) {
    println!("# Ablation: region-based vs pair-based application-specific selection");
    let placement = Placement::paper_10x10();
    let graph = GridGraph::mesh(placement.dims());
    let rf50 = staggered_rf_routers(placement.dims(), 50);
    let constraints = SelectionConstraints::for_enabled(100, DEFAULT_SHORTCUT_BUDGET, &rf50)
        .excluding_corners(&graph);
    let mut rows = Vec::new();
    for trace in [TraceKind::Hotspot1, TraceKind::Hotspot2, TraceKind::Hotspot4, TraceKind::Uniform]
    {
        // the profile matches the workload (same generator seed)
        let profile = WorkloadSpec::Trace(trace).profile(
            &placement,
            &TrafficConfig::default(),
            DEFAULT_PROFILE_CYCLES,
        );
        let region_based = select_application_specific(&graph, &profile, &constraints);
        let pair_based = select_max_cost(&graph, &profile, &constraints);
        let base = simulate(&[], trace, opts);
        let region_lat = simulate(&region_based, trace, opts);
        let pair_lat = simulate(&pair_based, trace, opts);
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
