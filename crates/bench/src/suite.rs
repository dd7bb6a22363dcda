//! The paper-suite registry: every plan-based figure/table/ablation as a
//! declarative plan builder plus a table formatter ([`figures`]), and
//! every result that is not a sweep as a function that prints it
//! ([`tables`]).
//!
//! The `run_all` binary is the one entry point ([`run_all_main`]): named
//! figures and tables run one by one, and without names every suite
//! figure is merged into a single plan and executed in one parallel pass,
//! and the tables run after it.

use crate::artifact;
use crate::campaign;
use crate::plan::{labeled, BaselineSel, Design, Labeled, Plan, SweepSpec};
use crate::ledger::LedgerSink;
use crate::runner::{run_plan_with, PlanResults, RunnerConfig};
use crate::{geomean, multicast_workload, print_table};
use rfnoc::json::{rounded, Json};
use rfnoc::{Architecture, FaultSpec, WorkloadSpec};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{FaultRates, SimConfig};
use rfnoc_topology::{FabricSpec, GridDims};
use rfnoc_traffic::{AppProfile, Placement, TraceKind, TrafficConfig};

/// Options shared by every figure builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuiteOptions {
    /// Restrict trace sets and shorten simulation windows — for smoke
    /// tests and CI, not for regenerating the paper numbers.
    pub quick: bool,
}

/// One regenerable figure/table of the paper suite: a plan builder and a
/// renderer over its results.
pub struct Figure {
    /// Short name — `run_all <name>`, plan-ID prefix, and artifact file stem.
    pub name: &'static str,
    /// Human title printed above the tables.
    pub title: &'static str,
    /// Whether `run_all` includes it by default (probes opt out).
    pub in_suite: bool,
    /// Builds the figure's plan.
    pub build: fn(&SuiteOptions) -> Plan,
    /// Prints tables / writes CSVs from the figure's results.
    pub render: fn(&PlanResults, &SuiteOptions),
}

/// Every plan-based figure, in paper order.
pub fn figures() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig1",
            title: "Figure 1: traffic by Manhattan distance (baseline 16B mesh)",
            in_suite: true,
            build: build_fig1,
            render: render_fig1,
        },
        Figure {
            name: "fig7",
            title: "Figure 7: number of RF-enabled routers vs performance (16B mesh)",
            in_suite: true,
            build: build_fig7,
            render: render_fig7,
        },
        Figure {
            name: "fig8",
            title: "Figure 8: mesh bandwidth reduction (normalised to 16B baseline)",
            in_suite: true,
            build: build_fig8,
            render: render_fig8,
        },
        Figure {
            name: "fig9",
            title: "Figure 9: multicast power and performance (16B mesh)",
            in_suite: true,
            build: build_fig9,
            render: render_fig9,
        },
        Figure {
            name: "fig10",
            title: "Figure 10: overall power vs performance comparison",
            in_suite: true,
            build: build_fig10,
            render: render_fig10,
        },
        Figure {
            name: "app_traces",
            title: "Application traces: adaptive RF-I @4B vs 16B baseline",
            in_suite: true,
            build: build_app_traces,
            render: render_app_traces,
        },
        Figure {
            name: "ablation_injection",
            title: "Ablation: latency vs offered load (Uniform trace)",
            in_suite: true,
            build: build_ablation_injection,
            render: render_ablation_injection,
        },
        Figure {
            name: "ablation_escape_vcs",
            title: "Ablation: escape VC count (adaptive shortcuts @16B)",
            in_suite: true,
            build: build_ablation_escape_vcs,
            render: render_ablation_escape_vcs,
        },
        Figure {
            name: "ablation_adaptive_routing",
            title: "Ablation: shortcut contention-avoidance routing (1Hotspot, 4B mesh)",
            in_suite: true,
            build: build_ablation_adaptive_routing,
            render: render_ablation_adaptive_routing,
        },
        Figure {
            name: "mesh_scaling",
            title: "Scaling: fabrics x RF overlay from 10x10 to 64x64",
            in_suite: true,
            build: build_mesh_scaling,
            render: render_mesh_scaling,
        },
        Figure {
            name: "fault_sweep",
            title: "Fault-injection sweep: graceful degradation under RF and mesh faults",
            in_suite: true,
            build: build_fault_sweep,
            render: render_fault_sweep,
        },
        Figure {
            name: "resilience",
            title: "Resilience campaign: seeded profiles under correlated fault storms",
            in_suite: true,
            build: build_resilience,
            render: render_resilience,
        },
        Figure {
            name: "tune_load",
            title: "Load-tuning probe: injection rate and hotspot intensity",
            in_suite: false,
            build: build_tune_load,
            render: render_tune_load,
        },
    ]
}

/// The figure with the given name.
pub fn figure(name: &str) -> Option<Figure> {
    figures().into_iter().find(|f| f.name == name)
}

/// One paper result that is not a sweep: a function that prints it (and
/// writes any file it owns) rather than a plan and a renderer.
pub struct Table {
    /// Short name — `run_all <name>`, and the stem of the committed
    /// `results/<name>.txt` that its stdout reproduces.
    pub name: &'static str,
    /// Prints the result on stdout.
    pub run: fn(&SuiteOptions),
}

/// Every table, in paper order.
pub fn tables() -> Vec<Table> {
    use crate::tables::*;
    vec![
        Table { name: "fig2_shortcut_maps", run: fig2_shortcut_maps },
        Table { name: "fig5_parameters", run: fig5_parameters },
        Table { name: "table2_area", run: table2_area },
        Table { name: "ablation_heuristics", run: ablation_heuristics },
        Table { name: "ablation_regions", run: ablation_regions },
        Table { name: "phased_workloads", run: crate::phased::phased_workloads },
    ]
}

// ---------------------------------------------------------------- helpers

fn traces(opts: &SuiteOptions) -> Vec<TraceKind> {
    if opts.quick {
        vec![TraceKind::Uniform, TraceKind::BiDf, TraceKind::Hotspot1]
    } else {
        TraceKind::all().to_vec()
    }
}

fn trace_workloads(opts: &SuiteOptions) -> Vec<Labeled<WorkloadSpec>> {
    traces(opts)
        .into_iter()
        .map(|t| labeled(t.name(), WorkloadSpec::Trace(t)))
        .collect()
}

/// The paper-default simulator, with shortened windows in quick mode.
fn default_sim(opts: &SuiteOptions) -> Vec<Labeled<SimConfig>> {
    vec![labeled("default", windows(opts, SimConfig::paper_baseline(), 10_000, 100_000))]
}

/// Applies (warmup, measure) windows, quartered in quick mode.
pub(crate) fn windows(
    opts: &SuiteOptions,
    mut sim: SimConfig,
    warmup: u64,
    measure: u64,
) -> SimConfig {
    let div = if opts.quick { 4 } else { 1 };
    sim.warmup_cycles = warmup / div;
    sim.measure_cycles = measure / div;
    sim
}

pub(crate) fn adaptive50() -> Architecture {
    Architecture::AdaptiveShortcuts { access_points: 50 }
}

fn fmt_gm_pair(lats: &[f64], pows: &[f64]) -> String {
    match (geomean(lats), geomean(pows)) {
        (Some(l), Some(p)) => format!("{l:.2}/{p:.2}"),
        _ => "-".into(),
    }
}

fn fmt_lat(r: &crate::runner::PointResult) -> String {
    format!(
        "{:.1}{}",
        r.report.avg_latency(),
        if r.report.stats.saturated { "*" } else { "" }
    )
}

// ------------------------------------------------------------------ fig1

fn build_fig1(_opts: &SuiteOptions) -> Plan {
    SweepSpec::new("fig1")
        .designs(vec![Design::new("Baseline", Architecture::Baseline, LinkWidth::B16)])
        .workloads(
            [AppProfile::x264(), AppProfile::bodytrack()]
                .into_iter()
                .map(|p| labeled(p.name, WorkloadSpec::App(p)))
                .collect(),
        )
        .expand()
}

fn render_fig1(results: &PlanResults, _opts: &SuiteOptions) {
    for r in results.iter() {
        let hist = &r.report.stats.distance_histogram;
        let relevant = &hist[1..=14.min(hist.len() - 1)];
        let mut sorted: Vec<u64> = relevant.to_vec();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let max = relevant.iter().copied().max().unwrap_or(1).max(1);
        let rows: Vec<Vec<String>> = relevant
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let bar_len = (count * 40 / max) as usize;
                vec![
                    format!("{}", i + 1),
                    count.to_string(),
                    format!(
                        "{}{}",
                        "#".repeat(bar_len),
                        if count > 0 && bar_len == 0 { "." } else { "" }
                    ),
                ]
            })
            .collect();
        print_table(
            &format!(
                "{} traffic by manhattan distance (median = {median} msgs)",
                r.point.labels.workload
            ),
            &["hops", "messages", "profile"],
            &rows,
        );
    }
    println!(
        "\nPaper shape check: bodytrack sends a much greater proportion of \
         single-hop traffic and almost none at 14 hops; x264 peaks at \
         mid-range distances with a long tail."
    );
}

// ------------------------------------------------------------------ fig7

fn build_fig7(opts: &SuiteOptions) -> Plan {
    SweepSpec::new("fig7")
        .designs(vec![
            Design::new("Baseline", Architecture::Baseline, LinkWidth::B16),
            Design::new("Static", Architecture::StaticShortcuts, LinkWidth::B16),
            Design::new("Adaptive-50", adaptive50(), LinkWidth::B16),
            Design::new(
                "Adaptive-25",
                Architecture::AdaptiveShortcuts { access_points: 25 },
                LinkWidth::B16,
            ),
        ])
        .workloads(trace_workloads(opts))
        .sims(default_sim(opts))
        .baseline(BaselineSel::design("Baseline"))
        .expand()
}

/// Renders a "rows = workloads, columns = non-baseline designs" table of
/// normalised latency/power pairs, with a geometric-mean row, and writes
/// the CSV — the shape of Figures 7, 8, and 9.
fn norm_table(
    title: &str,
    results: &PlanResults,
    select: impl Fn(&crate::runner::PointResult) -> bool,
    csv: &str,
) {
    let mut designs: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    for r in results.iter().filter(|r| select(r)) {
        if r.normalized.is_some() && !designs.contains(&r.point.labels.design) {
            designs.push(r.point.labels.design.clone());
        }
        if !workloads.contains(&r.point.labels.workload) {
            workloads.push(r.point.labels.workload.clone());
        }
    }
    let mut rows = Vec::new();
    let mut norms: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); designs.len()];
    for workload in &workloads {
        let mut row = vec![workload.clone()];
        for (i, design) in designs.iter().enumerate() {
            let point = results.iter().find(|r| {
                select(r)
                    && r.point.labels.workload == *workload
                    && r.point.labels.design == *design
            });
            match point.and_then(|r| r.normalized) {
                Some((lat, pow)) => {
                    norms[i].0.push(lat);
                    norms[i].1.push(pow);
                    row.push(format!("{lat:.2}/{pow:.2}"));
                }
                None => row.push("-".into()),
            }
        }
        rows.push(row);
    }
    let mut avg = vec!["**average**".to_string()];
    for (lats, pows) in &norms {
        avg.push(fmt_gm_pair(lats, pows));
    }
    rows.push(avg);
    let headers: Vec<String> =
        std::iter::once("trace".to_string()).chain(designs.iter().cloned()).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(title, &header_refs, &rows);
    artifact::write_csv_logged(csv, &header_refs, &rows);
}

fn render_fig7(results: &PlanResults, _opts: &SuiteOptions) {
    norm_table(
        "Normalised (latency / power) vs 16B baseline",
        results,
        |_| true,
        "results/csv/fig7.csv",
    );
    println!(
        "\nPaper averages: Static 0.80 / 1.11, Adaptive-50 0.68 / 1.24, Adaptive-25 0.72 / 1.15"
    );
}

// ------------------------------------------------------------------ fig8

fn build_fig8(opts: &SuiteOptions) -> Plan {
    SweepSpec::new("fig8")
        .designs(Design::cross(
            &[
                ("Baseline", Architecture::Baseline),
                ("Static", Architecture::StaticShortcuts),
                ("Adaptive", adaptive50()),
            ],
            &LinkWidth::all(),
        ))
        .workloads(trace_workloads(opts))
        .sims(default_sim(opts))
        .baseline(BaselineSel::design(format!("Baseline @{}", LinkWidth::B16)))
        .expand()
}

fn render_fig8(results: &PlanResults, _opts: &SuiteOptions) {
    // Include the 16B baseline column itself (normalised 1.00/1.00).
    let mut designs: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    for r in results.iter() {
        if !designs.contains(&r.point.labels.design) {
            designs.push(r.point.labels.design.clone());
        }
        if !workloads.contains(&r.point.labels.workload) {
            workloads.push(r.point.labels.workload.clone());
        }
    }
    let mut rows = Vec::new();
    let mut norms: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); designs.len()];
    for workload in &workloads {
        let mut row = vec![workload.clone()];
        for (i, design) in designs.iter().enumerate() {
            let r = results
                .iter()
                .find(|r| {
                    r.point.labels.workload == *workload && r.point.labels.design == *design
                })
                .expect("full cross product");
            let (lat, pow) = r.normalized.unwrap_or((1.0, 1.0));
            norms[i].0.push(lat);
            norms[i].1.push(pow);
            row.push(format!("{lat:.2}/{pow:.2}"));
        }
        rows.push(row);
    }
    let mut avg = vec!["**average**".to_string()];
    for (lats, pows) in &norms {
        avg.push(fmt_gm_pair(lats, pows));
    }
    rows.push(avg);
    let headers: Vec<String> =
        std::iter::once("trace".to_string()).chain(designs.iter().cloned()).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("Normalised latency/power", &header_refs, &rows);
    artifact::write_csv_logged("results/csv/fig8.csv", &header_refs, &rows);
    println!("\nPaper anchors (averages over the probabilistic traces):");
    println!("  Baseline 8B: 1.04 / 0.52      Baseline 4B: 1.27 / 0.28");
    println!("  Static   4B: 1.11 / 0.33      Adaptive 4B: 0.99 / 0.38");
}

// ------------------------------------------------------------------ fig9

const FIG9_LOCALITIES: [f64; 2] = [0.2, 0.5];

fn build_fig9(opts: &SuiteOptions) -> Plan {
    let mut workloads = Vec::new();
    for &locality in &FIG9_LOCALITIES {
        let tag = (locality * 100.0) as u32;
        for trace in traces(opts) {
            workloads.push(labeled(
                format!("{}+MC{tag}", trace.name()),
                multicast_workload(trace, locality),
            ));
        }
    }
    SweepSpec::new("fig9")
        .designs(vec![
            Design::new("Baseline", Architecture::Baseline, LinkWidth::B16),
            Design::new("VCT", Architecture::VctMulticast, LinkWidth::B16),
            Design::new(
                "MC",
                Architecture::RfMulticast { access_points: 50 },
                LinkWidth::B16,
            ),
            Design::new(
                "MC+SC",
                Architecture::AdaptiveWithMulticast { access_points: 50, shortcut_budget: 15 },
                LinkWidth::B16,
            ),
        ])
        .workloads(workloads)
        .sims(default_sim(opts))
        .baseline(BaselineSel::design("Baseline"))
        .expand()
}

fn render_fig9(results: &PlanResults, _opts: &SuiteOptions) {
    for &locality in &FIG9_LOCALITIES {
        let tag = (locality * 100.0) as u32;
        let suffix = format!("+MC{tag}");
        norm_table(
            &format!("Locality {tag}% — normalised latency/power vs 16B baseline"),
            results,
            |r| r.point.labels.workload.ends_with(&suffix),
            &format!("results/csv/fig9_loc{tag}.csv"),
        );
    }
    println!("\nPaper averages: VCT-20 ≈ 0.97/1.0, MC ≈ 0.86/1.11, MC+SC ≈ 0.63/1.25");
}

// ----------------------------------------------------------------- fig10

fn build_fig10(opts: &SuiteOptions) -> Plan {
    let unicast = SweepSpec::new("fig10a")
        .designs(Design::cross(
            &[
                ("Mesh Baseline", Architecture::Baseline),
                ("Mesh Wire Shortcuts", Architecture::WireShortcuts),
                ("Mesh Static Shortcuts", Architecture::StaticShortcuts),
                ("Mesh Adaptive Shortcuts", adaptive50()),
            ],
            &LinkWidth::all(),
        ))
        .workloads(trace_workloads(opts))
        .sims(default_sim(opts))
        .baseline(BaselineSel::design(format!("Mesh Baseline @{}", LinkWidth::B16)))
        .expand();
    let mc_workloads: Vec<Labeled<WorkloadSpec>> = traces(opts)
        .into_iter()
        .map(|t| labeled(format!("{}+MC20", t.name()), multicast_workload(t, 0.2)))
        .collect();
    let multicast = SweepSpec::new("fig10b")
        .designs(Design::cross(
            &[
                ("Mesh Baseline", Architecture::Baseline),
                ("RF Multicast", Architecture::RfMulticast { access_points: 50 }),
                ("Adaptive Shortcuts", adaptive50()),
                (
                    "Adaptive + RF Multicast",
                    Architecture::AdaptiveWithMulticast {
                        access_points: 50,
                        shortcut_budget: 15,
                    },
                ),
            ],
            &LinkWidth::all(),
        ))
        .workloads(mc_workloads)
        .sims(default_sim(opts))
        .baseline(BaselineSel::design(format!("Mesh Baseline @{}", LinkWidth::B16)))
        .expand();
    Plan::merge([unicast, multicast])
}

fn render_fig10(results: &PlanResults, _opts: &SuiteOptions) {
    for (prefix, title) in [
        ("fig10a/", "Figure 10a: unicast architectures"),
        ("fig10b/", "Figure 10b: multicast architectures (traces + coherence multicasts)"),
    ] {
        let mut designs: Vec<String> = Vec::new();
        for r in results.iter().filter(|r| r.point.id.starts_with(prefix)) {
            if !designs.contains(&r.point.labels.design) {
                designs.push(r.point.labels.design.clone());
            }
        }
        let mut rows = Vec::new();
        for design in &designs {
            let (mut lats, mut pows) = (Vec::new(), Vec::new());
            for r in results.iter().filter(|r| {
                r.point.id.starts_with(prefix) && r.point.labels.design == *design
            }) {
                let (lat, pow) = r.normalized.unwrap_or((1.0, 1.0));
                lats.push(lat);
                pows.push(pow);
            }
            // Figure 10 plots normalised *performance* (1/latency) on the
            // x-axis and normalised power on the y-axis.
            let (Some(latency), Some(power)) = (geomean(&lats), geomean(&pows)) else {
                continue;
            };
            rows.push(vec![
                design.clone(),
                format!("{:.2}", 1.0 / latency),
                format!("{power:.2}"),
                format!("{latency:.2}"),
            ]);
        }
        let headers = ["design", "norm. performance", "norm. power", "norm. latency"];
        print_table(title, &headers, &rows);
        artifact::write_csv_logged(
            &format!("results/csv/{}.csv", prefix.trim_end_matches('/')),
            &headers,
            &rows,
        );
    }
    println!(
        "\nPaper headline: adaptive RF-I on a 4B mesh ≈ baseline performance at \
         ~35% power; adaptive + RF multicast on 4B ≈ +15% performance at ~31% power."
    );
}

// ------------------------------------------------------------ app_traces

fn build_app_traces(opts: &SuiteOptions) -> Plan {
    let mut apps = AppProfile::paper_suite();
    if opts.quick {
        apps.truncate(2);
    }
    SweepSpec::new("app_traces")
        .designs(vec![
            Design::new("Baseline", Architecture::Baseline, LinkWidth::B16),
            Design::new("Adaptive @4B", adaptive50(), LinkWidth::B4),
        ])
        .workloads(apps.into_iter().map(|p| labeled(p.name, WorkloadSpec::App(p))).collect())
        .sims(default_sim(opts))
        .baseline(BaselineSel::design("Baseline"))
        .expand()
}

fn render_app_traces(results: &PlanResults, _opts: &SuiteOptions) {
    let mut rows = Vec::new();
    let (mut lats, mut pows) = (Vec::new(), Vec::new());
    for r in results.iter().filter(|r| r.point.labels.design == "Adaptive @4B") {
        let baseline =
            results.expect(r.point.baseline_id.as_deref().expect("paired"));
        let (lat, pow) = r.normalized.expect("paired");
        lats.push(lat);
        pows.push(pow);
        rows.push(vec![
            r.point.labels.workload.clone(),
            format!("{:.1}", baseline.report.avg_latency()),
            format!("{:.1}", r.report.avg_latency()),
            format!("{lat:.2}"),
            format!("{:.0}%", (1.0 - pow) * 100.0),
        ]);
    }
    rows.push(vec![
        "**average**".to_string(),
        String::new(),
        String::new(),
        geomean(&lats).map_or("-".into(), |g| format!("{g:.2}")),
        geomean(&pows).map_or("-".into(), |g| format!("{:.0}%", (1.0 - g) * 100.0)),
    ]);
    let headers =
        ["app", "base lat (cyc)", "adaptive lat (cyc)", "norm. latency", "power saving"];
    print_table("Adaptive @4B normalised to 16B baseline", &headers, &rows);
    artifact::write_csv_logged("results/csv/app_traces.csv", &headers, &rows);
    println!("\nPaper: ~67% average power saving at comparable latency.");
}

// -------------------------------------------------- ablation_injection

fn injection_rates(opts: &SuiteOptions) -> Vec<f64> {
    if opts.quick {
        vec![0.004, 0.012]
    } else {
        vec![0.002, 0.004, 0.008, 0.012, 0.016, 0.020]
    }
}

fn rate_traffics(rates: &[f64]) -> Vec<Labeled<TrafficConfig>> {
    rates
        .iter()
        .map(|&rate| {
            labeled(
                format!("{rate}"),
                TrafficConfig { injection_rate: rate, ..TrafficConfig::default() },
            )
        })
        .collect()
}

fn build_ablation_injection(opts: &SuiteOptions) -> Plan {
    SweepSpec::new("ablation_injection")
        .designs(vec![
            Design::new("base 16B", Architecture::Baseline, LinkWidth::B16),
            Design::new("base 4B", Architecture::Baseline, LinkWidth::B4),
            Design::new("static 16B", Architecture::StaticShortcuts, LinkWidth::B16),
            Design::new("adaptive 4B", adaptive50(), LinkWidth::B4),
        ])
        .workloads(vec![labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform))])
        .sims(vec![labeled(
            "default",
            windows(opts, SimConfig::paper_baseline(), 2_000, 25_000),
        )])
        .traffics(rate_traffics(&injection_rates(opts)))
        .expand()
}

fn render_ablation_injection(results: &PlanResults, opts: &SuiteOptions) {
    let designs = ["base 16B", "base 4B", "static 16B", "adaptive 4B"];
    let mut rows = Vec::new();
    for rate in injection_rates(opts) {
        let mut row = vec![format!("{rate}")];
        for design in designs {
            let r = results
                .iter()
                .find(|r| {
                    r.point.labels.traffic == format!("{rate}")
                        && r.point.labels.design == design
                })
                .expect("full cross product");
            row.push(fmt_lat(r));
        }
        rows.push(row);
    }
    print_table(
        "Average message latency in cycles (* = saturated)",
        &["rate (msg/node/cyc)", "base 16B", "base 4B", "static 16B", "adaptive 4B"],
        &rows,
    );
    println!(
        "\nExpectation: the 4B baseline saturates earliest; adaptive RF-I\n\
         pushes the 4B mesh's saturation point back toward the 16B baseline's."
    );
}

// ------------------------------------------------- ablation_escape_vcs

fn escape_counts(opts: &SuiteOptions) -> Vec<usize> {
    if opts.quick {
        vec![2, 8]
    } else {
        vec![1, 2, 4, 8, 12]
    }
}

fn build_ablation_escape_vcs(opts: &SuiteOptions) -> Plan {
    let sims = escape_counts(opts)
        .into_iter()
        .map(|escape| {
            let mut sim = windows(opts, SimConfig::paper_baseline(), 2_000, 30_000);
            sim.vcs_escape = escape;
            labeled(format!("{escape}"), sim)
        })
        .collect();
    SweepSpec::new("ablation_escape_vcs")
        .designs(vec![Design::new("Adaptive-50", adaptive50(), LinkWidth::B16)])
        .workloads(vec![labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1))])
        .sims(sims)
        .traffics(vec![labeled(
            "0.01",
            TrafficConfig { injection_rate: 0.01, ..TrafficConfig::default() },
        )])
        .expand()
}

fn render_ablation_escape_vcs(results: &PlanResults, _opts: &SuiteOptions) {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.point.labels.sim.clone(),
                format!("{:.1}", r.report.avg_latency()),
                format!("{:.3}", r.report.stats.completion_rate()),
                if r.report.stats.saturated { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    print_table(
        "1Hotspot at elevated load (0.01 msg/node/cycle)",
        &["escape VCs", "latency (cyc)", "completion rate", "saturated"],
        &rows,
    );
    println!("\nThe paper's choice of 8 escape VCs sits on the flat part of the curve.");
}

// ------------------------------------------- ablation_adaptive_routing

fn detour_rates(opts: &SuiteOptions) -> Vec<f64> {
    if opts.quick {
        vec![0.008, 0.016]
    } else {
        vec![0.004, 0.008, 0.012, 0.016]
    }
}

fn build_ablation_adaptive_routing(opts: &SuiteOptions) -> Plan {
    let sims = [("detour on", true), ("detour off", false)]
        .into_iter()
        .map(|(label, detour)| {
            let mut sim = windows(opts, SimConfig::paper_baseline(), 2_000, 25_000);
            sim.adaptive_shortcut_routing = detour;
            labeled(label, sim)
        })
        .collect();
    SweepSpec::new("ablation_adaptive_routing")
        .designs(vec![Design::new("Adaptive-50 @4B", adaptive50(), LinkWidth::B4)])
        .workloads(vec![labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1))])
        .sims(sims)
        .traffics(rate_traffics(&detour_rates(opts)))
        .baseline(BaselineSel::sim("detour on"))
        .expand()
}

fn render_ablation_adaptive_routing(results: &PlanResults, opts: &SuiteOptions) {
    let mut rows = Vec::new();
    for rate in detour_rates(opts) {
        let traffic = format!("{rate}");
        let find = |sim: &str| {
            results
                .iter()
                .find(|r| r.point.labels.traffic == traffic && r.point.labels.sim == sim)
                .expect("full cross product")
        };
        let with = find("detour on");
        let without = find("detour off");
        let benefit = without.normalized.map_or(0.0, |(lat, _)| (lat - 1.0) * 100.0);
        rows.push(vec![
            traffic.clone(),
            fmt_lat(with),
            fmt_lat(without),
            format!("{benefit:+.1}%"),
        ]);
    }
    print_table(
        "Average latency with/without the mesh detour (* = saturated)",
        &["rate (msg/node/cyc)", "detour on", "detour off", "detour benefit"],
        &rows,
    );
}

// ------------------------------------------------------- mesh_scaling

/// Grid sides of the scaling sweep. Quick mode keeps the paper size plus
/// 32x32 — large enough to exercise the incremental selector and the
/// ring-mesh gateways end-to-end, small enough for CI.
fn scaling_sides(opts: &SuiteOptions) -> Vec<usize> {
    if opts.quick {
        vec![10, 32]
    } else {
        vec![10, 16, 32, 64]
    }
}

/// Ring-mesh tile edge for a given side: 5 divides the paper's 10, every
/// other swept side is a multiple of 4.
fn ring_tile(side: usize) -> usize {
    if side.is_multiple_of(4) {
        4
    } else {
        5
    }
}

/// Both fabrics at one size, labelled for the placement dimension.
fn scaling_fabrics(side: usize) -> Vec<(String, FabricSpec)> {
    let dims = GridDims::new(side, side);
    vec![
        (format!("{side}x{side}-mesh"), FabricSpec::mesh(dims)),
        (format!("{side}x{side}-ring"), FabricSpec::ring_mesh(dims, ring_tile(side))),
    ]
}

fn build_mesh_scaling(opts: &SuiteOptions) -> Plan {
    let plans = scaling_sides(opts).into_iter().map(|side| {
        let nodes = side * side;
        SweepSpec::new(format!("mesh_scaling/{side}x{side}"))
            .designs(vec![
                Design::new("mesh-only", Architecture::Baseline, LinkWidth::B16),
                // Static rather than adaptive: it runs the same
                // shortcut selection without the O(n^2) pair-weight
                // profiling pass, which is what keeps 64x64 tractable.
                Design::new("RF overlay", Architecture::StaticShortcuts, LinkWidth::B16),
            ])
            .workloads(vec![labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform))])
            .sims(vec![labeled(
                "default",
                windows(opts, SimConfig::paper_baseline(), 2_000, 25_000),
            )])
            .traffics(vec![labeled(
                "scaled",
                // Keep total offered load roughly constant as the fabric
                // grows, so large grids measure distance, not saturation.
                TrafficConfig {
                    injection_rate: 0.008 * 100.0 / nodes as f64,
                    ..TrafficConfig::default()
                },
            )])
            .placements(
                scaling_fabrics(side)
                    .into_iter()
                    .map(|(label, fabric)| {
                        labeled(label, Placement::quadrant_clusters_on(fabric))
                    })
                    .collect(),
            )
            .baseline(BaselineSel::design("mesh-only"))
            .expand()
    });
    Plan::merge(plans)
}

fn render_mesh_scaling(results: &PlanResults, opts: &SuiteOptions) {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut points = Vec::new();
    for side in scaling_sides(opts) {
        for (placement, _) in scaling_fabrics(side) {
            let fabric_kind = placement.split('-').next_back().unwrap_or("mesh");
            let find = |design: &str| {
                results
                    .iter()
                    .find(|r| {
                        r.point.labels.placement == placement
                            && r.point.labels.design == design
                    })
                    .expect("full cross product")
            };
            let base = find("mesh-only");
            let rf = find("RF overlay");

            // The RF design's selection, as the run itself timed it — the
            // path the incremental selector has to keep in seconds at
            // 64x64. (Zero if another point of a larger plan had already
            // paid for this design.)
            let build_ms = rf.report.build_wall.as_secs_f64() * 1e3;
            let shortcuts = rf.report.shortcuts;

            let throughput = |r: &crate::runner::PointResult| {
                let wall = r.wall.as_secs_f64().max(1e-9);
                let grants: u64 = r.report.stats.port_flits.iter().sum();
                (r.report.stats.end_cycle as f64 / wall, grants as f64 / wall)
            };
            let (cps, _) = throughput(rf);
            let norm_lat = rf
                .normalized
                .map_or_else(|| "-".into(), |(lat, _)| format!("{lat:.2}"));
            rows.push(vec![
                format!("{side}x{side}"),
                fabric_kind.to_string(),
                format!("{:.1}", base.report.avg_latency()),
                norm_lat.clone(),
                format!("{:.2}", base.report.stats.avg_hops()),
                format!("{:.2}", rf.report.stats.avg_hops()),
                format!("{build_ms:.0}"),
                format!("{:.0}k", cps / 1e3),
            ]);
            csv.push(vec![
                side.to_string(),
                fabric_kind.to_string(),
                format!("{:.3}", base.report.avg_latency()),
                format!("{:.3}", rf.report.avg_latency()),
                norm_lat,
                format!("{:.3}", base.report.stats.avg_hops()),
                format!("{:.3}", rf.report.stats.avg_hops()),
                shortcuts.to_string(),
                format!("{build_ms:.1}"),
                format!("{cps:.0}"),
            ]);
            for (label, r) in [("mesh-only", base), ("rf", rf)] {
                let (cps, gps) = throughput(r);
                let r4 = |v: f64| rounded(v, 4);
                // Routes, base routes and router wiring of this design,
                // as its run timed them.
                let network_new_ms = r.report.network_wall.as_secs_f64() * 1e3;
                points.push(
                    Json::obj()
                        .field("side", side)
                        .field("fabric", fabric_kind)
                        .field("design", label)
                        .field("avg_latency_cycles", r4(r.report.avg_latency()))
                        .field("avg_hops", r4(r.report.stats.avg_hops()))
                        .field("saturated", r.report.stats.saturated)
                        .field("shortcuts", shortcuts)
                        .field("build_ms", r4(build_ms))
                        .field("network_new_ms", r4(network_new_ms))
                        .field("sim_wall_ms", r4(r.wall.as_secs_f64() * 1e3))
                        .field("cycles_per_sec", r4(cps))
                        .field("flit_grants_per_sec", r4(gps)),
                );
            }
        }
    }
    print_table(
        "Uniform trace, 16B links, load scaled to keep total injection constant",
        &[
            "grid",
            "fabric",
            "base lat (cyc)",
            "rf lat (norm)",
            "base hops",
            "rf hops",
            "rf build (ms)",
            "sim cyc/s",
        ],
        &rows,
    );
    artifact::write_csv_logged(
        "results/csv/mesh_scaling.csv",
        &[
            "side",
            "fabric",
            "base_latency",
            "rf_latency",
            "rf_latency_norm",
            "base_hops",
            "rf_hops",
            "shortcuts",
            "rf_build_ms",
            "sim_cycles_per_sec",
        ],
        &csv,
    );
    // The build-time and simulator-throughput record of the scaling
    // sweep, validated by the CI `scaling-smoke` job.
    let name = "BENCH_mesh_scaling";
    let doc = artifact::header(name).field("quick", opts.quick).field("points", Json::Arr(points));
    artifact::write_artifact(name, &doc);
    println!(
        "\nExpectation: normalised RF latency falls as the grid grows\n\
         (single-cycle shortcuts replace ever-longer multi-hop paths), the\n\
         ring-mesh trades a few extra hops for half the base links, and the\n\
         RF build column stays under a second even at 64x64 thanks to the\n\
         incremental selector."
    );
}

// -------------------------------------------------------- fault_sweep

const FAULT_SEED: u64 = 0xF00D;

fn fault_factors(opts: &SuiteOptions) -> Vec<f64> {
    if opts.quick {
        vec![0.0, 2.0]
    } else {
        vec![0.0, 1.0, 2.0, 4.0]
    }
}

/// Baseline expected event counts at fault factor 1.0.
fn base_fault_rates() -> FaultRates {
    FaultRates {
        shortcut_failures: 2.0,
        mesh_link_failures: 1.0,
        glitches: 8.0,
        repair_after: None,
    }
}

fn build_fault_sweep(opts: &SuiteOptions) -> Plan {
    // The fault dimension rides the campaign machinery: factor 0.0 is the
    // fault-free baseline, positive factors scale the random-rate plan.
    let faults = campaign::fault_dimension(&fault_factors(opts), |factor| {
        FaultSpec::Random { seed: FAULT_SEED, rates: base_fault_rates().scaled(factor) }
    });
    SweepSpec::new("fault_sweep")
        .designs(vec![
            Design::new("static", Architecture::StaticShortcuts, LinkWidth::B16),
            Design::new("adaptive", adaptive50(), LinkWidth::B16),
        ])
        .workloads(vec![labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1))])
        .sims(vec![labeled(
            "default",
            windows(opts, SimConfig::paper_baseline(), 2_000, 30_000),
        )])
        .faults(faults)
        .baseline(BaselineSel::fault(campaign::intensity_label(0.0)))
        .expand()
}

fn render_fault_sweep(results: &PlanResults, _opts: &SuiteOptions) {
    let mut rows = Vec::new();
    for r in results.iter() {
        let stats = &r.report.stats;
        let clean = r
            .point
            .baseline_id
            .as_deref()
            .map_or(r, |id| results.expect(id));
        let throughput_x = if clean.report.stats.completed_messages > 0 {
            stats.completed_messages as f64 / clean.report.stats.completed_messages as f64
        } else {
            1.0
        };
        rows.push(vec![
            r.point.labels.design.clone(),
            r.point.labels.fault.clone(),
            format!("{}/{}", stats.shortcut_faults, stats.mesh_link_faults),
            format!("{:.1}", r.report.avg_latency()),
            format!("{:.3}", r.normalized.map_or(1.0, |(lat, _)| lat)),
            format!("{throughput_x:.3}"),
            format!("{:.4}", stats.completion_rate()),
            match &stats.health {
                Some(h) => h.diagnosis.to_string(),
                None => "-".into(),
            },
        ]);
    }
    let headers = [
        "design",
        "fault factor",
        "SC/mesh faults",
        "latency (cyc)",
        "latency vs clean",
        "throughput vs clean",
        "completion",
        "health",
    ];
    print_table("Graceful degradation (1Hotspot, 16B mesh)", &headers, &rows);
    artifact::write_csv_logged("results/csv/fault_sweep.csv", &headers, &rows);
    println!(
        "\nThe full per-point data (tail latencies, wall times, provenance) \
         is in results/json/fault_sweep.json."
    );
}

// --------------------------------------------------------- resilience

fn build_resilience(opts: &SuiteOptions) -> Plan {
    campaign::CampaignSpec::resilience(opts).plan()
}

fn render_resilience(results: &PlanResults, opts: &SuiteOptions) {
    campaign::render_campaign(results, opts);
}

// ---------------------------------------------------------- tune_load

fn tune_points(opts: &SuiteOptions) -> Vec<(f64, f64, f64)> {
    if opts.quick {
        vec![(0.006, 0.30, 4.0), (0.010, 0.30, 4.0)]
    } else {
        vec![
            (0.004, 0.25, 4.0),
            (0.006, 0.30, 4.0),
            (0.008, 0.30, 4.0),
            (0.008, 0.35, 5.0),
            (0.010, 0.30, 4.0),
        ]
    }
}

fn build_tune_load(opts: &SuiteOptions) -> Plan {
    let traffics = tune_points(opts)
        .into_iter()
        .map(|(rate, hot_frac, hot_mult)| {
            labeled(
                format!("rate {rate}, hot_frac {hot_frac}, hot_mult {hot_mult}"),
                TrafficConfig {
                    injection_rate: rate,
                    hot_fraction: hot_frac,
                    hot_multiplier: hot_mult,
                    ..TrafficConfig::default()
                },
            )
        })
        .collect();
    SweepSpec::new("tune_load")
        .designs(vec![
            Design::new("base 16B", Architecture::Baseline, LinkWidth::B16),
            Design::new("static 16B", Architecture::StaticShortcuts, LinkWidth::B16),
            Design::new("adapt 16B", adaptive50(), LinkWidth::B16),
            Design::new("base 4B", Architecture::Baseline, LinkWidth::B4),
            Design::new("adapt 4B", adaptive50(), LinkWidth::B4),
        ])
        .workloads(vec![
            labeled("Uniform", WorkloadSpec::Trace(TraceKind::Uniform)),
            labeled("1Hotspot", WorkloadSpec::Trace(TraceKind::Hotspot1)),
        ])
        .sims(default_sim(opts))
        .traffics(traffics)
        .baseline(BaselineSel::design("base 16B"))
        .expand()
}

fn render_tune_load(results: &PlanResults, _opts: &SuiteOptions) {
    let mut traffics: Vec<String> = Vec::new();
    for r in results.iter() {
        if !traffics.contains(&r.point.labels.traffic) {
            traffics.push(r.point.labels.traffic.clone());
        }
    }
    for traffic in &traffics {
        println!("=== {traffic} ===");
        for workload in ["Uniform", "1Hotspot"] {
            let find = |design: &str| {
                results
                    .iter()
                    .find(|r| {
                        r.point.labels.traffic == *traffic
                            && r.point.labels.workload == workload
                            && r.point.labels.design == design
                    })
                    .expect("full cross product")
            };
            let base16 = find("base 16B");
            let n = |design: &str| {
                let r = find(design);
                format!(
                    "{:.2}{}",
                    r.normalized.map_or(1.0, |(lat, _)| lat),
                    if r.report.stats.saturated { "*" } else { "" }
                )
            };
            println!(
                "  {workload:<10} base16 {:.1}cyc | static16 {} adapt16 {} base4 {} adapt4 {}",
                base16.report.avg_latency(),
                n("static 16B"),
                n("adapt 16B"),
                n("base 4B"),
                n("adapt 4B"),
            );
        }
    }
}

// -------------------------------------------------------- entry points

/// Flags of `run_all` (its own and the runner's) that take a value, so
/// the value is not mistaken for a figure name.
const VALUE_FLAGS: [&str; 6] =
    ["--jobs", "-j", "--sim-threads", "--ledger", "--obs-port", "--filter"];

/// Writes a figure's plan artifact, `results/json/<name>.json`.
fn write_plan_artifact(name: &str, results: &PlanResults) {
    artifact::write_artifact(name, &artifact::plan_artifact(name, results));
}

/// A `run_all` name: a figure first, else a table.
enum Entry {
    Figure(Figure),
    Table(Table),
}

fn entry(name: &str) -> Option<Entry> {
    figure(name)
        .map(Entry::Figure)
        .or_else(|| tables().into_iter().find(|t| t.name == name).map(Entry::Table))
}

/// The `run_all` binary, the one entry point of the paper suite.
///
/// `run_all <name>...` runs each named figure or table on its own. A
/// figure builds its plan, runs it in parallel, renders its tables and
/// writes `results/json/<name>.json`; a table prints itself. An unknown
/// name lists both registries on stderr and exits 2.
///
/// Without names, every suite figure (optionally filtered by `--filter
/// <substring>`, extended with `--all` to include probes) is merged into
/// one plan and executed as a single parallel run; each figure's tables
/// and artifacts are then rendered from the shared results. The tables
/// the same filters select run after it.
pub fn run_all_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = SuiteOptions { quick: args.iter().any(|a| a == "--quick") };
    let cfg = RunnerConfig::from_args();
    let sink = LedgerSink::from_config(&cfg);
    let include_probes = args.iter().any(|a| a == "--all");
    let (mut names, mut filters) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--filter" {
            filters.extend(it.next().map(String::as_str));
        } else if VALUE_FLAGS.contains(&arg.as_str()) {
            it.next();
        } else if !arg.starts_with('-') {
            names.push(arg.as_str());
        }
    }

    if !names.is_empty() {
        let named: Vec<Entry> = names.iter().filter_map(|n| entry(n)).collect();
        if named.len() < names.len() {
            let figures: Vec<&str> = figures().iter().map(|f| f.name).collect();
            let tables: Vec<&str> = tables().iter().map(|t| t.name).collect();
            eprintln!(
                "run_all: unknown name among {names:?}; figures: {}; tables: {}",
                figures.join(" "),
                tables.join(" ")
            );
            std::process::exit(2);
        }
        for entry in &named {
            match entry {
                Entry::Figure(fig) => run_figure(fig, &opts, &cfg, &sink),
                Entry::Table(table) => (table.run)(&opts),
            }
        }
        return;
    }

    let matches = |name: &str| filters.is_empty() || filters.iter().any(|flt| name.contains(flt));
    let selected: Vec<Figure> = figures()
        .into_iter()
        .filter(|f| f.in_suite || include_probes || !filters.is_empty())
        .filter(|f| matches(f.name))
        .collect();
    let selected_tables: Vec<Table> = tables().into_iter().filter(|t| matches(t.name)).collect();
    if selected.is_empty() && selected_tables.is_empty() {
        eprintln!("run_all: no figures or tables match the filter(s) {filters:?}");
        std::process::exit(2);
    }
    eprintln!(
        "run_all: regenerating {} figure(s) and {} table(s){}{}",
        selected.len(),
        selected_tables.len(),
        if opts.quick { " [quick]" } else { "" },
        if filters.is_empty() { String::new() } else { format!(" (filters {filters:?})") },
    );
    if !selected.is_empty() {
        run_merged(&selected, &opts, &cfg, &sink);
    }
    for table in &selected_tables {
        println!();
        (table.run)(&opts);
    }
}

/// Runs one figure as its own plan.
fn run_figure(fig: &Figure, opts: &SuiteOptions, cfg: &RunnerConfig, sink: &LedgerSink) {
    println!("# {}", fig.title);
    let plan = (fig.build)(opts);
    let results = run_plan_with(&plan, cfg, sink);
    (fig.render)(&results, opts);
    write_plan_artifact(fig.name, &results);
    eprintln!(
        "{}: {} points in {:.2?} on {} thread(s) (serial cost {:.2?})",
        fig.name,
        plan.len(),
        results.total_wall,
        results.jobs,
        results.points_wall
    );
}

/// Runs `selected` as one merged plan and renders each figure from the
/// shared results.
fn run_merged(selected: &[Figure], opts: &SuiteOptions, cfg: &RunnerConfig, sink: &LedgerSink) {
    let plans: Vec<Plan> = selected.iter().map(|f| (f.build)(opts)).collect();
    let merged = Plan::merge(plans.iter().cloned());
    let results = run_plan_with(&merged, cfg, sink);

    for (fig, plan) in selected.iter().zip(&plans) {
        println!("\n# {}", fig.title);
        let sub = results.subset(plan);
        (fig.render)(&sub, opts);
        write_plan_artifact(fig.name, &sub);
    }
    write_plan_artifact("run_all", &results);
    let speedup = results.points_wall.as_secs_f64() / results.total_wall.as_secs_f64().max(1e-9);
    println!(
        "\nrun_all: {} points ({} unique experiments) in {:.2?} on {} thread(s); \
         serial cost {:.2?} ({speedup:.2}x)",
        merged.len(),
        results.unique_runs,
        results.total_wall,
        results.jobs,
        results.points_wall,
    );
}
