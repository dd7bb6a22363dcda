//! Trace recording/replay tool (the paper's §4.2 methodology).
//!
//! Records any built-in workload into the `rfnoc-trace v1` text format and
//! replays trace files against any architecture, so a captured trace can be
//! swept across design points without regenerating traffic — exactly how
//! the paper reused its Simics captures across Garnet configurations.
//!
//! ```sh
//! # record 100k cycles of the 1Hotspot trace
//! cargo run --release -p rfnoc-bench --bin trace_tool -- record 1hotspot /tmp/hotspot.trace
//!
//! # replay it on the adaptive 4B architecture
//! cargo run --release -p rfnoc-bench --bin trace_tool -- replay /tmp/hotspot.trace adaptive 4
//! ```

use rfnoc::{build_system, Architecture, SystemConfig, WorkloadSpec};
use rfnoc_power::{LinkWidth, NocPowerModel};
use rfnoc_sim::{Destination, Network, Workload};
use rfnoc_topology::PairWeights;
use rfnoc_traffic::{AppProfile, Placement, Trace, TraceKind, TrafficConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool record <workload> <file> [cycles]\n  \
         trace_tool replay <file> <baseline|static|adaptive> [16|8|4]\n\n\
         workloads: uniform unidf bidf hotbidf 1hotspot 2hotspot 4hotspot\n\
         \u{20}          x264 bodytrack fluidanimate streamcluster specjbb"
    );
    ExitCode::FAILURE
}

fn workload_by_name(name: &str) -> Option<WorkloadSpec> {
    if let Some(kind) = TraceKind::all()
        .into_iter()
        .find(|t| t.name().eq_ignore_ascii_case(name))
    {
        return Some(WorkloadSpec::Trace(kind));
    }
    AppProfile::paper_suite()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
        .map(WorkloadSpec::App)
}

fn record(args: &[String]) -> ExitCode {
    let [name, path, rest @ ..] = args else { return usage() };
    let cycles: u64 = rest.first().and_then(|c| c.parse().ok()).unwrap_or(100_000);
    let Some(spec) = workload_by_name(name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::FAILURE;
    };
    let placement = Placement::paper_10x10();
    let mut workload = spec.instantiate(&placement, &TrafficConfig::default());
    let trace = Trace::record(workload.as_mut(), cycles);
    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = trace.write_to(BufWriter::new(file)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("recorded {} messages over {cycles} cycles to {path}", trace.len());
    ExitCode::SUCCESS
}

/// The first record that names a node outside a `nodes`-router network,
/// as `(record index, cycle, node)`.
fn first_foreign_node(trace: &Trace, nodes: usize) -> Option<(usize, u64, usize)> {
    trace.records().iter().enumerate().find_map(|(i, (cycle, msg))| {
        let dests: Vec<usize> = match msg.dest {
            Destination::Unicast(dst) => vec![dst],
            Destination::Multicast(set) => set.iter().collect(),
        };
        std::iter::once(msg.src).chain(dests).find(|&n| n >= nodes).map(|n| (i, *cycle, n))
    })
}

fn replay(args: &[String]) -> ExitCode {
    let [path, arch_name, rest @ ..] = args else { return usage() };
    let width = match rest.first().map(String::as_str) {
        None | Some("16") => LinkWidth::B16,
        Some("8") => LinkWidth::B8,
        Some("4") => LinkWidth::B4,
        Some(other) => {
            eprintln!("unknown width {other}");
            return ExitCode::FAILURE;
        }
    };
    let arch = match arch_name.as_str() {
        "baseline" => Architecture::Baseline,
        "static" => Architecture::StaticShortcuts,
        "adaptive" => Architecture::AdaptiveShortcuts { access_points: 50 },
        other => {
            eprintln!("unknown architecture {other}");
            return ExitCode::FAILURE;
        }
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::read_from(BufReader::new(file)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let placement = Placement::paper_10x10();
    let nodes = placement.dims().nodes();
    if let Some((i, cycle, node)) = first_foreign_node(&trace, nodes) {
        eprintln!(
            "{path}: record {} (cycle {cycle}) names node {node}, but the network has {nodes} nodes",
            i + 1
        );
        return ExitCode::FAILURE;
    }
    println!("replaying {} messages from {path}", trace.len());

    // Profile the trace itself for the adaptive architecture (§3.2.2's
    // event-counter statistics, here from the captured records).
    let profile = arch.is_adaptive().then(|| {
        let mut weights = PairWeights::zero(nodes);
        for (_, msg) in trace.records() {
            if let Destination::Unicast(dst) = msg.dest {
                weights.add(msg.src, dst, 1.0);
            }
        }
        weights
    });
    let system = SystemConfig::new(arch, width);
    let built = build_system(&system, &placement, profile.as_ref());
    let mut network = Network::new(built.network.clone());
    let mut workload = trace.into_workload();
    let stats = network.run(&mut workload as &mut dyn Workload);
    let model = NocPowerModel::paper_32nm();
    let power = model.power(&built.design, &stats.activity);
    let area = model.area(&built.design);
    println!(
        "latency {:.1} cycles over {} messages; power {:.3} W; area {:.2} mm2{}",
        stats.avg_message_latency(),
        stats.completed_messages,
        power.total_w(),
        area.total_mm2(),
        if stats.saturated { " [SATURATED]" } else { "" }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "record" => record(rest),
        Some((cmd, rest)) if cmd == "replay" => replay(rest),
        _ => usage(),
    }
}
