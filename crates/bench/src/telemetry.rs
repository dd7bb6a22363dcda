//! Telemetry artifacts: JSON export and link-utilization helpers for
//! [`rfnoc_sim::TelemetryReport`] time series.
//!
//! The simulator's telemetry layer produces interval samples, packet
//! spans, and a fault/retune event timeline; this module turns one run's
//! report into the repo's standard artifact, `results/json/<name>.json`.
//! The per-interval table is [`rfnoc::timeline::timeline_table`]; the SVG
//! congestion heatmap lives in [`crate::svg`].

use crate::artifact::header;
use rfnoc::json::{rounded, Json};
use rfnoc::timeline::sample_mesh_utilization;
use rfnoc_sim::{latency_bucket_bounds, RunStats, TelemetryReport, LATENCY_BUCKETS};

/// Output ports per router on the plain mesh (N, S, E, W, Local, RF) —
/// mirrors the simulator's mesh port order. Reports from other fabrics
/// carry their own stride in [`TelemetryReport::ports`]; use
/// [`port_name`] instead of indexing [`PORT_NAMES`] directly.
pub const NUM_PORTS: usize = 6;

/// Display names of the six mesh output ports.
pub const PORT_NAMES: [&str; NUM_PORTS] = ["N", "S", "E", "W", "Local", "RF"];

/// Index of the first non-mesh port (Local) on the plain mesh; ports
/// `0..MESH_PORTS` are the four conventional mesh links.
pub const MESH_PORTS: usize = 4;

/// Display name of output port `port` for a report's fabric: the mesh
/// names when the stride matches the mesh, generic `p<N>` slots otherwise
/// (ring-mesh routers have per-router degrees, so flat slots have no
/// single global meaning).
pub fn port_name(report: &TelemetryReport, port: usize) -> String {
    if report.ports == NUM_PORTS && port < NUM_PORTS {
        PORT_NAMES[port].to_string()
    } else {
        format!("p{port}")
    }
}

/// Number of fabric (non local/RF) port slots in a report's stride.
fn fabric_slots(report: &TelemetryReport) -> usize {
    report.ports.saturating_sub(2)
}

/// Cycles covered by the report's samples (the whole run, warmup and
/// drain included).
pub fn covered_cycles(report: &TelemetryReport) -> u64 {
    report.samples.iter().map(|s| s.cycles).sum()
}

/// Whole-run utilization of one output port from the telemetry time
/// series: total grants over total cycles, against a per-cycle flit
/// capacity.
pub fn port_utilization(report: &TelemetryReport, r: usize, port: usize, capacity: u32) -> f64 {
    let cycles = covered_cycles(report);
    if cycles == 0 {
        return 0.0;
    }
    let grants = report.total_port_grants()[r * report.ports + port];
    grants as f64 / (cycles as f64 * f64::from(capacity.max(1)))
}

/// Per-router mean mesh-link utilization — the heat vector for
/// [`crate::svg::render_topology`], scaled so ~35% saturates the colour.
pub fn mesh_heat(report: &TelemetryReport) -> Vec<f64> {
    let slots = fabric_slots(report).max(1);
    (0..report.routers)
        .map(|r| {
            let mesh: f64 = (0..slots)
                .map(|p| port_utilization(report, r, p, 1))
                .sum::<f64>()
                / slots as f64;
            (mesh / 0.35).min(1.0)
        })
        .collect()
}

/// Flattened directed per-port utilization (`router * report.ports +
/// port`, capacity 1) for the link heatmap.
pub fn link_utilization(report: &TelemetryReport) -> Vec<f64> {
    let cycles = covered_cycles(report).max(1) as f64;
    report
        .total_port_grants()
        .iter()
        .map(|&g| g as f64 / cycles)
        .collect()
}

/// The `k` hottest output ports by total grants: `(router, port, grants)`
/// in descending order.
pub fn hottest_ports(report: &TelemetryReport, k: usize) -> Vec<(usize, usize, u64)> {
    let totals = report.total_port_grants();
    let mut ports: Vec<(usize, usize, u64)> = totals
        .iter()
        .enumerate()
        .map(|(i, &g)| (i / report.ports, i % report.ports, g))
        .collect();
    ports.sort_by_key(|&(_, _, g)| std::cmp::Reverse(g));
    ports.truncate(k);
    ports
}

/// Renders the full telemetry JSON artifact for one run.
///
/// The schema is flat: run provenance, whole-run link totals, the
/// per-endpoint completion counters from `stats`, a span digest, the
/// interval time series, and the event timeline.
pub fn render_json(name: &str, stats: &RunStats, report: &TelemetryReport) -> String {
    let r4 = |v: f64| rounded(v, 4);
    let completed_spans = report.spans.iter().filter(|s| s.is_complete()).count();
    let latency_sum: u64 =
        report.spans.iter().filter_map(rfnoc_sim::PacketSpan::latency).sum();
    let spans = Json::obj()
        .field("recorded", report.spans.len())
        .field("dropped", report.dropped_spans)
        .field("completed", completed_spans)
        .field("took_rf", report.spans.iter().filter(|s| s.took_rf).count())
        // NaN (no completed span) prints as null.
        .field("avg_latency_cycles", r4(latency_sum as f64 / completed_spans as f64));
    let samples = report.samples.iter().enumerate().map(|(i, s)| {
        Json::obj()
            .field("start", s.start)
            .field("cycles", s.cycles)
            .field("injected", s.injected)
            .field("ejected_flits", s.ejected_flits)
            .field("completed_packets", s.completed_packets)
            .field("in_flight_end", s.in_flight_end)
            .field("rf_grants", s.rf_grants)
            .field("rf_mc_flits", s.rf_mc_flits)
            .field("va_stalls", s.va_stalls)
            .field("sa_stalls", s.sa_stalls)
            .field("credit_stalls", s.credit_stalls)
            .field("mesh_utilization", r4(sample_mesh_utilization(report, i)))
            .field("peak_buffered", s.buffered_peak.iter().copied().max().unwrap_or(0))
            .field("latency_hist", Json::arr(s.latency_hist.iter().copied()))
    });
    let events = report.events.iter().map(|e| {
        Json::obj().field("cycle", e.cycle).field("kind", e.kind.to_string())
    });
    header(name)
        .field("interval", report.interval)
        .field("routers", report.routers)
        .field("profile", report.profile)
        .field("end_cycle", stats.end_cycle)
        .field("saturated", stats.saturated)
        .field("injected_messages", stats.injected_messages)
        .field("completed_messages", stats.completed_messages)
        .field("per_source", Json::arr(stats.per_source.iter().copied()))
        .field("per_dest", Json::arr(stats.per_dest.iter().copied()))
        .field("link_grants", Json::arr(report.total_port_grants()))
        .field("link_utilization", Json::arr(link_utilization(report).into_iter().map(r4)))
        .field("rf_grants_total", report.samples.iter().map(|s| s.rf_grants).sum::<u64>())
        .field("rf_mc_flits_total", report.samples.iter().map(|s| s.rf_mc_flits).sum::<u64>())
        .field("spans", spans)
        .field(
            "latency_bucket_lower_edges",
            Json::arr((0..LATENCY_BUCKETS).map(|i| latency_bucket_bounds(i).0)),
        )
        .field("samples", Json::arr(samples))
        .field("events", Json::arr(events))
        .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::{
        MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload, SimConfig,
        TelemetryConfig,
    };
    use rfnoc_topology::GridDims;

    fn telemetry_run() -> RunStats {
        let mut cfg = SimConfig::paper_baseline();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 400;
        cfg.drain_cycles = 5_000;
        cfg.telemetry = Some(TelemetryConfig::every(128));
        let spec = NetworkSpec::mesh_baseline(GridDims::new(4, 4), cfg);
        let mut network = Network::new(spec);
        // dst = 5·src+1 mod 16 never equals src (4·src+1 is odd).
        let events: Vec<(u64, MessageSpec)> = (0..60u64)
            .map(|i| {
                let src = (i % 16) as usize;
                let dst = ((i * 5 + 1) % 16) as usize;
                (i * 4, MessageSpec::unicast(src, dst, MessageClass::Data))
            })
            .collect();
        network.run(&mut ScriptedWorkload::new(events))
    }

    #[test]
    fn json_artifact_is_parseable_shape() {
        let stats = telemetry_run();
        let report = stats.telemetry.as_ref().expect("telemetry on");
        let json = render_json("TELEMETRY_test", &stats, report);
        // Structural smoke checks: balanced braces/brackets and the keys
        // the CI schema validator requires.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"interval\"",
            "\"samples\"",
            "\"events\"",
            "\"link_utilization\"",
            "\"per_source\"",
            "\"per_dest\"",
            "\"spans\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("NaN"), "JSON must not contain bare NaN");
    }

    #[test]
    fn utilization_helpers_are_consistent() {
        let stats = telemetry_run();
        let report = stats.telemetry.as_ref().expect("telemetry on");
        assert_eq!(covered_cycles(report), stats.end_cycle);
        let util = link_utilization(report);
        assert_eq!(report.ports, NUM_PORTS, "mesh run has the mesh stride");
        assert_eq!(util.len(), report.routers * report.ports);
        assert!(util.iter().all(|&u| u >= 0.0));
        assert!(util.iter().sum::<f64>() > 0.0, "traffic must show up");
        let hot = hottest_ports(report, 5);
        assert_eq!(hot.len(), 5);
        assert!(hot[0].2 >= hot[4].2, "sorted descending");
        let heat = mesh_heat(report);
        assert_eq!(heat.len(), report.routers);
        assert!(heat.iter().all(|&h| (0.0..=1.0).contains(&h)));
    }
}
