//! The per-interval telemetry timeline table shared by `rfnoc-cli run
//! --telemetry` and the bench binaries.

use rfnoc_sim::TelemetryReport;
use std::fmt::Write;

/// Mean mesh-link utilization of interval sample `i`: grants on the
/// fabric ports (every slot but Local and RF) over every router, against
/// a capacity of 1 flit per port per cycle.
pub fn sample_mesh_utilization(report: &TelemetryReport, i: usize) -> f64 {
    let s = &report.samples[i];
    if s.cycles == 0 {
        return 0.0;
    }
    let slots = report.ports.saturating_sub(2).max(1);
    let ports = report.ports;
    let mesh: u64 = (0..report.routers)
        .flat_map(|r| (0..slots).map(move |p| s.port_grants[r * ports + p]))
        .sum();
    mesh as f64 / (s.cycles as f64 * (report.routers * slots) as f64)
}

/// The per-interval timeline table: rates, mesh utilization, peak
/// occupancy, stall mix, and the events that fell inside each interval,
/// one line per row after a header line. Long runs are subsampled to
/// about `max_rows` evenly spaced rows; the last interval and every
/// interval with an event are always kept.
pub fn timeline_table(report: &TelemetryReport, max_rows: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>14} {:>8} {:>8} {:>9} {:>8} {:>8} {:>18}  events",
        "interval", "inj/cyc", "cmp/cyc", "mesh-util", "rf/cyc", "peak-buf", "va/sa/credit"
    );
    let n = report.samples.len();
    let stride = n.div_ceil(max_rows.max(1)).max(1);
    for (i, s) in report.samples.iter().enumerate() {
        let events: Vec<String> = report.events_in_sample(i).map(|e| e.kind.to_string()).collect();
        if i % stride != 0 && events.is_empty() && i + 1 != n {
            continue;
        }
        let cycles = s.cycles.max(1) as f64;
        let peak = s.buffered_peak.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>14} {:>8.3} {:>8.3} {:>8.1}% {:>8.3} {:>8} {:>18}  {}",
            format!("[{}, {})", s.start, s.start + s.cycles),
            s.injected as f64 / cycles,
            s.completed_packets as f64 / cycles,
            sample_mesh_utilization(report, i) * 100.0,
            s.rf_grants as f64 / cycles,
            peak,
            format!("{}/{}/{}", s.va_stalls, s.sa_stalls, s.credit_stalls),
            if events.is_empty() { "-".to_string() } else { events.join("; ") },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::{IntervalSample, TimelineEvent, TimelineEventKind, LATENCY_BUCKETS};

    /// One router with the six mesh ports; interval `i` covers
    /// `[10 i, 10 i + 10)` with `i + 1` grants on its north port.
    fn report(samples: usize) -> TelemetryReport {
        let sample = |i: usize| {
            let mut port_grants = vec![0; 6];
            port_grants[0] = i as u64 + 1;
            IntervalSample {
                start: 10 * i as u64,
                cycles: 10,
                ports: 6,
                port_grants,
                rf_grants: 5,
                rf_mc_flits: 0,
                buffered_cycles: vec![0],
                buffered_peak: vec![i as u32],
                injected: 20,
                ejected_flits: 0,
                completed_packets: 10,
                in_flight_end: 0,
                va_stalls: 1,
                sa_stalls: 2,
                credit_stalls: 3,
                latency_hist: [0; LATENCY_BUCKETS],
            }
        };
        TelemetryReport {
            interval: 10,
            profile: false,
            routers: 1,
            ports: 6,
            samples: (0..samples).map(sample).collect(),
            spans: Vec::new(),
            dropped_spans: 0,
            events: vec![TimelineEvent { cycle: 12, kind: TimelineEventKind::TablesRewritten }],
            hops: Vec::new(),
            dropped_hops: 0,
        }
    }

    #[test]
    fn mesh_utilization_counts_fabric_ports_only() {
        let r = report(2);
        // 2 north grants over 4 fabric ports × 10 cycles.
        assert_eq!(sample_mesh_utilization(&r, 1), 0.05);
    }

    #[test]
    fn table_subsamples_but_keeps_event_and_last_rows() {
        let table = timeline_table(&report(5), 2);
        let lines: Vec<&str> = table.lines().collect();
        // Stride 3: rows 0 and 3, the event row 1, and the last row 4.
        assert_eq!(lines.len(), 5, "{table}");
        assert!(lines[0].contains("mesh-util") && lines[0].ends_with("events"));
        let starts: Vec<&str> =
            lines[1..].iter().map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(starts, ["[0,", "[10,", "[30,", "[40,"]);
        assert_eq!(
            lines[2],
            "      [10, 20)    2.000    1.000      5.0%    0.500        1              1/2/3  \
             tables_rewritten"
        );
        assert!(lines[4].ends_with("  -"), "no event: {}", lines[4]);
    }
}
