//! Delay-attribution artifacts: aggregates per-packet [`DelayBreakdown`]s
//! into a per-component cycle budget and renders `PROFILE_*.json`.
//!
//! A profiled run (telemetry with `TelemetryConfig::profile` set) yields
//! one exact decomposition per completed unicast packet: source queueing,
//! route compute, VA wait, switch traversal, SA wait, link traversal, and
//! tail serialization, summing to the end-to-end latency cycle-for-cycle.
//! This module sums those budgets — overall and split by whether the
//! packet rode an RF shortcut — and computes the mesh-vs-RF contention
//! comparison on *shortcut-covered pairs*: the (src, dest) pairs that
//! actually took a shortcut in the RF run, measured in both runs.

use crate::artifact::header;
use crate::telemetry::port_name;
use rfnoc::json::{rounded, Json};
use rfnoc_sim::{RunStats, TelemetryReport};
use std::collections::HashSet;

/// Summed delay components over a set of attributed packets, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakdownAgg {
    /// Packets aggregated.
    pub packets: u64,
    /// Summed end-to-end latency.
    pub total: u64,
    /// Cycles queued at the source before the head entered its router.
    pub source_queue: u64,
    /// Route-computation pipeline cycles.
    pub route: u64,
    /// Cycles stalled waiting for a virtual channel.
    pub va_wait: u64,
    /// Switch-traversal pipeline cycles.
    pub switch: u64,
    /// Cycles stalled waiting for switch allocation.
    pub sa_wait: u64,
    /// The subset of `sa_wait` spent on empty credit counters.
    pub credit_wait: u64,
    /// Link-traversal cycles between routers (and into the ejection port).
    pub link: u64,
    /// Cycles draining body/tail flits after the head ejected.
    pub tail_serialization: u64,
}

impl BreakdownAgg {
    fn add(&mut self, b: &rfnoc_sim::DelayBreakdown) {
        self.packets += 1;
        self.total += b.total;
        self.source_queue += b.source_queue;
        self.route += b.route;
        self.va_wait += b.va_wait;
        self.switch += b.switch;
        self.sa_wait += b.sa_wait;
        self.credit_wait += b.credit_wait;
        self.link += b.link;
        self.tail_serialization += b.tail_serialization;
    }

    /// Sum of the additive components; equals [`Self::total`] exactly
    /// because every per-packet breakdown reconciles.
    pub fn component_sum(&self) -> u64 {
        self.source_queue
            + self.route
            + self.va_wait
            + self.switch
            + self.sa_wait
            + self.link
            + self.tail_serialization
    }

    /// Contention cycles (VA + SA waits).
    pub fn contention(&self) -> u64 {
        self.va_wait + self.sa_wait
    }

    /// Mean contention cycles per packet (0.0 when empty).
    pub fn avg_contention(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.contention() as f64 / self.packets as f64
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .field("packets", self.packets)
            .field("total_cycles", self.total)
            .field("component_sum", self.component_sum())
            .field("source_queue", self.source_queue)
            .field("route", self.route)
            .field("va_wait", self.va_wait)
            .field("switch", self.switch)
            .field("sa_wait", self.sa_wait)
            .field("credit_wait", self.credit_wait)
            .field("link", self.link)
            .field("tail_serialization", self.tail_serialization)
    }
}

/// One run's aggregated attribution: overall and split by RF usage.
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    /// Every attributed packet.
    pub all: BreakdownAgg,
    /// Packets that rode an RF shortcut.
    pub rf: BreakdownAgg,
    /// Packets that stayed on the mesh.
    pub mesh: BreakdownAgg,
    /// Complete spans that could not be attributed (multicast trees,
    /// truncated hop capture).
    pub unattributed: u64,
}

/// Aggregates every attributable packet of a profiled report.
pub fn summarize(report: &TelemetryReport) -> ProfileSummary {
    let mut s = ProfileSummary::default();
    for span in report.spans.iter().filter(|s| s.is_complete()) {
        match report.attribution(span.packet) {
            Some(b) => {
                s.all.add(&b);
                if b.took_rf {
                    s.rf.add(&b);
                } else {
                    s.mesh.add(&b);
                }
            }
            None => s.unattributed += 1,
        }
    }
    s
}

/// The (src, dest) pairs whose packets rode an RF shortcut in this run —
/// the pairs "covered" by the shortcut overlay under this workload.
pub fn rf_covered_pairs(report: &TelemetryReport) -> HashSet<(u32, u32)> {
    report
        .spans
        .iter()
        .filter(|s| s.took_rf && s.is_complete())
        .map(|s| (s.src, s.dest))
        .collect()
}

/// Aggregates attribution over only the packets whose (src, dest) pair is
/// in `pairs` — used to measure the same traffic subset in two runs.
pub fn summarize_pairs(report: &TelemetryReport, pairs: &HashSet<(u32, u32)>) -> BreakdownAgg {
    let mut agg = BreakdownAgg::default();
    for span in report.spans.iter().filter(|s| s.is_complete()) {
        if pairs.contains(&(span.src, span.dest)) {
            if let Some(b) = report.attribution(span.packet) {
                agg.add(&b);
            }
        }
    }
    agg
}

/// The `k` most-blamed output ports: `(router, port, stall cycles)` in
/// descending order, from [`TelemetryReport::contention_blame`].
pub fn top_blame(report: &TelemetryReport, k: usize) -> Vec<(usize, usize, u64)> {
    let blame = report.contention_blame();
    let mut ports: Vec<(usize, usize, u64)> = blame
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b > 0)
        .map(|(i, &b)| (i / report.ports, i % report.ports, b))
        .collect();
    ports.sort_by_key(|&(_, _, b)| std::cmp::Reverse(b));
    ports.truncate(k);
    ports
}

/// One profiled run to include in the artifact.
pub struct ProfiledRun<'a> {
    /// Stable label, e.g. `"mesh"` or `"rf"`.
    pub label: &'a str,
    /// Architecture display name.
    pub arch: String,
    /// The run's scalar statistics.
    pub stats: &'a RunStats,
    /// The run's telemetry (must carry PROFILE data).
    pub report: &'a TelemetryReport,
}

/// Renders the `PROFILE_<scenario>.json` artifact: provenance, the
/// scenario's operating point, each run's aggregate attribution (overall
/// and RF/mesh split, plus the most-blamed ports), and the mesh-vs-RF
/// contention comparison on shortcut-covered pairs.
pub fn render_json(name: &str, injection_rate: f64, runs: &[ProfiledRun<'_>]) -> String {
    // The shortcut-covered pairs come from the RF run; both runs are then
    // measured on exactly that traffic subset.
    let labelled = |label: &str| runs.iter().find(|r| r.label == label);
    let covered = labelled("rf").map(|r| rf_covered_pairs(r.report)).unwrap_or_default();
    let on_covered = |run: Option<&ProfiledRun<'_>>| {
        run.map(|r| summarize_pairs(r.report, &covered)).unwrap_or_default()
    };

    let runs_json = runs.iter().map(|run| {
        let s = summarize(run.report);
        let blame = top_blame(run.report, 8).into_iter().map(|(r, p, b)| {
            Json::obj()
                .field("router", r)
                .field("port", port_name(run.report, p))
                .field("stall_cycles", b)
        });
        Json::obj()
            .field("label", run.label)
            .field("arch", &run.arch)
            .field("saturated", run.stats.saturated)
            .field("completed_messages", run.stats.completed_messages)
            .field("unattributed", s.unattributed)
            .field("dropped_hops", run.report.dropped_hops)
            .field("attribution", s.all.to_json())
            .field("rf_packets", s.rf.to_json())
            .field("mesh_packets", s.mesh.to_json())
            .field("covered_pairs", on_covered(Some(run)).to_json())
            .field("blame_top", Json::arr(blame))
    });

    // Head-to-head on the covered pairs.
    let mesh = on_covered(labelled("mesh")).avg_contention();
    let rf = on_covered(labelled("rf")).avg_contention();
    header(name)
        .field("injection_rate", rounded(injection_rate, 4))
        .field("runs", Json::arr(runs_json))
        .field(
            "covered_pair_comparison",
            Json::obj()
                .field("pairs", covered.len())
                .field("mesh_avg_contention", rounded(mesh, 4))
                .field("rf_avg_contention", rounded(rf, 4))
                .field("rf_reduces_contention", rf < mesh),
        )
        .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::{
        MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload, SimConfig,
        TelemetryConfig,
    };
    use rfnoc_topology::{GridDims, Shortcut};

    fn profiled_run(shortcuts: Vec<Shortcut>) -> RunStats {
        let mut cfg = SimConfig::paper_baseline();
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 600;
        cfg.drain_cycles = 10_000;
        cfg.telemetry = Some(TelemetryConfig::profiling(128));
        let dims = GridDims::new(6, 6);
        let spec = if shortcuts.is_empty() {
            NetworkSpec::mesh_baseline(dims, cfg)
        } else {
            NetworkSpec::with_shortcuts(dims, cfg, shortcuts)
        };
        let mut network = Network::new(spec);
        let mut events: Vec<(u64, MessageSpec)> = (0..200u64)
            .map(|i| {
                let src = (i as usize * 7) % 36;
                let dst = (i as usize * 11 + 1) % 36;
                let dst = if dst == src { (dst + 1) % 36 } else { dst };
                (i * 2, MessageSpec::unicast(src, dst, MessageClass::Data))
            })
            .collect();
        for i in 0..40u64 {
            events.push((i * 4, MessageSpec::unicast(0, 35, MessageClass::Data)));
        }
        events.sort_by_key(|&(t, _)| t);
        network.run(&mut ScriptedWorkload::new(events))
    }

    #[test]
    fn summary_reconciles_and_splits() {
        let stats = profiled_run(vec![Shortcut::new(0, 35), Shortcut::new(35, 0)]);
        let tel = stats.telemetry.as_ref().unwrap();
        let s = summarize(tel);
        assert!(s.all.packets > 0);
        assert_eq!(s.all.component_sum(), s.all.total, "aggregate reconciles");
        assert_eq!(s.all.packets, s.rf.packets + s.mesh.packets);
        assert_eq!(s.all.total, s.rf.total + s.mesh.total);
        assert!(s.rf.packets > 0, "corner traffic rides the shortcut");
        assert!(s.all.credit_wait <= s.all.sa_wait, "credit waits nest in SA waits");
        let covered = rf_covered_pairs(tel);
        assert!(covered.contains(&(0, 35)));
        let cov = summarize_pairs(tel, &covered);
        assert!(cov.packets >= 40, "covered pairs include the corner stream");
        assert!(cov.packets <= s.all.packets);
    }

    #[test]
    fn artifact_shape_is_valid_and_reconciled() {
        let stats = profiled_run(vec![Shortcut::new(0, 35), Shortcut::new(35, 0)]);
        let tel = stats.telemetry.as_ref().unwrap();
        let runs = [
            ProfiledRun { label: "mesh", arch: "Baseline".into(), stats: &stats, report: tel },
            ProfiledRun { label: "rf", arch: "Static".into(), stats: &stats, report: tel },
        ];
        let json = render_json("PROFILE_test", 0.05, &runs);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"runs\"",
            "\"attribution\"",
            "\"component_sum\"",
            "\"covered_pair_comparison\"",
            "\"blame_top\"",
            "\"tail_serialization\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn top_blame_is_sorted_and_bounded() {
        let stats = profiled_run(Vec::new());
        let tel = stats.telemetry.as_ref().unwrap();
        let top = top_blame(tel, 5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        assert!(top.iter().all(|&(_, _, b)| b > 0));
    }
}
