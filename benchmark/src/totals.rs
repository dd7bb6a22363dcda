//! Folds the costed points of one rep — one experiment, or every point of
//! a sweep — into the simulated-statistics metrics, the statistics hash
//! and the per-point checks.

use crate::checks::{Checks, StatsHash};
use rfnoc_sim::{LedgerRecord, RunStats};

/// Running totals over a rep's points.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Totals {
    /// Hash over every point's counters, in point order.
    pub hash: StatsHash,
    points: usize,
    router_cycles: f64,
    cycles: u64,
    grants: u64,
    injected: u64,
    completed: u64,
    latency_sum: f64,
    power_sum: f64,
    hops_sum: f64,
    rf_bytes: u64,
    link_byte_hops: u64,
    hottest: f64,
    saturated: usize,
    telemetry_samples: usize,
    ledger_records: usize,
    faults: u64,
    recovery_records: usize,
    shard_sweep_ms: Vec<f64>,
    barrier_ms: f64,
}

impl Totals {
    /// Adds one costed point: `routers` routers simulated into `stats`,
    /// costed at `power_w`.
    pub fn add(
        &mut self,
        id: &str,
        routers: usize,
        stats: &RunStats,
        power_w: f64,
        checks: &mut Checks,
    ) {
        checks.point(id, stats);
        self.hash.absorb(stats);
        self.points += 1;
        self.router_cycles += routers as f64 * stats.end_cycle as f64;
        self.cycles += stats.end_cycle;
        self.grants += stats.port_flits.iter().sum::<u64>();
        self.injected += stats.injected_messages;
        self.completed += stats.completed_messages;
        self.latency_sum += stats.avg_message_latency();
        self.power_sum += power_w;
        self.hops_sum += stats.avg_hops();
        self.rf_bytes += stats.activity.rf_bytes;
        self.link_byte_hops += stats.activity.link_byte_hops;
        self.hottest = self
            .hottest
            .max(stats.hottest_port().map_or(0.0, |(_, _, util)| util));
        self.saturated += usize::from(stats.saturated);
        self.telemetry_samples += stats.telemetry.as_ref().map_or(0, |t| t.samples.len());
        self.faults += stats.shortcut_faults + stats.mesh_link_faults + stats.retransmitted_flits;
        self.recovery_records += stats.recovery.len();
        for record in stats.ledger.iter().flat_map(|l| &l.records) {
            self.ledger_records += 1;
            if let LedgerRecord::Shard {
                shard,
                sweep_ms,
                barrier_ms,
                ..
            } = record
            {
                let shard = *shard as usize;
                if self.shard_sweep_ms.len() <= shard {
                    self.shard_sweep_ms.resize(shard + 1, 0.0);
                }
                self.shard_sweep_ms[shard] += sweep_ms;
                self.barrier_ms += barrier_ms;
            }
        }
    }

    /// The end-to-end samples of the rep, whose points spent `run_s`
    /// seconds simulating (`Network::run`, or the runner's per-point wall).
    pub fn end_to_end(&self, run_s: f64) -> Vec<(String, f64)> {
        let points = self.points.max(1) as f64;
        named([
            ("router_cycles_per_s", self.router_cycles / run_s),
            ("flit_grants_per_s", self.grants as f64 / run_s),
            ("sim_avg_latency_cycles", self.latency_sum / points),
            ("sim_noc_power_w", self.power_sum / points),
            (
                "sim_completed_frac",
                ratio(self.completed as f64, self.injected as f64),
            ),
        ])
    }

    /// Flit grants over all points.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// The modelled-component counts of the rep, for the traced pass.
    pub fn per_layer(&self) -> Vec<(String, f64)> {
        let points = self.points.max(1) as f64;
        let sweep_total: f64 = self.shard_sweep_ms.iter().sum();
        let sweep_max = self.shard_sweep_ms.iter().copied().fold(0.0, f64::max);
        named([
            ("sim.cycles", self.cycles as f64),
            ("sim.flit_grants", self.grants as f64),
            (
                "sim.grants_per_router_cycle",
                ratio(self.grants as f64, self.router_cycles),
            ),
            ("sim.messages_completed", self.completed as f64),
            ("sim.avg_hops", self.hops_sum / points),
            (
                "sim.rf_byte_share",
                ratio(
                    self.rf_bytes as f64,
                    (self.rf_bytes + self.link_byte_hops) as f64,
                ),
            ),
            ("sim.hottest_port_util", self.hottest),
            ("sim.saturated_points", self.saturated as f64),
            ("sim.telemetry_samples", self.telemetry_samples as f64),
            ("sim.ledger_records", self.ledger_records as f64),
            ("sim.faults_applied", self.faults as f64),
            ("sim.recovery_records", self.recovery_records as f64),
            // Slowest shard's sweep time over the mean shard's, and the
            // barriers' share of the sweep phase; 0 without shard records.
            (
                "sim.shard_imbalance",
                ratio(sweep_max * self.shard_sweep_ms.len() as f64, sweep_total),
            ),
            (
                "sim.barrier_wait_frac",
                ratio(self.barrier_ms, sweep_total + self.barrier_ms),
            ),
        ])
    }
}

/// Owns the names of a rep's samples.
pub fn named<const N: usize>(samples: [(&str, f64); N]) -> Vec<(String, f64)> {
    samples
        .map(|(name, value)| (name.to_string(), value))
        .to_vec()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_fold_points() {
        let mut stats = RunStats::new(4, 6);
        stats.end_cycle = 100;
        stats.injected_messages = 10;
        stats.completed_messages = 5;
        stats.message_latency_sum = 100;
        stats.port_flits[0] = 40;
        let mut checks = Checks::default();
        let mut totals = Totals::default();
        totals.add("a", 4, &stats, 2.0, &mut checks);
        totals.add("b", 4, &stats, 4.0, &mut checks);
        assert_eq!(checks.failed, 0);
        let e2e: std::collections::BTreeMap<_, _> = totals.end_to_end(2.0).into_iter().collect();
        assert_eq!(e2e["router_cycles_per_s"], 400.0);
        assert_eq!(e2e["flit_grants_per_s"], 40.0);
        assert_eq!(e2e["sim_avg_latency_cycles"], 20.0);
        assert_eq!(e2e["sim_noc_power_w"], 3.0);
        assert_eq!(e2e["sim_completed_frac"], 0.5);
        let layer: std::collections::BTreeMap<_, _> = totals.per_layer().into_iter().collect();
        assert_eq!(layer["sim.grants_per_router_cycle"], 0.1);
        assert_eq!(layer["sim.shard_imbalance"], 0.0);
    }
}
