//! Simulation statistics and run reports.

use crate::fault::{HealthReport, RecoveryRecord};
use crate::network::ledger::LedgerReport;
use crate::network::telemetry::TelemetryReport;
use rfnoc_power::ActivityCounters;
use rfnoc_topology::Fnv;

/// Statistics gathered over one simulation run.
///
/// Latencies are measured from message creation (injection request) to the
/// ejection of the last flit at the destination — including source queuing,
/// serialization, and contention — for packets created inside the
/// measurement window. Multicast messages count once, completing when every
/// destination has received the full message.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Messages created during the measurement window.
    pub injected_messages: u64,
    /// Measured messages fully delivered before the drain limit.
    pub completed_messages: u64,
    /// Sum of per-message latencies (cycles) over completed messages.
    pub message_latency_sum: u64,
    /// Individual per-message latencies (cycles) of completed measured
    /// messages — used for percentile/tail analysis. Recorded in completion
    /// order during the run; [`RunStats::finalize`] (called by
    /// `Network::run` before returning) sorts them ascending so percentile
    /// queries are O(1) lookups.
    pub message_latencies: Vec<u32>,
    /// Ejected flit count over measured packets.
    pub ejected_flits: u64,
    /// Sum of per-packet hop counts (routers traversed minus one) over
    /// completed measured packets — for validating route lengths.
    pub hops_sum: u64,
    /// Completed measured packets contributing to [`RunStats::hops_sum`].
    pub hop_packets: u64,
    /// Sum of per-flit latencies (cycles): ejection time minus the creation
    /// time of the flit's (root) message.
    pub flit_latency_sum: u64,
    /// Histogram of injected messages by source→destination base-route
    /// distance (index = hops; multicasts use the mean distance over their
    /// destination set, rounded).
    pub distance_histogram: Vec<u64>,
    /// Activity counters for the power model, covering all post-warmup
    /// cycles.
    pub activity: ActivityCounters,
    /// Flit grants per output port (`router * ports_per_router + port`;
    /// ports are the fabric base slots, then Local, then RF — for the
    /// mesh that is N,S,E,W,Local,RF with a stride of 6), for utilization
    /// analysis. The stride is `port_flits.len() / routers`; see
    /// [`RunStats::ports_per_router`].
    pub port_flits: Vec<u64>,
    /// Per-(src,dst) message counts (`src * routers + dst`), populated only
    /// when [`crate::SimConfig::collect_pair_counts`] is set — the paper's
    /// §3.2.2 hardware event counters. Multicasts count once per
    /// destination.
    pub pair_counts: Vec<u32>,
    /// True when measured packets were still in flight at the drain limit —
    /// the network is saturated at this load and latency figures are lower
    /// bounds.
    pub saturated: bool,
    /// Cycle at which the run ended.
    pub end_cycle: u64,
    /// RF shortcut (transmitter) failures applied during the run.
    pub shortcut_faults: u64,
    /// Mesh link failures applied during the run.
    pub mesh_link_faults: u64,
    /// Repair events (shortcut or mesh link) applied during the run.
    pub repairs: u64,
    /// Flits delayed by transient link glitches (dropped at the receiver
    /// and retransmitted from the upstream buffer).
    pub retransmitted_flits: u64,
    /// Set when the forward-progress watchdog stopped the run early with a
    /// deadlock/livelock/partition diagnosis.
    pub health: Option<HealthReport>,
    /// Completed measured messages per source router — with
    /// [`RunStats::per_dest`], the placement-debugging view the heatmap
    /// bins use. Multicasts count once, at their source.
    pub per_source: Vec<u32>,
    /// Measured full-message/packet deliveries per destination router.
    /// Multicasts count once per destination reached.
    pub per_dest: Vec<u32>,
    /// The telemetry report, when [`crate::SimConfig::telemetry`] was set
    /// (boxed: the time series can be large and most runs don't carry
    /// one). Excluded from the golden determinism hashes — the aggregate
    /// fields above must be bit-identical with telemetry on or off.
    pub telemetry: Option<Box<TelemetryReport>>,
    /// Per-fault recovery timings, when [`crate::SimConfig::recovery`]
    /// was set (empty otherwise), in fault-application order. Like
    /// `telemetry`, a pure observation: excluded from the golden
    /// determinism hashes, and the aggregate fields above must be
    /// bit-identical with recovery tracking on or off.
    pub recovery: Vec<RecoveryRecord>,
    /// The run-ledger stream, when [`crate::SimConfig::ledger`] was set
    /// (boxed: the record stream can be large and most runs don't carry
    /// one). Like `telemetry`, a pure observation: excluded from the
    /// golden determinism hashes, and the aggregate fields above must be
    /// bit-identical with the ledger on or off.
    pub ledger: Option<Box<LedgerReport>>,
}

impl RunStats {
    /// Creates empty statistics for a network of `routers` routers and
    /// maximum base-route distance `max_distance`, with the mesh's six
    /// port slots per router. Degree-generic fabrics use
    /// [`RunStats::with_ports`].
    pub fn new(routers: usize, max_distance: usize) -> Self {
        Self::with_ports(routers, max_distance, 6)
    }

    /// Creates empty statistics with an explicit per-router port stride
    /// (the widest router's port count).
    pub fn with_ports(routers: usize, max_distance: usize, ports: usize) -> Self {
        Self {
            injected_messages: 0,
            completed_messages: 0,
            message_latency_sum: 0,
            message_latencies: Vec::new(),
            ejected_flits: 0,
            hops_sum: 0,
            hop_packets: 0,
            flit_latency_sum: 0,
            distance_histogram: vec![0; max_distance + 1],
            activity: ActivityCounters::new(routers),
            port_flits: vec![0; routers * ports],
            pair_counts: Vec::new(),
            saturated: false,
            end_cycle: 0,
            shortcut_faults: 0,
            mesh_link_faults: 0,
            repairs: 0,
            retransmitted_flits: 0,
            health: None,
            per_source: vec![0; routers],
            per_dest: vec![0; routers],
            telemetry: None,
            recovery: Vec::new(),
            ledger: None,
        }
    }

    /// FNV-1a over the simulated counters in a fixed order: what the
    /// golden-statistics suite pins. The observer outputs (telemetry,
    /// recovery, ledger) and the per-node counters are left out.
    ///
    /// `#[inline]`, so only its callers compile it: without, this crate's
    /// code units are split differently and the engine's code moves.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.injected_messages);
        h.u64(self.completed_messages);
        h.u64(self.message_latency_sum);
        h.u64(self.message_latencies.len() as u64);
        self.message_latencies.iter().for_each(|&l| h.u64(u64::from(l)));
        h.u64(self.ejected_flits);
        h.u64(self.hops_sum);
        h.u64(self.hop_packets);
        h.u64(self.flit_latency_sum);
        self.distance_histogram.iter().for_each(|&v| h.u64(v));
        h.u64(self.activity.cycles);
        self.activity.router_bytes.iter().for_each(|&v| h.u64(v));
        h.u64(self.activity.link_byte_hops);
        h.u64(self.activity.rf_bytes);
        self.port_flits.iter().for_each(|&v| h.u64(v));
        h.u64(self.pair_counts.len() as u64);
        self.pair_counts.iter().for_each(|&c| h.u64(u64::from(c)));
        h.u64(u64::from(self.saturated));
        h.u64(self.end_cycle);
        h.u64(self.shortcut_faults);
        h.u64(self.mesh_link_faults);
        h.u64(self.repairs);
        h.u64(self.retransmitted_flits);
        match &self.health {
            None => h.u64(0),
            Some(r) => {
                h.u64(1 + r.diagnosis as u64);
                h.u64(r.cycle);
                h.u64(r.outstanding);
                h.u64(r.stalled_for);
                h.u64(r.since_completion);
            }
        }
        h.finish()
    }

    /// Whether the run ended healthy (the watchdog did not fire).
    pub fn is_healthy(&self) -> bool {
        self.health.is_none()
    }

    /// Mean latency per message in cycles.
    ///
    /// Returns 0.0 when no message completed.
    pub fn avg_message_latency(&self) -> f64 {
        if self.completed_messages == 0 {
            0.0
        } else {
            self.message_latency_sum as f64 / self.completed_messages as f64
        }
    }

    /// Mean latency per flit in cycles (the paper's "average network
    /// latency/flit").
    ///
    /// Returns 0.0 when no flit was ejected.
    pub fn avg_flit_latency(&self) -> f64 {
        if self.ejected_flits == 0 {
            0.0
        } else {
            self.flit_latency_sum as f64 / self.ejected_flits as f64
        }
    }

    /// Utilization of one output port over the counted window: flit
    /// grants divided by slot capacity (`capacity` flits/cycle).
    ///
    /// Returns 0.0 before any cycles are counted.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn port_utilization(&self, router: usize, port: usize, capacity: u32) -> f64 {
        let stride = self.ports_per_router();
        assert!(port < stride, "port index out of range");
        let flits = self.port_flits[router * stride + port];
        if self.activity.cycles == 0 {
            0.0
        } else {
            flits as f64 / (self.activity.cycles as f64 * capacity as f64)
        }
    }

    /// The flat per-router stride of [`RunStats::port_flits`] (6 for the
    /// mesh, 8 for the ring-mesh).
    pub fn ports_per_router(&self) -> usize {
        let routers = self.activity.router_bytes.len();
        self.port_flits.len().checked_div(routers).unwrap_or(6)
    }

    /// The most heavily utilized output port: `(router, port, utilization)`
    /// assuming unit capacity. Returns `None` when nothing moved.
    pub fn hottest_port(&self) -> Option<(usize, usize, f64)> {
        let (idx, &flits) =
            self.port_flits.iter().enumerate().max_by_key(|(_, &f)| f)?;
        if flits == 0 || self.activity.cycles == 0 {
            return None;
        }
        let stride = self.ports_per_router();
        Some((idx / stride, idx % stride, flits as f64 / self.activity.cycles as f64))
    }

    /// Sorts the per-message latencies ascending so percentile queries
    /// index directly instead of cloning and re-sorting per call.
    /// `Network::run` calls this before returning its statistics; call it
    /// yourself only on hand-assembled stats.
    pub fn finalize(&mut self) {
        self.message_latencies.sort_unstable();
    }

    /// The `p`-th percentile (0–100) of per-message latency, or 0.0 when
    /// nothing completed.
    ///
    /// Fast path: when the latencies are already sorted (the normal case —
    /// [`RunStats::finalize`] ran), this is a direct index. Unsorted
    /// hand-assembled stats fall back to a clone-and-sort.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside 0–100.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.message_latencies.is_empty() {
            return 0.0;
        }
        let rank = (p / 100.0 * (self.message_latencies.len() - 1) as f64).round() as usize;
        let rank = rank.min(self.message_latencies.len() - 1);
        if self.message_latencies.windows(2).all(|w| w[0] <= w[1]) {
            self.message_latencies[rank] as f64
        } else {
            let mut sorted = self.message_latencies.clone();
            sorted.sort_unstable();
            sorted[rank] as f64
        }
    }

    /// Median (p50) per-message latency in cycles.
    pub fn p50_latency(&self) -> f64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile per-message latency in cycles.
    pub fn p95_latency(&self) -> f64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile per-message latency in cycles.
    pub fn p99_latency(&self) -> f64 {
        self.latency_percentile(99.0)
    }

    /// The tail summary `(p50, p95, p99)` used by the benchmark harness's
    /// JSON artifacts; one sortedness check instead of three.
    pub fn latency_tail(&self) -> (f64, f64, f64) {
        if self.message_latencies.windows(2).all(|w| w[0] <= w[1]) {
            (self.p50_latency(), self.p95_latency(), self.p99_latency())
        } else {
            let mut sorted = self.clone();
            sorted.finalize();
            (sorted.p50_latency(), sorted.p95_latency(), sorted.p99_latency())
        }
    }

    /// Mean network hops per completed packet (0.0 when none completed).
    pub fn avg_hops(&self) -> f64 {
        if self.hop_packets == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.hop_packets as f64
        }
    }

    /// Converts collected pair counts into selection weights
    /// (`F(x,y)` of §3.2.2).
    ///
    /// # Panics
    ///
    /// Panics if pair counts were not collected.
    pub fn pair_weights(&self) -> rfnoc_topology::PairWeights {
        assert!(
            !self.pair_counts.is_empty(),
            "run with SimConfig::collect_pair_counts to gather event counters"
        );
        let n = self.activity.router_bytes.len();
        rfnoc_topology::PairWeights::from_messages(
            n,
            self.pair_counts.iter().enumerate().filter(|(_, &c)| c > 0).map(
                |(idx, &c)| (idx / n, idx % n, c as f64),
            ),
        )
    }

    /// Fraction of measured messages that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.injected_messages == 0 {
            1.0
        } else {
            self.completed_messages as f64 / self.injected_messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty_runs() {
        let s = RunStats::new(4, 18);
        assert_eq!(s.avg_message_latency(), 0.0);
        assert_eq!(s.avg_flit_latency(), 0.0);
        assert_eq!(s.completion_rate(), 1.0);
    }

    #[test]
    fn percentiles_index_sorted_and_handle_unsorted() {
        let mut s = RunStats::new(4, 18);
        s.message_latencies = vec![30, 10, 20, 50, 40];
        // Unsorted fallback gives the same answers as the finalized path.
        let unsorted = (s.latency_percentile(0.0), s.p50_latency(), s.latency_percentile(100.0));
        s.finalize();
        assert_eq!(s.message_latencies, vec![10, 20, 30, 40, 50]);
        let sorted = (s.latency_percentile(0.0), s.p50_latency(), s.latency_percentile(100.0));
        assert_eq!(unsorted, sorted);
        assert_eq!(sorted, (10.0, 30.0, 50.0));
        assert_eq!(s.latency_tail(), (30.0, 50.0, 50.0));
    }

    #[test]
    fn percentiles_empty_are_zero() {
        let s = RunStats::new(4, 18);
        assert_eq!(s.p50_latency(), 0.0);
        assert_eq!(s.p95_latency(), 0.0);
        assert_eq!(s.p99_latency(), 0.0);
        assert_eq!(s.latency_tail(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn averages_compute() {
        let mut s = RunStats::new(4, 18);
        s.injected_messages = 10;
        s.completed_messages = 8;
        s.message_latency_sum = 160;
        s.ejected_flits = 24;
        s.flit_latency_sum = 480;
        assert_eq!(s.avg_message_latency(), 20.0);
        assert_eq!(s.avg_flit_latency(), 20.0);
        assert_eq!(s.completion_rate(), 0.8);
    }
}
