//! Simulator configuration (paper Figure 5a parameters).

use crate::error::ConfigError;
use crate::fault::RecoveryConfig;
use crate::network::ledger::LedgerConfig;
use crate::network::telemetry::TelemetryConfig;
use crate::router::{MAX_BUFFER_DEPTH, MAX_VCS};
use rfnoc_power::LinkWidth;

/// The last cycle a run may reach. The engine stores its cycle stamps
/// (flit arrivals and buffer eligibility, packet creation, injection
/// readiness) as `u32`: the clock stays in the lower half of that range,
/// and the upper half is headroom for how far ahead of the clock a stamp
/// can be set (link and wire-shortcut latency, link-retry delays), so
/// narrowing a stamp where it is stored is a plain cast.
/// [`SimConfig::validate`] refuses a longer run and `Network::step` checks
/// the clock against it once a cycle.
pub(crate) const CYCLE_LIMIT: u64 = (u32::MAX / 2) as u64;

/// Microarchitectural configuration of the simulated network.
///
/// Defaults follow the paper's §3.1/§4 description: wormhole routing,
/// 5-cycle pipelined routers (head flits; 3 cycles for body/tail), a 2 GHz
/// network clock, eight reserved escape virtual channels restricted to
/// conventional mesh links for deadlock avoidance, and 16B baseline links.
///
/// # Example
///
/// ```
/// use rfnoc_sim::SimConfig;
/// let cfg = SimConfig::paper_baseline();
/// assert_eq!(cfg.vcs_escape, 8);
/// assert_eq!(cfg.total_vcs(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Conventional mesh link width (bytes per network cycle).
    pub link_width: LinkWidth,
    /// Adaptive virtual channels per input port (may use RF-I shortcuts).
    pub vcs_adaptive: usize,
    /// Escape virtual channels per input port (XY routing over mesh links
    /// only — the paper's "eight reserved virtual channels").
    pub vcs_escape: usize,
    /// Flit buffer depth per virtual channel.
    pub buffer_depth: usize,
    /// Aggregate RF-I shortcut channel width in bytes (always 16B in the
    /// paper, independent of the mesh link width).
    pub rf_channel_bytes: u32,
    /// Warmup cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measurement window length in cycles.
    pub measure_cycles: u64,
    /// Maximum extra cycles to drain in-flight measured packets.
    pub drain_cycles: u64,
    /// One-time routing-table reconfiguration cost in cycles (99 in the
    /// paper: one write per router, all updated in parallel). Charged to
    /// the run's cycle count when a reconfiguration is performed.
    pub reconfig_cycles: u64,
    /// Flits the local injection/ejection interface moves per *network*
    /// cycle. The paper's cores and cache banks run at 4 GHz against the
    /// 2 GHz interconnect (§3.1), so the local port drains and fills at
    /// twice the network rate: 2.
    pub local_port_speedup: u32,
    /// Telemetry subsystem configuration: `Some` enables interval-sampled
    /// counters, packet spans, and the event timeline (returned through
    /// `RunStats::telemetry`); `None` (the default) keeps the engine
    /// telemetry-free — provably bit-identical and with no measurable
    /// overhead.
    pub telemetry: Option<TelemetryConfig>,
    /// Collect per-(source, destination) message counts during the run —
    /// the "event counters in our network" the paper's application-specific
    /// selection relies on (§3.2.2). Off by default (memory/time cost).
    pub collect_pair_counts: bool,
    /// Adaptive routing around congested shortcuts: when the shortest
    /// path uses an RF-I port whose virtual channels are all busy, packets
    /// may take the XY mesh route instead of waiting. This is the
    /// contention-avoidance technique of the HPCA 2008 paper ("they
    /// explored the potential of adaptive-routing techniques to avoid
    /// bottlenecks resulting from contention for the shortcuts", §2).
    pub adaptive_shortcut_routing: bool,
    /// Forward-progress watchdog window: when measured packets are
    /// outstanding and no switch grant happens anywhere in the network for
    /// this many cycles, `Network::run` stops early and reports a
    /// structured `HealthReport` instead of spinning to the drain limit.
    /// 0 disables the watchdog. Must exceed `reconfig_cycles` (a table
    /// rewrite legitimately stalls injection that long).
    pub watchdog_cycles: u64,
    /// Cycles to recover a flit corrupted in flight by a transient link
    /// glitch: detection at the receiver plus retransmission from the
    /// upstream buffer. The glitched flit (and the link behind it) is
    /// delayed by this much; credits are unaffected.
    pub link_retry_cycles: u64,
    /// Per-fault recovery-SLO tracking: `Some` opens a
    /// [`crate::RecoveryRecord`] for every applied fault (drain, rewrite,
    /// and latency re-convergence timings, returned through
    /// `RunStats::recovery`); `None` (the default) keeps the engine
    /// free of the observer — like telemetry, enabling it never changes
    /// simulated behaviour.
    pub recovery: Option<RecoveryConfig>,
    /// Run-ledger configuration: `Some` streams structured observability
    /// records — periodic heartbeats, per-shard sweep metrics when
    /// `threads > 1`, and mirrored timeline events — returned through
    /// `RunStats::ledger`; `None` (the default) keeps the engine
    /// ledger-free. Like telemetry, enabling it never changes simulated
    /// behaviour (bit-identical golden hashes, on or off).
    pub ledger: Option<LedgerConfig>,
    /// Worker threads stepping the router sweep (the sharded cycle
    /// engine). `1` (the default) runs the classic serial sweep; `N > 1`
    /// partitions the fabric into `N` contiguous router shards stepped
    /// concurrently, with cross-shard flits, credits, and observer
    /// channels merged in shard order at the cycle boundary — proven
    /// bit-identical to the serial engine for every thread count. The
    /// effective count is clamped to the router count, and VCT tree
    /// multicast (which allocates packets mid-sweep) falls back to 1.
    pub threads: usize,
}

impl SimConfig {
    /// The paper's baseline configuration at the given link width.
    pub fn paper_baseline() -> Self {
        Self {
            link_width: LinkWidth::B16,
            vcs_adaptive: 4,
            vcs_escape: 8,
            buffer_depth: 4,
            rf_channel_bytes: 16,
            warmup_cycles: 10_000,
            measure_cycles: 100_000,
            drain_cycles: 50_000,
            reconfig_cycles: 99,
            local_port_speedup: 2,
            telemetry: None,
            collect_pair_counts: false,
            adaptive_shortcut_routing: true,
            watchdog_cycles: 10_000,
            link_retry_cycles: 6,
            recovery: None,
            ledger: None,
            threads: 1,
        }
    }

    /// Total virtual channels per input port.
    pub fn total_vcs(&self) -> usize {
        self.vcs_adaptive + self.vcs_escape
    }

    /// Flits an RF-I shortcut can carry per cycle at the configured mesh
    /// flit size (the 16B RF channel carries multiple narrow flits when the
    /// mesh is reduced to 8B/4B).
    pub fn rf_flits_per_cycle(&self) -> u32 {
        (self.rf_channel_bytes / self.link_width.bytes()).max(1)
    }

    /// Returns a copy with a different link width.
    #[must_use]
    pub fn with_link_width(mut self, width: LinkWidth) -> Self {
        self.link_width = width;
        self
    }

    /// Returns a copy with telemetry enabled at the given configuration.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Returns a copy with per-fault recovery tracking enabled.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Returns a copy with the run ledger enabled at the given
    /// configuration.
    #[must_use]
    pub fn with_ledger(mut self, ledger: LedgerConfig) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Returns a copy stepping the router sweep on `threads` worker
    /// threads (the sharded cycle engine; bit-identical at any count).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates internal consistency, rejecting degenerate parameters
    /// (zero VCs, zero buffers, an empty measurement window, or a watchdog
    /// window a routing-table rewrite would trip), router shapes beyond
    /// what the engine's VC masks (32 VCs per port) and `u8` ring indices
    /// (255 flits per VC) can hold, and a run (warmup + measurement +
    /// drain) longer than its `u32` cycle stamps can count: 2,147,483,647
    /// cycles, half their range.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_adaptive + self.vcs_escape == 0 {
            return Err(ConfigError::NoVcs);
        }
        if self.vcs_escape == 0 {
            return Err(ConfigError::NoEscapeVcs);
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        for (parameter, value, limit) in [
            ("vcs_adaptive + vcs_escape", self.total_vcs(), MAX_VCS),
            ("buffer_depth", self.buffer_depth, MAX_BUFFER_DEPTH),
        ] {
            if value > limit {
                return Err(ConfigError::ShapeTooLarge { parameter, value, limit });
            }
        }
        if self.measure_cycles == 0 {
            return Err(ConfigError::EmptyMeasureWindow);
        }
        let cycles = self
            .warmup_cycles
            .saturating_add(self.measure_cycles)
            .saturating_add(self.drain_cycles);
        if cycles > CYCLE_LIMIT {
            return Err(ConfigError::RunTooLong { cycles, limit: CYCLE_LIMIT });
        }
        if self.local_port_speedup < 1 {
            return Err(ConfigError::NoLocalBandwidth);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroSimThreads);
        }
        let watchdog_minimum = self.reconfig_cycles + 1;
        if self.watchdog_cycles != 0 && self.watchdog_cycles < watchdog_minimum {
            return Err(ConfigError::WatchdogTooTight {
                watchdog: self.watchdog_cycles,
                minimum: watchdog_minimum,
            });
        }
        if let Some(t) = &self.telemetry {
            if t.interval == 0 {
                return Err(ConfigError::ZeroTelemetryInterval);
            }
        }
        if let Some(l) = &self.ledger {
            if l.interval == 0 {
                return Err(ConfigError::ZeroLedgerInterval);
            }
        }
        if let Some(r) = &self.recovery {
            if r.window == 0 {
                return Err(ConfigError::ZeroRecoveryWindow);
            }
            if r.epsilon <= 0.0 {
                return Err(ConfigError::NonPositiveRecoveryEpsilon);
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rf_carries_multiple_narrow_flits() {
        let cfg = SimConfig::paper_baseline();
        assert_eq!(cfg.rf_flits_per_cycle(), 1);
        assert_eq!(cfg.clone().with_link_width(LinkWidth::B8).rf_flits_per_cycle(), 2);
        assert_eq!(cfg.with_link_width(LinkWidth::B4).rf_flits_per_cycle(), 4);
    }

    #[test]
    fn default_validates() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_escape_vcs_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.vcs_escape = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoEscapeVcs));
    }

    #[test]
    fn zero_total_vcs_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.vcs_adaptive = 0;
        cfg.vcs_escape = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoVcs));
    }

    #[test]
    fn zero_buffer_depth_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.buffer_depth = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBufferDepth));
    }

    #[test]
    fn more_vcs_than_the_masks_hold_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        // The widest shape in the repo (ablation_escape_vcs) and the widest
        // the masks hold both pass.
        (cfg.vcs_adaptive, cfg.vcs_escape) = (4, 12);
        assert_eq!(cfg.validate(), Ok(()));
        (cfg.vcs_adaptive, cfg.vcs_escape) = (16, 16);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.vcs_escape = 17;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ShapeTooLarge {
                parameter: "vcs_adaptive + vcs_escape",
                value: 33,
                limit: 32,
            })
        );
    }

    #[test]
    fn deeper_buffers_than_the_ring_index_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.buffer_depth = 255;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.buffer_depth = 256;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ShapeTooLarge { parameter: "buffer_depth", value: 256, limit: 255 })
        );
    }

    #[test]
    fn empty_measure_window_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.measure_cycles = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyMeasureWindow));
    }

    #[test]
    fn zero_local_speedup_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.local_port_speedup = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoLocalBandwidth));
    }

    #[test]
    fn zero_threads_rejected() {
        let cfg = SimConfig::paper_baseline().with_threads(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroSimThreads));
        assert_eq!(SimConfig::paper_baseline().with_threads(8).validate(), Ok(()));
    }

    #[test]
    fn tight_watchdog_rejected_but_disabled_allowed() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.watchdog_cycles = cfg.reconfig_cycles; // would trip on a rewrite
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::WatchdogTooTight {
                watchdog: cfg.reconfig_cycles,
                minimum: cfg.reconfig_cycles + 1,
            })
        );
        cfg.watchdog_cycles = 0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_telemetry_interval_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.telemetry = Some(TelemetryConfig { interval: 0, ..TelemetryConfig::every(1) });
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroTelemetryInterval));
        cfg.telemetry = Some(TelemetryConfig::every(1_000));
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_ledger_interval_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.ledger = Some(LedgerConfig { interval: 0 });
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroLedgerInterval));
        cfg = cfg.with_ledger(LedgerConfig::every(1_000));
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn degenerate_recovery_config_rejected() {
        let mut cfg = SimConfig::paper_baseline();
        cfg.recovery = Some(RecoveryConfig { window: 0, ..RecoveryConfig::slo() });
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroRecoveryWindow));
        cfg.recovery = Some(RecoveryConfig { epsilon: 0.0, ..RecoveryConfig::slo() });
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveRecoveryEpsilon));
        cfg = cfg.with_recovery(RecoveryConfig::slo());
        assert_eq!(cfg.validate(), Ok(()));
    }
}
