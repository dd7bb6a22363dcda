//! Correctness checks and the statistics hash they compare.
//!
//! No simulated value is pinned here: every check compares two runs of the
//! same commit (rep against rep, traced against untraced, sharded against
//! serial, staged against `Experiment::run`), so a later modelling fix can
//! move `sim_*` and `paper.*` without editing the benchmark.

use rfnoc_sim::RunStats;

/// Tally of checks evaluated and failed in one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Checks {
    /// Evaluates one check; a failure is reported on stderr.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// The per-point checks: the watchdog did not fire, and no more
    /// messages completed than were injected.
    pub fn point(&mut self, id: &str, stats: &RunStats) {
        self.expect(stats.health.is_none(), || {
            format!("{id}: carries a HealthReport: {:?}", stats.health)
        });
        self.expect(stats.completed_messages <= stats.injected_messages, || {
            format!(
                "{id}: completed {} > injected {}",
                stats.completed_messages, stats.injected_messages
            )
        });
    }
}

/// FNV-1a over the counters of any number of [`RunStats`], in the field
/// order of the simulator's golden-statistics suite. Observer outputs
/// (telemetry, recovery, ledger) are left out: they must not change the
/// counters, which is what the hash proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsHash(pub u64);

impl Default for StatsHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl StatsHash {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn all<T: Copy + Into<u64>>(&mut self, values: &[T]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.u64(v.into());
        }
    }

    /// Folds one run's counters into the hash.
    pub fn absorb(&mut self, s: &RunStats) {
        self.u64(s.injected_messages);
        self.u64(s.completed_messages);
        self.u64(s.message_latency_sum);
        self.all(&s.message_latencies);
        self.u64(s.ejected_flits);
        self.u64(s.hops_sum);
        self.u64(s.hop_packets);
        self.u64(s.flit_latency_sum);
        self.all(&s.distance_histogram);
        self.u64(s.activity.cycles);
        self.all(&s.activity.router_bytes);
        self.u64(s.activity.link_byte_hops);
        self.u64(s.activity.rf_bytes);
        self.all(&s.port_flits);
        self.all(&s.pair_counts);
        self.u64(u64::from(s.saturated));
        self.u64(s.end_cycle);
        self.u64(s.shortcut_faults);
        self.u64(s.mesh_link_faults);
        self.u64(s.repairs);
        self.u64(s.retransmitted_flits);
        self.all(&s.per_source);
        self.all(&s.per_dest);
        self.u64(u64::from(s.health.is_some()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sees_counters_and_ignores_observers() {
        let mut a = RunStats::new(4, 6);
        let mut h0 = StatsHash::default();
        h0.absorb(&a);
        a.recovery = Vec::new();
        a.telemetry = None;
        let mut h1 = StatsHash::default();
        h1.absorb(&a);
        assert_eq!(h0, h1);
        a.port_flits[3] += 1;
        let mut h2 = StatsHash::default();
        h2.absorb(&a);
        assert_ne!(h0, h2);
    }

    #[test]
    fn point_checks_count_and_fail() {
        let mut c = Checks::default();
        let mut s = RunStats::new(4, 6);
        c.point("ok", &s);
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 0
            }
        );
        s.completed_messages = 1;
        c.point("bad", &s);
        assert_eq!(
            c,
            Checks {
                attempted: 4,
                failed: 1
            }
        );
    }
}
