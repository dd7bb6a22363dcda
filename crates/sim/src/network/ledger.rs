//! The run ledger: streaming structured observability for a live run.
//!
//! Where telemetry ([`super::telemetry`]) answers "where did congestion
//! form" *after* a run, the ledger answers "what is the engine doing
//! *right now*": it accumulates a chronological stream of structured
//! records — periodic heartbeats (cycle, throughput, in-flight work,
//! active-router count), per-shard sweep metrics when the sharded engine
//! is on (swept routers, sweep wall time, barrier wait, the volume left
//! for the main thread to replay — the first real measurement of shard
//! imbalance), and
//! the fault/retune/watchdog events of the existing timeline mirrored
//! onto the same stream. The records are typed; their JSONL wire form
//! lives with its reader in `rfnoc::ledger`, and the bench runner's sink
//! streams them to a file as they arrive.
//!
//! # Inertness
//!
//! The ledger follows the telemetry inertness contract exactly: the
//! state lives behind `Option<Box<LedgerState>>`, every engine hook
//! starts with one pointer check, and the report is excluded from the
//! golden determinism hashes — all nineteen golden FNV hashes reproduce
//! bit-for-bit with the ledger on, at 1 and 4 threads
//! (`golden_stats_reproduce_with_ledger_enabled`). Wall-clock
//! readings (`Instant`) feed only the observer fields (`wall_ms`,
//! `kcycles_per_sec`, shard sweep/barrier times), never simulated state.
//!
//! # Single-writer rule for shard records
//!
//! Per-shard sweep timings are written by exactly one thread: each pool
//! worker stamps only its own shard's [`super::sweep::ShardBuf`]
//! (`swept` / `sweep_ns`), which it owns exclusively during the sweep via
//! `split_at_mut`. The engine aggregates those fields *after* the
//! cycle-boundary barrier, on the orchestrating thread, so no shard
//! metric is ever read and written concurrently.

#[allow(clippy::wildcard_imports)]
use super::*;
use std::time::Instant;

/// Configuration of the run ledger ([`crate::SimConfig::ledger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerConfig {
    /// Heartbeat interval in cycles: one [`LedgerRecord::Heartbeat`] (and,
    /// on the sharded engine, one [`LedgerRecord::Shard`] per shard) is
    /// emitted per `interval` cycles; the final heartbeat may cover fewer.
    /// Must be non-zero — [`crate::SimConfig::validate`] rejects 0.
    pub interval: u64,
}

impl LedgerConfig {
    /// A ledger emitting one heartbeat every `interval` cycles.
    pub const fn every(interval: u64) -> Self {
        Self { interval }
    }
}

/// One record on the run-ledger timeline. Records are accumulated in
/// chronological order and returned through [`crate::RunStats::ledger`].
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerRecord {
    /// Periodic engine progress. Heartbeats tile the run: `cycle` is the
    /// exclusive end of the covered span, `cycles` its length, and
    /// successive heartbeats abut exactly (`cycle - cycles` equals the
    /// previous heartbeat's `cycle`, the first starting at 0).
    Heartbeat {
        /// Exclusive end cycle of the covered span.
        cycle: u64,
        /// Cycles covered (equals the configured interval except for the
        /// final, partial heartbeat).
        cycles: u64,
        /// Wall-clock milliseconds since the run started.
        wall_ms: f64,
        /// Simulated kilocycles per wall-clock second over the span.
        kcycles_per_sec: f64,
        /// Measured messages in flight at the end of the span.
        in_flight: u64,
        /// Measured messages completed so far (cumulative).
        completed: u64,
        /// Routers scheduled for a visit on the next sweep.
        active_routers: u64,
    },
    /// One shard's sweep metrics over the heartbeat span, emitted per
    /// shard right after each heartbeat when the sharded engine is on
    /// (`threads > 1`).
    Shard {
        /// The owning heartbeat's end cycle.
        cycle: u64,
        /// Shard index.
        shard: u32,
        /// Router visits this shard performed over the span.
        swept_routers: u64,
        /// Wall-clock milliseconds this shard spent sweeping.
        sweep_ms: f64,
        /// Wall-clock milliseconds this shard spent waiting at the
        /// cycle barriers (total sweep-phase wall minus its own sweep).
        barrier_ms: f64,
        /// Operations this shard left for the main thread to replay after
        /// the barrier: flit deliveries and credit returns addressed to
        /// another shard's routers, completions, multicast enqueues and
        /// the order-dependent telemetry operations. Link traffic inside
        /// the shard and summed counters are not counted, so with the
        /// observers off this is the shard's boundary traffic plus one
        /// entry per completed message.
        replay_ops: u64,
    },
    /// A timeline event ([`TimelineEventKind`]) mirrored onto the ledger
    /// stream — faults, retunes, table rewrites, recovery convergence,
    /// watchdog trips.
    Event {
        /// Cycle the event occurred.
        cycle: u64,
        /// What happened.
        kind: TimelineEventKind,
    },
}

/// The full ledger stream of one run, returned through
/// [`crate::RunStats::ledger`]. Like telemetry, a pure observation:
/// excluded from the golden determinism hashes, and the aggregate
/// statistics must be bit-identical with the ledger on or off.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerReport {
    /// Heartbeat interval in cycles.
    pub interval: u64,
    /// Sweep shards the engine ran with (1 = serial engine; shard
    /// records are only present above 1).
    pub shards: u32,
    /// Total router sweep visits over the whole run (warmup and drain
    /// included) — on the sharded engine this equals the sum of
    /// `swept_routers` over every [`LedgerRecord::Shard`] record, the
    /// reconciliation the integration tests assert.
    pub active_visits: u64,
    /// The records, in chronological order.
    pub records: Vec<LedgerRecord>,
}

impl LedgerReport {
    /// Iterates the heartbeat records in order.
    pub fn heartbeats(&self) -> impl Iterator<Item = &LedgerRecord> {
        self.records.iter().filter(|r| matches!(r, LedgerRecord::Heartbeat { .. }))
    }

    /// Sum of `swept_routers` over every shard record.
    pub fn shard_swept_total(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                LedgerRecord::Shard { swept_routers, .. } => Some(*swept_routers),
                _ => None,
            })
            .sum()
    }
}

/// Per-shard accumulator between heartbeats.
#[derive(Debug, Default, Clone, Copy)]
struct ShardAccum {
    swept: u64,
    sweep_ns: u64,
    barrier_ns: u64,
    replay_ops: u64,
}

/// Live ledger accumulator, attached to the network when
/// [`crate::SimConfig::ledger`] is set. Boxed so the disabled case costs
/// one null-check per hook (the telemetry pattern).
#[derive(Debug)]
pub(super) struct LedgerState {
    cfg: LedgerConfig,
    /// Wall-clock origin of the run (set at construction; `wall_ms` is
    /// relative to it).
    start: Instant,
    /// Wall clock at the last heartbeat (throughput denominator).
    last_wall: Instant,
    /// First cycle of the heartbeat span being accumulated.
    hb_start: u64,
    records: Vec<LedgerRecord>,
    active_visits: u64,
    shard_acc: Vec<ShardAccum>,
}

impl LedgerState {
    pub(super) fn new(cfg: LedgerConfig, shards: usize) -> Self {
        let now = Instant::now();
        Self {
            cfg,
            start: now,
            last_wall: now,
            hb_start: 0,
            records: Vec::new(),
            active_visits: 0,
            shard_acc: vec![ShardAccum::default(); shards],
        }
    }

    /// Appends a mirrored timeline event.
    pub(super) fn on_event(&mut self, cycle: u64, kind: TimelineEventKind) {
        self.records.push(LedgerRecord::Event { cycle, kind });
    }
}

impl Network {
    /// Per-cycle ledger work, called once at the end of every
    /// [`Network::step`]: emits a heartbeat (and shard records) when the
    /// interval boundary is reached. No-op when the ledger is disabled.
    #[inline]
    pub(super) fn step_ledger(&mut self) {
        let Some(l) = self.ledger.as_deref() else { return };
        if self.cycle - l.hb_start < l.cfg.interval {
            return;
        }
        self.ledger_emit();
    }

    /// Aggregates this sweep's per-shard metrics, called by
    /// `step_routers` after the sweep and before the buffers are
    /// replayed (replay volume needs the pre-drain lengths; the
    /// shard-local credit list is already drained and not part of it).
    /// `total_ns` is the whole sweep phase's wall time on the sharded
    /// engine (`None` on the serial path); a shard's barrier wait is that
    /// total minus its own sweep time.
    pub(super) fn ledger_note_sweep(&mut self, total_ns: Option<u64>) {
        let sharded = self.shard_ranges.len() > 1;
        let Some(l) = self.ledger.as_deref_mut() else { return };
        for (si, b) in self.shard_bufs.iter().enumerate() {
            l.active_visits += b.swept;
            if sharded {
                let acc = &mut l.shard_acc[si];
                acc.swept += b.swept;
                acc.sweep_ns += b.sweep_ns;
                acc.barrier_ns += total_ns.unwrap_or(0).saturating_sub(b.sweep_ns);
                acc.replay_ops += (b.deliveries.len()
                    + b.credit_returns.len()
                    + b.mc_enqueues.len()
                    + b.completions.len()
                    + b.tel_ops.len()) as u64;
            }
        }
    }

    /// Emits one heartbeat (and, on the sharded engine, one shard record
    /// per shard) covering `[hb_start, cycle)`, then opens the next span.
    fn ledger_emit(&mut self) {
        let cycle = self.cycle;
        let in_flight = self.measured_outstanding;
        let completed = self.stats.completed_messages;
        let epoch = self.active_epoch;
        let active = self.active_stamp.iter().filter(|&&s| s == epoch).count() as u64;
        let sharded = self.shard_ranges.len() > 1;
        let Some(l) = self.ledger.as_deref_mut() else { return };
        let cycles = cycle - l.hb_start;
        if cycles == 0 {
            return;
        }
        let now = Instant::now();
        let wall_ms = now.duration_since(l.start).as_secs_f64() * 1e3;
        let dt = now.duration_since(l.last_wall).as_secs_f64();
        let kcycles_per_sec = if dt > 0.0 { cycles as f64 / dt / 1e3 } else { 0.0 };
        l.records.push(LedgerRecord::Heartbeat {
            cycle,
            cycles,
            wall_ms,
            kcycles_per_sec,
            in_flight,
            completed,
            active_routers: active,
        });
        if sharded {
            for si in 0..l.shard_acc.len() {
                let a = std::mem::take(&mut l.shard_acc[si]);
                l.records.push(LedgerRecord::Shard {
                    cycle,
                    shard: si as u32,
                    swept_routers: a.swept,
                    sweep_ms: a.sweep_ns as f64 / 1e6,
                    barrier_ms: a.barrier_ns as f64 / 1e6,
                    replay_ops: a.replay_ops,
                });
            }
        }
        l.hb_start = cycle;
        l.last_wall = now;
    }

    /// Emits the final partial heartbeat and moves the report into
    /// `self.stats.ledger`; the accumulator is reset so a subsequent
    /// `run` starts a fresh stream.
    pub(super) fn finish_ledger(&mut self) {
        if self.ledger.is_none() {
            return;
        }
        self.ledger_emit();
        let shards = self.shard_ranges.len() as u32;
        let l = self.ledger.as_deref_mut().expect("checked above");
        let report = LedgerReport {
            interval: l.cfg.interval,
            shards,
            active_visits: std::mem::take(&mut l.active_visits),
            records: std::mem::take(&mut l.records),
        };
        self.stats.ledger = Some(Box::new(report));
    }
}
