//! Run-ledger aggregation: reads the JSONL stream the bench runner's
//! ledger sink writes (`results/ledger/<name>.jsonl`) and reduces it to
//! the numbers an operator actually wants — overall throughput, shard
//! balance, barrier-wait share, point-lifecycle progress, event counts.
//!
//! Two front ends in `rfnoc-cli` sit on top:
//!
//! * `rfnoc-cli tail <ledger.jsonl>` renders [`LedgerSummary::render_tail`]
//!   — a compact live view (throughput sparkline, slowest shard, worst
//!   imbalance ratio, ETA from the remaining plan points) — optionally
//!   re-rendering as the file grows (`--follow`).
//! * `rfnoc-cli ledger-summary <ledger.jsonl>` prints
//!   [`LedgerSummary::render_json`] — a flat JSON report whose metric
//!   names carry the [`crate::compare`] direction keywords
//!   (`kcycles_per_sec_*` must not fall; `barrier_wait_frac`,
//!   `*_imbalance` must not rise), so two summaries can be gated with
//!   `rfnoc-cli compare a.json b.json --threshold PCT` like any other
//!   artifact.
//!
//! Every line of the ledger is one flat JSON object tagged with `kind`
//! (`heartbeat` / `shard` / `event` from the engine, `plan_*` / `point_*`
//! from the runner) and stamped with `t_ms`. The engine records' wire
//! form is [`record_json`], next to the reader that looks the same field
//! names up. The reader is strict about
//! JSON well-formedness (a malformed line is an error — a truncated final
//! line, the one legitimate mid-write artifact of `--follow`, is the only
//! exception) and tolerant about unknown kinds, which it counts but
//! otherwise ignores so the schema can grow.

use crate::json::{parse, rounded, Json};
use rfnoc_sim::{LedgerRecord, TimelineEventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The wire form of one engine ledger record: a flat object tagged with
/// `kind`, wall-clock fields at four decimals. The runner's sink stamps
/// it with `t_ms` and the plan point before streaming it.
pub fn record_json(rec: &LedgerRecord) -> Json {
    let r4 = |v: f64| rounded(v, 4);
    match rec {
        LedgerRecord::Heartbeat {
            cycle,
            cycles,
            wall_ms,
            kcycles_per_sec,
            in_flight,
            completed,
            active_routers,
        } => Json::obj()
            .field("kind", "heartbeat")
            .field("cycle", *cycle)
            .field("cycles", *cycles)
            .field("wall_ms", r4(*wall_ms))
            .field("kcycles_per_sec", r4(*kcycles_per_sec))
            .field("in_flight", *in_flight)
            .field("completed", *completed)
            .field("active_routers", *active_routers),
        LedgerRecord::Shard { cycle, shard, swept_routers, sweep_ms, barrier_ms, replay_ops } => {
            Json::obj()
                .field("kind", "shard")
                .field("cycle", *cycle)
                .field("shard", *shard)
                .field("swept_routers", *swept_routers)
                .field("sweep_ms", r4(*sweep_ms))
                .field("barrier_ms", r4(*barrier_ms))
                .field("replay_ops", *replay_ops)
        }
        LedgerRecord::Event { cycle, kind } => {
            let doc = Json::obj().field("kind", "event").field("cycle", *cycle);
            match kind {
                TimelineEventKind::Fault(e) => {
                    doc.field("event", "fault").field("detail", format!("{e:?}"))
                }
                TimelineEventKind::RetuneApplied { installed } => {
                    doc.field("event", "retune_applied").field("installed", *installed)
                }
                TimelineEventKind::TablesRewritten => doc.field("event", "tables_rewritten"),
                TimelineEventKind::RecoveryConverged { fault_cycle, after } => doc
                    .field("event", "recovery_converged")
                    .field("fault_cycle", *fault_cycle)
                    .field("after", *after),
                TimelineEventKind::WatchdogFired => doc.field("event", "watchdog_fired"),
            }
        }
    }
}

/// Reads a numeric field of a flat record.
fn num(rec: &Json, key: &str) -> Option<f64> {
    match rec.get(key) {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

/// Reads a string field of a flat record.
fn text<'j>(rec: &'j Json, key: &str) -> Option<&'j str> {
    rec.get(key).and_then(Json::as_str)
}

/// Accumulated totals for one engine shard across every `shard` record.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ShardTotals {
    /// Total router visits this shard performed.
    pub swept_routers: f64,
    /// Total wall milliseconds spent sweeping.
    pub sweep_ms: f64,
    /// Total wall milliseconds spent waiting at cycle barriers.
    pub barrier_ms: f64,
    /// Total operations the main thread replayed for this shard after
    /// the barriers: flits and credits that crossed a shard boundary,
    /// completions, multicast enqueues and the telemetry operations whose
    /// order matters. Link traffic inside the shard is applied by the
    /// shard, and summed counters are added without an operation; neither
    /// is counted.
    pub replay_ops: f64,
}

/// The reduced view of one ledger file. Build with
/// [`LedgerSummary::from_file`] or [`LedgerSummary::from_text`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LedgerSummary {
    /// Total well-formed records read.
    pub records: usize,
    /// Records with an unrecognised `kind` (counted, otherwise ignored).
    pub unknown_kinds: usize,
    /// First and last `t_ms` stamps seen (0/0 when empty).
    pub t_ms_span: (f64, f64),
    /// Heartbeat count.
    pub heartbeats: usize,
    /// Total simulated cycles covered by heartbeats.
    pub total_cycles: f64,
    /// Per-heartbeat `kcycles_per_sec` readings, in file order (feeds the
    /// tail sparkline).
    pub kcps: Vec<f64>,
    /// Last heartbeat's `in_flight` reading.
    pub in_flight_last: f64,
    /// Per-shard totals, keyed by shard index.
    pub shards: BTreeMap<u64, ShardTotals>,
    /// Timeline event counts keyed by event name (`fault`,
    /// `retune_applied`, ...).
    pub events: BTreeMap<String, usize>,
    /// Unique plan points announced by `plan_start` (dedup already
    /// applied), when a runner wrote this ledger.
    pub points_planned: Option<f64>,
    /// Worker threads the runner announced in `plan_start`.
    pub jobs: Option<f64>,
    /// Dedup cache hits announced in `plan_start`.
    pub dedup_hits: Option<f64>,
    /// Last heartbeat's `completed` reading (cumulative completed
    /// messages inside the current point's engine run).
    pub completed_last: f64,
    /// `point_queued` / `point_start` / `point_finish` record counts.
    pub points_queued: usize,
    /// Points that have started.
    pub points_started: usize,
    /// Points that have finished.
    pub points_finished: usize,
    /// Wall milliseconds of each finished point, in finish order.
    pub point_wall_ms: Vec<f64>,
    /// Total plan wall milliseconds, once `plan_finish` has been written.
    pub plan_wall_ms: Option<f64>,
    /// Schema violations found while reading (heartbeat cycles not
    /// strictly increasing within a point's stream, spans not tiling,
    /// missing required fields). Empty on a healthy ledger.
    pub problems: Vec<String>,
}

impl LedgerSummary {
    /// Reads and reduces a ledger file.
    ///
    /// # Errors
    ///
    /// An unreadable file or a malformed (non-final) JSON line.
    pub fn from_file(path: &str) -> Result<Self, String> {
        let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_text(&data)
    }

    /// Reduces ledger text (one JSON object per line).
    ///
    /// # Errors
    ///
    /// A malformed JSON line, except a truncated *final* line — under
    /// `--follow` the writer may be mid-line; that line is ignored.
    pub fn from_text(data: &str) -> Result<Self, String> {
        let mut r = LedgerReader::new();
        let lines: Vec<&str> = data.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            match r.push_line(line) {
                Ok(()) => {}
                // A truncated final line is the expected artifact of
                // tailing a live file; anything earlier is corruption.
                Err(_) if i + 1 == lines.len() => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(r.into_summary())
    }

    fn note_heartbeat(
        &mut self,
        rec: &Json,
        point: &str,
        line: usize,
        hb_last: &mut BTreeMap<String, f64>,
    ) {
        self.heartbeats += 1;
        let (Some(cycle), Some(cycles)) = (num(rec, "cycle"), num(rec, "cycles")) else {
            self.problems.push(format!("line {line}: heartbeat missing cycle/cycles"));
            return;
        };
        self.total_cycles += cycles;
        if let Some(k) = num(rec, "kcycles_per_sec") {
            self.kcps.push(k);
        }
        if let Some(f) = num(rec, "in_flight") {
            self.in_flight_last = f;
        }
        if let Some(c) = num(rec, "completed") {
            self.completed_last = c;
        }
        let prev = hb_last.get(point).copied().unwrap_or(0.0);
        // Cycles travel as JSON numbers (f64): above 2^53 neighbouring
        // cycles round to one value, so compare within the spacing of the
        // values read there.
        let slack = if cycle < 2f64.powi(53) { 0.0 } else { cycle * f64::EPSILON };
        if cycle + slack <= prev {
            self.problems.push(format!(
                "line {line}: heartbeat cycle {cycle} not after previous {prev}"
            ));
        } else if (cycle - cycles - prev).abs() > 0.5 + slack {
            self.problems.push(format!(
                "line {line}: heartbeat [{}, {cycle}) does not abut previous end {prev}",
                cycle - cycles
            ));
        }
        hb_last.insert(point.to_string(), cycle);
    }

    fn note_shard(&mut self, rec: &Json, line: usize) {
        let Some(shard) = num(rec, "shard") else {
            self.problems.push(format!("line {line}: shard record missing shard index"));
            return;
        };
        let t = self.shards.entry(shard as u64).or_default();
        t.swept_routers += num(rec, "swept_routers").unwrap_or(0.0);
        t.sweep_ms += num(rec, "sweep_ms").unwrap_or(0.0);
        t.barrier_ms += num(rec, "barrier_ms").unwrap_or(0.0);
        t.replay_ops += num(rec, "replay_ops").unwrap_or(0.0);
    }

    /// Mean of the per-heartbeat throughput readings (0 when none).
    pub fn kcps_mean(&self) -> f64 {
        if self.kcps.is_empty() {
            return 0.0;
        }
        self.kcps.iter().sum::<f64>() / self.kcps.len() as f64
    }

    /// Peak per-heartbeat throughput reading (0 when none).
    pub fn kcps_max(&self) -> f64 {
        self.kcps.iter().copied().fold(0.0, f64::max)
    }

    /// Shard imbalance: max over mean of per-shard total sweep time.
    /// 1.0 is perfect balance; `None` without shard records.
    pub fn shard_imbalance(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let times: Vec<f64> = self.shards.values().map(|t| t.sweep_ms).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean <= 0.0 {
            return Some(1.0);
        }
        Some(times.iter().copied().fold(0.0, f64::max) / mean)
    }

    /// Share of sharded sweep wall time spent waiting at barriers:
    /// `Σ barrier / (Σ barrier + Σ sweep)`. `None` without shard records.
    pub fn barrier_wait_frac(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        let sweep: f64 = self.shards.values().map(|t| t.sweep_ms).sum();
        let barrier: f64 = self.shards.values().map(|t| t.barrier_ms).sum();
        let total = sweep + barrier;
        if total <= 0.0 {
            return Some(0.0);
        }
        Some(barrier / total)
    }

    /// The shard with the largest total sweep time, with that time.
    pub fn slowest_shard(&self) -> Option<(u64, f64)> {
        self.shards
            .iter()
            .map(|(&id, t)| (id, t.sweep_ms))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Estimated wall milliseconds to finish the remaining plan points:
    /// mean finished-point wall × remaining ÷ worker threads. `None`
    /// until at least one point has finished, or with no plan records.
    pub fn eta_ms(&self) -> Option<f64> {
        let planned = self.points_planned?;
        let remaining = planned - self.points_finished as f64;
        if remaining <= 0.0 || self.point_wall_ms.is_empty() {
            return None;
        }
        let mean = self.point_wall_ms.iter().sum::<f64>() / self.point_wall_ms.len() as f64;
        Some(mean * remaining / self.jobs.unwrap_or(1.0).max(1.0))
    }

    /// Renders the flat JSON report for `rfnoc-cli ledger-summary`.
    ///
    /// Metric names carry the [`crate::compare::direction_of`] keywords so
    /// two reports diff meaningfully: `kcycles_per_sec_*` is
    /// higher-is-better, `barrier_wait_frac` / `shard_imbalance` /
    /// `*_wall_ms` are lower-is-better, counts are informational. Shards
    /// render as an id-keyed array so `compare` aligns them by shard even
    /// across reordered reports.
    pub fn render_json(&self) -> String {
        let r4 = |v: f64| rounded(v, 4);
        let shards = self.shards.iter().map(|(id, t)| {
            Json::obj()
                .field("id", format!("shard{id}"))
                .field("swept_routers", r4(t.swept_routers))
                .field("sweep_ms", r4(t.sweep_ms))
                .field("barrier_ms", r4(t.barrier_ms))
                .field("replay_ops", r4(t.replay_ops))
        });
        let events = self.events.iter().map(|(name, &count)| (name.clone(), count.into()));
        Json::obj()
            .field("records", self.records)
            .field("heartbeats", self.heartbeats)
            .field("total_kcycles", r4(self.total_cycles / 1e3))
            .field("kcycles_per_sec_mean", r4(self.kcps_mean()))
            .field("kcycles_per_sec_max", r4(self.kcps_max()))
            .field("span_wall_ms", r4(self.t_ms_span.1 - self.t_ms_span.0))
            .field_opt("shard_imbalance", self.shard_imbalance().map(r4))
            .field_opt("barrier_wait_frac", self.barrier_wait_frac().map(r4))
            .field_opt("shards", (!self.shards.is_empty()).then(|| Json::arr(shards)))
            .field_opt("points_planned", self.points_planned.map(r4))
            .field("points_finished", self.points_finished)
            .field_opt("dedup_hits", self.dedup_hits.map(r4))
            .field_opt("plan_wall_ms", self.plan_wall_ms.map(r4))
            .field_opt("events", (!self.events.is_empty()).then(|| Json::Obj(events.collect())))
            .field("schema_problems", self.problems.len())
            .pretty()
    }

    /// Renders the compact live view for `rfnoc-cli tail`.
    pub fn render_tail(&self) -> String {
        let mut out = String::new();
        let span_s = (self.t_ms_span.1 - self.t_ms_span.0) / 1e3;
        let _ = writeln!(
            out,
            "records: {} over {:.1} s  ({} heartbeats, {:.0} kcycles simulated)",
            self.records,
            span_s,
            self.heartbeats,
            self.total_cycles / 1e3,
        );
        if let Some(planned) = self.points_planned {
            let running = self.points_started.saturating_sub(self.points_finished);
            let queued =
                self.points_queued.saturating_sub(self.points_started);
            let _ = write!(
                out,
                "points: {}/{} finished ({running} running, {queued} queued",
                self.points_finished, planned as u64,
            );
            if let Some(d) = self.dedup_hits.filter(|&d| d > 0.0) {
                let _ = write!(out, ", dedup {}", d as u64);
            }
            out.push(')');
            match self.eta_ms() {
                Some(eta) => {
                    let _ = writeln!(out, "  ETA ~{:.1} s", eta / 1e3);
                }
                None => out.push('\n'),
            }
        }
        if !self.kcps.is_empty() {
            let _ = writeln!(
                out,
                "throughput: {}  mean {:.0} kcyc/s  max {:.0}  last {:.0}",
                sparkline(&self.kcps, 40),
                self.kcps_mean(),
                self.kcps_max(),
                self.kcps.last().copied().unwrap_or(0.0),
            );
        }
        if let (Some((slow, ms)), Some(imb), Some(bw)) =
            (self.slowest_shard(), self.shard_imbalance(), self.barrier_wait_frac())
        {
            let _ = writeln!(
                out,
                "shards ({}): slowest #{slow} ({ms:.1} ms swept), imbalance {imb:.2}x, \
                 barrier wait {:.1}%, {:.0} ops replayed by the main thread",
                self.shards.len(),
                bw * 100.0,
                self.shards.values().map(|t| t.replay_ops).sum::<f64>(),
            );
        }
        if !self.events.is_empty() {
            let evs: Vec<String> =
                self.events.iter().map(|(k, v)| format!("{k}\u{d7}{v}")).collect();
            let _ = writeln!(out, "events: {}", evs.join(" "));
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        out
    }
}

/// Incremental ledger reduction: feed JSONL lines one at a time and read
/// the running [`LedgerSummary`] between pushes. This is the engine under
/// [`LedgerSummary::from_text`] and under the live observatory hub
/// ([`crate::obs::ObsHub`]), which needs per-record aggregation without
/// re-reading the whole file on every `/metrics` request.
#[derive(Debug, Default, Clone)]
pub struct LedgerReader {
    summary: LedgerSummary,
    /// `point -> last heartbeat cycle` for monotonicity + tiling checks.
    hb_last: BTreeMap<String, f64>,
    /// Lines pushed so far (including blank and rejected ones) — the
    /// 1-based line number used in problem and error messages.
    lines_seen: usize,
}

impl LedgerReader {
    /// A reader with nothing pushed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The running reduction over everything pushed so far.
    pub fn summary(&self) -> &LedgerSummary {
        &self.summary
    }

    /// Consumes the reader, yielding the final reduction.
    pub fn into_summary(self) -> LedgerSummary {
        self.summary
    }

    /// Lines pushed so far (blank and malformed lines included).
    pub fn lines_seen(&self) -> usize {
        self.lines_seen
    }

    /// Feeds one ledger line. Blank lines are ignored (but counted for
    /// line numbering).
    ///
    /// # Errors
    ///
    /// Malformed JSON; the summary is unchanged by a rejected line, so
    /// the caller may drop it (truncated tail) or abort (corruption).
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        self.lines_seen += 1;
        let line_no = self.lines_seen;
        if line.trim().is_empty() {
            return Ok(());
        }
        let rec = parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let s = &mut self.summary;
        s.records += 1;
        if let Some(t) = num(&rec, "t_ms") {
            if s.records == 1 {
                s.t_ms_span.0 = t;
            }
            s.t_ms_span.1 = s.t_ms_span.1.max(t);
        }
        let point = text(&rec, "point").unwrap_or("").to_string();
        match text(&rec, "kind") {
            Some("heartbeat") => s.note_heartbeat(&rec, &point, line_no, &mut self.hb_last),
            Some("shard") => s.note_shard(&rec, line_no),
            Some("event") => {
                let name = text(&rec, "event").unwrap_or("unknown").to_string();
                *s.events.entry(name).or_insert(0) += 1;
            }
            Some("plan_start") => {
                s.points_planned = num(&rec, "unique").or_else(|| num(&rec, "points"));
                s.jobs = num(&rec, "jobs");
                s.dedup_hits = num(&rec, "dedup_hits");
            }
            Some("point_queued") => s.points_queued += 1,
            Some("point_start") => s.points_started += 1,
            Some("point_finish") => {
                s.points_finished += 1;
                if let Some(w) = num(&rec, "wall_ms") {
                    s.point_wall_ms.push(w);
                }
            }
            Some("plan_finish") => s.plan_wall_ms = num(&rec, "wall_ms"),
            _ => s.unknown_kinds += 1,
        }
        Ok(())
    }
}

/// Renders a series as a fixed-width Unicode sparkline: values are
/// bucketed to at most `width` columns (bucket mean), scaled to the
/// series maximum.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cols = width.min(values.len());
    let per = values.len().div_ceil(cols);
    let buckets: Vec<f64> = values
        .chunks(per)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = buckets.iter().copied().fold(0.0, f64::max);
    if max <= 0.0 {
        return BARS[0].to_string().repeat(buckets.len());
    }
    buckets
        .iter()
        .map(|&v| {
            let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"t_ms\": 0.100, \"kind\": \"plan_start\", \"points\": 4, \"unique\": 3, ",
        "\"dedup_hits\": 1, \"jobs\": 2, \"sim_threads\": 4}\n",
        "{\"t_ms\": 0.200, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
        "{\"t_ms\": 0.210, \"kind\": \"point_queued\", \"point\": \"b\"}\n",
        "{\"t_ms\": 0.220, \"kind\": \"point_queued\", \"point\": \"c\"}\n",
        "{\"t_ms\": 0.300, \"kind\": \"point_start\", \"point\": \"a\"}\n",
        "{\"t_ms\": 1.000, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 2000, ",
        "\"cycles\": 2000, \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, ",
        "\"in_flight\": 5, \"completed\": 10, \"active_routers\": 16}\n",
        "{\"t_ms\": 1.100, \"point\": \"a\", \"kind\": \"shard\", \"cycle\": 2000, ",
        "\"shard\": 0, \"swept_routers\": 900, \"sweep_ms\": 3.0, ",
        "\"barrier_ms\": 1.0, \"replay_ops\": 40}\n",
        "{\"t_ms\": 1.200, \"point\": \"a\", \"kind\": \"shard\", \"cycle\": 2000, ",
        "\"shard\": 1, \"swept_routers\": 700, \"sweep_ms\": 1.0, ",
        "\"barrier_ms\": 3.0, \"replay_ops\": 20}\n",
        "{\"t_ms\": 1.500, \"point\": \"a\", \"kind\": \"event\", \"cycle\": 2100, ",
        "\"event\": \"fault\", \"detail\": \"ShortcutDown { id: 3 }\"}\n",
        "{\"t_ms\": 2.000, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 3500, ",
        "\"cycles\": 1500, \"wall_ms\": 1.5, \"kcycles_per_sec\": 300.0, ",
        "\"in_flight\": 2, \"completed\": 40, \"active_routers\": 12}\n",
        "{\"t_ms\": 2.500, \"kind\": \"point_finish\", \"point\": \"a\", ",
        "\"wall_ms\": 2.2, \"avg_latency\": 21.5, \"saturated\": false, ",
        "\"healthy\": true}\n",
    );

    /// Writer to reader: every engine record variant, rendered with
    /// `line()`, is a record the summary accepts without a schema problem.
    #[test]
    fn records_render_as_json_objects() {
        use rfnoc_sim::FaultEvent;
        let heartbeat = |cycle| LedgerRecord::Heartbeat {
            cycle,
            cycles: 500,
            wall_ms: 1.25,
            kcycles_per_sec: 400.0,
            in_flight: 7,
            completed: 93,
            active_routers: 64,
        };
        let event = |kind| LedgerRecord::Event { cycle: 123, kind };
        let records = [
            heartbeat(500),
            LedgerRecord::Shard {
                cycle: 500,
                shard: 3,
                swept_routers: 1200,
                sweep_ms: 0.5,
                barrier_ms: 0.123_456,
                replay_ops: 42,
            },
            event(TimelineEventKind::Fault(FaultEvent::BandDown)),
            event(TimelineEventKind::RetuneApplied { installed: 5 }),
            event(TimelineEventKind::TablesRewritten),
            event(TimelineEventKind::RecoveryConverged { fault_cycle: 100, after: 23 }),
            event(TimelineEventKind::WatchdogFired),
            heartbeat(1000),
        ];
        let lines: Vec<String> = records.iter().map(|r| record_json(r).line()).collect();
        assert_eq!(
            lines[0],
            "{\"kind\": \"heartbeat\", \"cycle\": 500, \"cycles\": 500, \"wall_ms\": 1.25, \
             \"kcycles_per_sec\": 400, \"in_flight\": 7, \"completed\": 93, \
             \"active_routers\": 64}"
        );
        assert!(lines[1].contains("\"shard\": 3, ") && lines[1].contains("\"barrier_ms\": 0.1235"));
        assert!(lines[2].contains("\"event\": \"fault\", \"detail\": \"BandDown\""));

        let s = LedgerSummary::from_text(&lines.join("\n")).unwrap();
        assert!(s.problems.is_empty(), "{:?}", s.problems);
        assert_eq!((s.records, s.unknown_kinds, s.heartbeats), (records.len(), 0, 2));
        assert_eq!(s.shards[&3].swept_routers, 1200.0);
        for name in
            ["fault", "retune_applied", "tables_rewritten", "recovery_converged", "watchdog_fired"]
        {
            assert_eq!(s.events.get(name), Some(&1), "{name}");
        }
    }

    #[test]
    fn sample_ledger_reduces() {
        let s = LedgerSummary::from_text(SAMPLE).unwrap();
        assert_eq!(s.records, 11);
        assert_eq!(s.heartbeats, 2);
        assert!((s.total_cycles - 3500.0).abs() < 1e-9);
        assert_eq!(s.kcps, vec![100.0, 300.0]);
        assert!((s.kcps_mean() - 200.0).abs() < 1e-9);
        assert_eq!(s.points_planned, Some(3.0));
        assert_eq!(s.points_queued, 3);
        assert_eq!(s.points_started, 1);
        assert_eq!(s.points_finished, 1);
        assert_eq!(s.events.get("fault"), Some(&1));
        assert!(s.problems.is_empty(), "{:?}", s.problems);
        // Shards: sweep 3+1, barrier 1+3 → imbalance 1.5, wait frac 0.5.
        assert!((s.shard_imbalance().unwrap() - 1.5).abs() < 1e-9);
        assert!((s.barrier_wait_frac().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(s.slowest_shard(), Some((0, 3.0)));
        // ETA: 2 remaining × 2.2 ms mean ÷ 2 jobs = 2.2 ms.
        assert!((s.eta_ms().unwrap() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn summary_json_is_parseable_and_directional() {
        let s = LedgerSummary::from_text(SAMPLE).unwrap();
        let json = s.render_json();
        let doc = parse(&json).expect("summary must be valid JSON");
        let flat = crate::compare::flatten(&doc);
        assert!(flat.contains_key("kcycles_per_sec_mean"));
        assert!(flat.contains_key("barrier_wait_frac"));
        assert!(flat.contains_key("shards[shard0].sweep_ms"));
        use crate::compare::{direction_of, Direction};
        assert_eq!(direction_of("kcycles_per_sec_mean"), Direction::HigherIsBetter);
        assert_eq!(direction_of("barrier_wait_frac"), Direction::LowerIsBetter);
        assert_eq!(direction_of("shard_imbalance"), Direction::LowerIsBetter);
    }

    #[test]
    fn monotonicity_violations_are_flagged() {
        let bad = concat!(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, ",
            "\"wall_ms\": 1.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
            "{\"t_ms\": 2.0, \"kind\": \"heartbeat\", \"cycle\": 1500, \"cycles\": 500, ",
            "\"wall_ms\": 2.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
        );
        let s = LedgerSummary::from_text(bad).unwrap();
        assert_eq!(s.problems.len(), 1, "{:?}", s.problems);
        // A gap (non-abutting spans) is also flagged.
        let gap = concat!(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, ",
            "\"wall_ms\": 1.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
            "{\"t_ms\": 2.0, \"kind\": \"heartbeat\", \"cycle\": 5000, \"cycles\": 1000, ",
            "\"wall_ms\": 2.0, \"kcycles_per_sec\": 1.0, \"in_flight\": 0, ",
            "\"completed\": 0, \"active_routers\": 0}\n",
        );
        assert_eq!(LedgerSummary::from_text(gap).unwrap().problems.len(), 1);
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let text = concat!(
            "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
            "{\"t_ms\": 2.0, \"kind\": \"point_st",
        );
        let s = LedgerSummary::from_text(text).unwrap();
        assert_eq!(s.records, 1);
        // ... but an early malformed line is an error.
        let bad = concat!(
            "{\"t_ms\": 2.0, \"kind\": \"point_st\n",
            "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}\n",
        );
        assert!(LedgerSummary::from_text(bad).is_err());
    }

    #[test]
    fn sparkline_buckets_and_scales() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[0.0, 0.0], 10), "\u{2581}\u{2581}");
        let line = sparkline(&[1.0, 2.0, 4.0, 8.0], 4);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('\u{2588}'));
        // 8 values into 4 columns: bucketed by pairs.
        assert_eq!(sparkline(&[1.0; 8], 4).chars().count(), 4);
    }

    #[test]
    fn tail_renders_key_lines() {
        let s = LedgerSummary::from_text(SAMPLE).unwrap();
        let tail = s.render_tail();
        assert!(tail.contains("points: 1/3 finished"), "{tail}");
        assert!(tail.contains("ETA"), "{tail}");
        assert!(tail.contains("slowest #0"), "{tail}");
        assert!(tail.contains("barrier wait 50.0%"), "{tail}");
        assert!(tail.contains("fault\u{d7}1"), "{tail}");
    }
}
