//! Structured result artifacts: machine-readable JSON (with provenance)
//! and CSV written alongside the printed tables.
//!
//! Every plan-based figure writes `results/json/<name>.json` describing
//! the plan, per-point summaries (latency, tail percentiles, power, area,
//! normalisation, wall time and the build stage's share of it), and run
//! provenance (git describe, timestamp, thread count) — so regenerated
//! figures carry their own methodology. Artifacts are
//! [`rfnoc::json::Json`] values; this module owns the one function that
//! puts them on disk ([`write_file`], with [`write_artifact`] adding the
//! history ingest).

use crate::runner::PlanResults;
use rfnoc::history::{HistoryRecord, HistoryStore, IngestOutcome};
use rfnoc::json::{rounded, Json};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable — the provenance stamp of every artifact.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Seconds since the Unix epoch — the `generated_unix` stamp.
pub fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// The provenance fields every artifact opens with: `name`, `git`,
/// `generated_unix`.
pub fn header(name: &str) -> Json {
    Json::obj()
        .field("name", name)
        .field("git", git_describe())
        .field("generated_unix", unix_now())
}

/// The full artifact for one named plan's results.
pub fn plan_artifact(name: &str, results: &PlanResults) -> Json {
    let r4 = |v: f64| rounded(v, 4);
    let ms = |d: Duration| r4(d.as_secs_f64() * 1e3);
    let points = results.iter().map(|r| {
        let stats = &r.report.stats;
        let (p50, p95, p99) = stats.latency_tail();
        let labels = &r.point.labels;
        let (norm_latency, norm_power) = r.normalized.unzip();
        Json::obj()
            .field("id", &r.point.id)
            .field("design", &labels.design)
            .field("workload", &labels.workload)
            .field("sim", &labels.sim)
            .field("traffic", &labels.traffic)
            .field("placement", &labels.placement)
            .field("fault", &labels.fault)
            .field("baseline_id", r.point.baseline_id.as_ref())
            .field("wall_ms", ms(r.wall))
            .field("build_ms", ms(r.report.build_wall))
            .field("avg_latency_cycles", r4(r.report.avg_latency()))
            .field("avg_flit_latency_cycles", r4(r.report.avg_flit_latency()))
            .field("p50_latency_cycles", r4(p50))
            .field("p95_latency_cycles", r4(p95))
            .field("p99_latency_cycles", r4(p99))
            .field("avg_hops", r4(stats.avg_hops()))
            .field("injected_messages", stats.injected_messages)
            .field("completed_messages", stats.completed_messages)
            .field("completion_rate", r4(stats.completion_rate()))
            .field("power_w", r4(r.report.total_power_w()))
            .field("area_mm2", r4(r.report.total_area_mm2()))
            .field("saturated", stats.saturated)
            .field("health", stats.health.as_ref().map(|h| h.diagnosis.to_string()))
            .field("shortcut_faults", stats.shortcut_faults)
            .field("mesh_link_faults", stats.mesh_link_faults)
            .field("normalized_latency", norm_latency.map(r4))
            .field("normalized_power", norm_power.map(r4))
    });
    header(name)
        .field("jobs", results.jobs)
        .field("points_total", results.results.len())
        .field("unique_experiments", results.unique_runs)
        .field("wall_ms", ms(results.total_wall))
        .field("points_wall_ms", ms(results.points_wall))
        .field("points", Json::arr(points))
}

/// [`plan_artifact`] as the text written to `results/json/<name>.json`.
pub fn render_json(name: &str, results: &PlanResults) -> String {
    plan_artifact(name, results).pretty()
}

/// Where artifact `name` lives: `results/json/<name>.json`.
pub fn artifact_path(name: &str) -> PathBuf {
    PathBuf::from(format!("results/json/{name}.json"))
}

/// Writes `text` to `path`, creating its directory; logs (does not
/// propagate) I/O failures and returns whether the file was written. The
/// only place the harness creates a JSON file.
pub fn write_file(path: &Path, text: &str) -> bool {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match &written {
        Ok(()) => eprintln!("artifact: wrote {}", path.display()),
        Err(e) => eprintln!("artifact: cannot write {}: {e}", path.display()),
    }
    written.is_ok()
}

/// Writes `doc` to `results/json/<name>.json` and files it into the
/// cross-run trend store; returns the path on success.
pub fn write_artifact(name: &str, doc: &Json) -> Option<PathBuf> {
    let path = artifact_path(name);
    write_file(&path, &doc.pretty()).then(|| {
        ingest_history(doc, &path);
        path
    })
}

/// Best-effort ingest of an artifact (just written to `path`) into the
/// cross-run trend store ([`rfnoc::history`]). Controlled by
/// `RFNOC_HISTORY`: unset files records under `results/history/`, a path
/// redirects the store, and `off`/`0` disables ingestion entirely.
/// Failures are logged, never propagated — observability must not fail
/// the run. Re-ingesting an unchanged artifact is a no-op (records are
/// content-addressed).
pub fn ingest_history(doc: &Json, path: &Path) {
    let Some(store) = HistoryStore::from_env() else { return };
    let added = HistoryRecord::from_artifact(doc, None).and_then(|records| {
        let mut added = 0usize;
        for rec in &records {
            if let IngestOutcome::Added(_) = store.ingest(rec)? {
                added += 1;
            }
        }
        Ok(added)
    });
    match added {
        Ok(0) => {}
        Ok(added) => eprintln!(
            "history: {added} new record(s) from {} into {}",
            path.display(),
            store.dir().display()
        ),
        Err(e) => eprintln!("history: cannot ingest {}: {e}", path.display()),
    }
}

/// The wall-clock noise envelope of a best-of-N timed metric: the spread
/// of the repeat samples behind the reported best value. Stored alongside
/// the metric so the regression gate has a per-row noise prior instead of
/// assuming every row is equally (un)reliable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpread {
    /// Smallest repeat sample.
    pub min: f64,
    /// Largest repeat sample.
    pub max: f64,
    /// Population standard deviation of the repeat samples.
    pub stddev: f64,
}

impl MetricSpread {
    /// The spread of `samples`, or `None` when fewer than two repeats
    /// were timed (a single sample has no measurable spread).
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Some(Self { min, max, stddev: var.sqrt() })
    }
}

/// One configuration's headline metrics in a BENCH_trajectory row.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Configuration id (`mesh10x10_low_load`, `mesh64x64_saturated_t4`).
    pub id: String,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Switch-allocator flit grants per wall-clock second.
    pub flit_grants_per_sec: f64,
    /// Max-over-mean per-shard sweep time on the sharded engine; `None`
    /// on serial configs or when the run was not ledger-instrumented.
    pub shard_imbalance: Option<f64>,
    /// Barrier-wait share of the sharded sweep wall time (`None` like
    /// `shard_imbalance`).
    pub barrier_wait_frac: Option<f64>,
    /// Spread of the `cycles_per_sec` repeat samples (best-of-N runs);
    /// `None` on single-repeat configs. The `_spread_*` metric names
    /// contain "spread", which `rfnoc::compare` treats as informational,
    /// so the noise metadata itself is never gated.
    pub spread: Option<MetricSpread>,
}

impl TrajectoryPoint {
    /// A point with throughput metrics only (the serial-engine shape).
    pub fn new(id: impl Into<String>, cycles_per_sec: f64, flit_grants_per_sec: f64) -> Self {
        Self {
            id: id.into(),
            cycles_per_sec,
            flit_grants_per_sec,
            shard_imbalance: None,
            barrier_wait_frac: None,
            spread: None,
        }
    }
}

impl TrajectoryPoint {
    /// Appends the fields only some rows carry — shard balance on
    /// threaded configs, the repeat-sample spread on best-of-N ones — to
    /// a config object; absent values leave their keys out.
    pub fn optional_fields(&self, config: Json) -> Json {
        let r4 = |v: f64| rounded(v, 4);
        config
            .field_opt("shard_imbalance", self.shard_imbalance.map(r4))
            .field_opt("barrier_wait_frac", self.barrier_wait_frac.map(r4))
            .field_opt("cycles_per_sec_spread_min", self.spread.map(|s| r4(s.min)))
            .field_opt("cycles_per_sec_spread_max", self.spread.map(|s| r4(s.max)))
            .field_opt("cycles_per_sec_spread_stddev", self.spread.map(|s| r4(s.stddev)))
    }
}

/// One BENCH_trajectory row: provenance plus the headline throughput of
/// each config. The row is itself a complete artifact, so a row extracted
/// from the trajectory diffs cleanly against another row.
pub fn trajectory_row(git: &str, unix: u64, quick: bool, configs: &[TrajectoryPoint]) -> Json {
    let configs = configs.iter().map(|p| {
        p.optional_fields(
            Json::obj()
                .field("id", &p.id)
                .field("cycles_per_sec", rounded(p.cycles_per_sec, 4))
                .field("flit_grants_per_sec", rounded(p.flit_grants_per_sec, 4)),
        )
    });
    Json::obj()
        .field("git", git)
        .field("generated_unix", unix)
        .field("quick", quick)
        .field("configs", Json::arr(configs))
}

/// The `{"name": ..., "rows": [...]}` document at `path` (a fresh one
/// when the file does not exist yet) with `row` appended.
fn with_row(path: &Path, name: &str, row: Json) -> Result<Json, String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => rfnoc::json::parse(&text).map_err(|e| e.to_string())?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Json::obj().field("name", name).field("rows", Json::Arr(Vec::new()))
        }
        Err(e) => return Err(e.to_string()),
    };
    let rows = match &mut doc {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == "rows"),
        _ => None,
    };
    match rows {
        Some((_, Json::Arr(rows))) => rows.push(row),
        _ => return Err("no \"rows\" array".into()),
    }
    Ok(doc)
}

/// Appends `row` to the rows file at `path`, creating it on first use,
/// and returns the document written. A file that cannot be read, does
/// not parse, or has no `rows` array is reported and left untouched —
/// earlier rows are never dropped.
pub fn append_row(path: &Path, name: &str, row: Json) -> Option<Json> {
    match with_row(path, name, row) {
        Ok(doc) => write_file(path, &doc.pretty()).then_some(doc),
        Err(e) => {
            eprintln!("WARNING: {}: {e}; row not appended, file left as it is", path.display());
            None
        }
    }
}

/// Appends a row to `results/json/BENCH_trajectory.json` and files it
/// into the trend store (idempotent: rows already stored hash to the same
/// filename, so only the fresh row lands).
pub fn append_trajectory(git: &str, unix: u64, quick: bool, configs: &[TrajectoryPoint]) {
    let path = artifact_path("BENCH_trajectory");
    let row = trajectory_row(git, unix, quick, configs);
    if let Some(doc) = append_row(&path, "BENCH_trajectory", row) {
        ingest_history(&doc, &path);
    }
}

/// Writes a CSV next to the printed table, logging (not propagating)
/// failures — the shared replacement for each binary's hand-rolled
/// `write_csv(...).unwrap_or_else(eprintln!)`.
pub fn write_csv_logged(path: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Err(e) = crate::write_csv(path, headers, rows) {
        eprintln!("csv: cannot write {path}: {e}");
    } else {
        eprintln!("csv: wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe().is_empty());
    }

    #[test]
    fn metric_spread_needs_two_samples() {
        assert_eq!(MetricSpread::of(&[]), None);
        assert_eq!(MetricSpread::of(&[5.0]), None);
        let s = MetricSpread::of(&[10.0, 14.0]).unwrap();
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 14.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_row_renders_spread_fields() {
        let mut p = TrajectoryPoint::new("mesh", 100.0, 50.0);
        p.spread = MetricSpread::of(&[90.0, 100.0]);
        let row = trajectory_row("g", 1, true, std::slice::from_ref(&p));
        let config = &row.get("configs").unwrap().line();
        assert!(config.contains("\"cycles_per_sec_spread_min\": 90, "), "{config}");
        assert!(config.contains("\"cycles_per_sec_spread_max\": 100, "), "{config}");
        assert!(config.ends_with("\"cycles_per_sec_spread_stddev\": 5}]"), "{config}");
        let bare = trajectory_row("g", 1, true, &[TrajectoryPoint::new("m", 1.0, 1.0)]);
        assert!(!bare.line().contains("spread"), "{bare:?}");
    }
}
