//! Structured result artifacts: machine-readable JSON (with provenance)
//! and CSV written alongside the printed tables.
//!
//! Every plan-based figure writes `results/json/<name>.json` describing
//! the plan, per-point summaries (latency, tail percentiles, power, area,
//! normalisation, wall time and the build stage's share of it), and run
//! provenance (git describe, timestamp, thread count) — so regenerated
//! figures carry their own methodology. Artifacts are
//! [`rfnoc::json::Json`] values; this module owns the one function that
//! puts them on disk ([`write_file`]; [`write_artifact`] picks the path).

use crate::runner::PlanResults;
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
/// only place the harness creates a JSON file; the Figure 2 SVGs go
/// through it too.
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

/// Writes `doc` to `results/json/<name>.json`; returns the path on
/// success.
pub fn write_artifact(name: &str, doc: &Json) -> Option<PathBuf> {
    let path = artifact_path(name);
    write_file(&path, &doc.pretty()).then_some(path)
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
}
