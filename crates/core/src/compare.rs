//! Cross-run artifact diffing: `rfnoc-cli compare A.json B.json`.
//!
//! Every bench binary writes its results as a JSON artifact
//! (`results/json/*.json`, see [`crate::json`]). This module flattens two
//! of them to dotted metric paths — arrays of objects carrying an `"id"`
//! field are keyed by that id, so config lists align across runs even if
//! reordered — and diffs every numeric metric the two runs share.
//!
//! Each metric's *direction* is inferred from its name: throughput-like
//! metrics (`*_per_sec`, `*throughput*`, `*rate*`) should not fall,
//! cost-like metrics (`*latency*`, `*stall*`, `*wait*`, `*wall_ms*`,
//! `*dropped*`, `*fault*`, `*imbalance*`) should not rise, and anything else is
//! informational. A metric whose worsening exceeds the threshold is a
//! **breach**; the CLI exits nonzero if any metric breaches, which is
//! how CI holds a rerun campaign to its first run (`--threshold 0`).

pub use crate::json::{parse, Json, ParseError};
use std::collections::BTreeMap;

/// Flattens a document to `dotted.path -> numeric value` metrics.
///
/// Arrays of objects that all carry a string `"id"` field are keyed by
/// id (`configs[mesh10x10_low_load].cycles_per_sec`); other arrays are
/// keyed by index. Strings, booleans, and nulls are skipped — the diff
/// compares numbers.
pub fn flatten(value: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(value, String::new(), &mut out);
    out
}

fn walk(value: &Json, path: String, out: &mut BTreeMap<String, f64>) {
    match value {
        Json::Num(v) => {
            out.insert(path, *v);
        }
        Json::Obj(fields) => {
            for (k, v) in fields {
                let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                walk(v, sub, out);
            }
        }
        Json::Arr(items) => {
            let by_id = !items.is_empty()
                && items.iter().all(|i| i.get("id").and_then(Json::as_str).is_some());
            for (idx, item) in items.iter().enumerate() {
                let key = if by_id {
                    item.get("id").and_then(Json::as_str).unwrap().to_string()
                } else {
                    idx.to_string()
                };
                walk(item, format!("{path}[{key}]"), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Falling is a regression (throughput-like).
    HigherIsBetter,
    /// Rising is a regression (latency/cost-like).
    LowerIsBetter,
    /// Reported but never a breach (counts, timestamps, ids).
    Informational,
}

/// Infers a metric's direction from the last segment of its path.
pub fn direction_of(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
    const HIGHER: &[&str] = &["per_sec", "throughput", "rate", "coverage"];
    const LOWER: &[&str] =
        &["latency", "stall", "wait", "wall_ms", "dropped", "fault", "retransmit", "imbalance"];
    if HIGHER.iter().any(|k| leaf.contains(k)) {
        Direction::HigherIsBetter
    } else if LOWER.iter().any(|k| leaf.contains(k)) {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted metric path.
    pub path: String,
    /// Value in the baseline document.
    pub base: f64,
    /// Value in the new document.
    pub new: f64,
    /// Inferred direction.
    pub direction: Direction,
    /// Signed worsening in percent (positive = worse), `None` for
    /// informational metrics or a ~zero baseline.
    pub worsening_pct: Option<f64>,
}

impl MetricDelta {
    /// Whether this metric regressed past `threshold_pct`.
    pub fn breaches(&self, threshold_pct: f64) -> bool {
        self.worsening_pct.is_some_and(|w| w > threshold_pct)
    }
}

/// The outcome of comparing two flattened documents.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every metric present in both documents.
    pub deltas: Vec<MetricDelta>,
    /// Metric paths only in the baseline.
    pub only_base: Vec<String>,
    /// Metric paths only in the new document.
    pub only_new: Vec<String>,
}

impl Comparison {
    /// Metrics breaching `threshold_pct`, worst first.
    pub fn breaches(&self, threshold_pct: f64) -> Vec<&MetricDelta> {
        let mut out: Vec<&MetricDelta> =
            self.deltas.iter().filter(|d| d.breaches(threshold_pct)).collect();
        out.sort_by(|a, b| {
            b.worsening_pct
                .unwrap_or(0.0)
                .partial_cmp(&a.worsening_pct.unwrap_or(0.0))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

/// Timestamps and provenance differ between any two runs; comparing them
/// is noise.
fn ignored(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    matches!(leaf, "generated_unix")
}

/// Compares two parsed documents metric-by-metric.
pub fn compare(base: &Json, new: &Json) -> Comparison {
    let base = flatten(base);
    let new = flatten(new);
    let mut cmp = Comparison::default();
    for (path, &b) in &base {
        if ignored(path) {
            continue;
        }
        match new.get(path) {
            None => cmp.only_base.push(path.clone()),
            Some(&n) => {
                let direction = direction_of(path);
                // A ~zero baseline makes percent change meaningless.
                let worsening_pct = if b.abs() < 1e-9 {
                    None
                } else {
                    match direction {
                        Direction::HigherIsBetter => Some(100.0 * (b - n) / b.abs()),
                        Direction::LowerIsBetter => Some(100.0 * (n - b) / b.abs()),
                        Direction::Informational => None,
                    }
                };
                cmp.deltas.push(MetricDelta {
                    path: path.clone(),
                    base: b,
                    new: n,
                    direction,
                    worsening_pct,
                });
            }
        }
    }
    for path in new.keys() {
        if !ignored(path) && !base.contains_key(path) {
            cmp.only_new.push(path.clone());
        }
    }
    cmp
}

/// Reads, parses, and compares two artifact files, printing a report.
/// Returns the number of metrics breaching `threshold_pct`.
///
/// # Errors
///
/// Returns a message on unreadable files or malformed JSON.
pub fn compare_files(
    base_path: &str,
    new_path: &str,
    threshold_pct: f64,
) -> Result<usize, String> {
    let read = crate::json::read_file;
    let cmp = compare(&read(base_path)?, &read(new_path)?);
    let breaches = cmp.breaches(threshold_pct);

    println!("comparing {base_path} (baseline) vs {new_path} (threshold {threshold_pct}%)");
    println!("  {} shared metrics", cmp.deltas.len());
    // Report the largest movements, regressions first.
    let mut moved: Vec<&MetricDelta> = cmp
        .deltas
        .iter()
        .filter(|d| d.worsening_pct.is_some_and(|w| w.abs() > 0.01))
        .collect();
    moved.sort_by(|a, b| {
        b.worsening_pct
            .unwrap_or(0.0)
            .partial_cmp(&a.worsening_pct.unwrap_or(0.0))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for d in moved.iter().take(20) {
        let w = d.worsening_pct.unwrap_or(0.0);
        println!(
            "  {} {:<58} {:>14.4} -> {:>14.4}  ({:+.1}% {})",
            if d.breaches(threshold_pct) { "BREACH" } else { "      " },
            d.path,
            d.base,
            d.new,
            w,
            if w > 0.0 { "worse" } else { "better" },
        );
    }
    if !cmp.only_base.is_empty() || !cmp.only_new.is_empty() {
        println!(
            "  {} metrics only in baseline, {} only in new",
            cmp.only_base.len(),
            cmp.only_new.len()
        );
    }
    if breaches.is_empty() {
        println!("  OK: no metric worsened by more than {threshold_pct}%");
    } else {
        println!("  FAIL: {} metric(s) regressed past {threshold_pct}%", breaches.len());
    }
    Ok(breaches.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "name": "BENCH", "git": "abc", "generated_unix": 100,
        "configs": [
            {"id": "mesh", "cycles_per_sec": 1000.0, "avg_latency_cycles": 40.0},
            {"id": "rf", "cycles_per_sec": 800.0, "avg_latency_cycles": 30.0}
        ]
    }"#;

    #[test]
    fn parser_roundtrips_artifact_shapes() {
        let v = parse(BASE).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("BENCH"));
        let flat = flatten(&v);
        assert_eq!(flat["configs[mesh].cycles_per_sec"], 1000.0);
        assert_eq!(flat["configs[rf].avg_latency_cycles"], 30.0);
        assert!(!flat.contains_key("name"), "strings are not metrics");
    }

    #[test]
    fn id_keying_survives_reordering() {
        let reordered = r#"{
            "generated_unix": 200,
            "configs": [
                {"id": "rf", "cycles_per_sec": 800.0, "avg_latency_cycles": 30.0},
                {"id": "mesh", "cycles_per_sec": 1000.0, "avg_latency_cycles": 40.0}
            ]
        }"#;
        let cmp = compare(&parse(BASE).unwrap(), &parse(reordered).unwrap());
        assert!(cmp.breaches(0.0).is_empty(), "same values, different order");
        assert!(cmp.deltas.iter().all(|d| (d.base - d.new).abs() < 1e-12));
    }

    #[test]
    fn directions_and_breaches() {
        assert_eq!(direction_of("configs[x].cycles_per_sec"), Direction::HigherIsBetter);
        assert_eq!(direction_of("a.avg_latency_cycles"), Direction::LowerIsBetter);
        assert_eq!(direction_of("runs[0].sa_wait"), Direction::LowerIsBetter);
        assert_eq!(direction_of("completed_messages"), Direction::Informational);

        // A 30% throughput drop and a 50% latency rise.
        let regressed = BASE
            .replace("\"cycles_per_sec\": 1000.0", "\"cycles_per_sec\": 700.0")
            .replace("\"avg_latency_cycles\": 30.0", "\"avg_latency_cycles\": 45.0");
        let cmp = compare(&parse(BASE).unwrap(), &parse(&regressed).unwrap());
        let breaches = cmp.breaches(20.0);
        assert_eq!(breaches.len(), 2);
        assert_eq!(breaches[0].path, "configs[rf].avg_latency_cycles", "worst first");
        assert!(cmp.breaches(60.0).is_empty(), "generous threshold tolerates both");

        // Self-compare never breaches, even at threshold 0.
        let self_cmp = compare(&parse(BASE).unwrap(), &parse(BASE).unwrap());
        assert!(self_cmp.breaches(0.0).is_empty());

        // Improvements never breach.
        let improved = BASE.replace("\"cycles_per_sec\": 1000.0", "\"cycles_per_sec\": 2000.0");
        let cmp = compare(&parse(BASE).unwrap(), &parse(&improved).unwrap());
        assert!(cmp.breaches(0.0).is_empty());
    }

    #[test]
    fn compare_files_self_is_clean_and_regression_counts() {
        let dir = std::env::temp_dir().join("rfnoc_compare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, BASE).unwrap();
        std::fs::write(&b, BASE.replace("1000.0", "100.0")).unwrap();
        let a = a.to_str().unwrap();
        let b = b.to_str().unwrap();
        assert_eq!(compare_files(a, a, 5.0).unwrap(), 0, "self-compare is clean");
        assert!(compare_files(a, b, 5.0).unwrap() > 0, "synthetic regression caught");
        assert!(compare_files(a, "/nonexistent.json", 5.0).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
