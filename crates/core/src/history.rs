//! The cross-run trend store: a content-addressed, append-only history
//! of bench/campaign/sweep artifacts under `results/history/`.
//!
//! Every artifact the bench harness writes (`results/json/*.json`) is a
//! snapshot of one run. This module reduces each snapshot to a
//! [`HistoryRecord`] — provenance (git describe, timestamp, quick flag)
//! plus the flattened numeric metric vector of [`crate::compare`] — and
//! files it as `results/history/<artifact>-<fnv64>.json`, where the hash
//! covers the record's canonical rendering. Content addressing makes
//! ingest idempotent: re-ingesting the same artifact is a no-op, so the
//! bench binaries ingest unconditionally after every write and the store
//! only ever grows by genuinely new runs.
//!
//! Consumers:
//!
//! * `rfnoc-cli trend <metric>` renders per-metric time series across the
//!   stored records (sorted by `generated_unix`).
//! * `rfnoc-cli gate` ([`crate::gate`]) judges a fresh artifact against
//!   the rolling history with a noise-aware median ± k·MAD band.
//!
//! The `RFNOC_HISTORY` environment variable redirects the store (a
//! directory path) or disables automatic ingest entirely (`off` or `0`)
//! — CI uses a throwaway directory so smoke runs never pollute the
//! committed history.

use crate::compare::{flatten, parse, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Current schema version written into every record.
pub const SCHEMA_VERSION: u64 = 1;

/// The default store location, relative to the repo root.
pub const DEFAULT_DIR: &str = "results/history";

/// One run's reduced artifact: provenance plus the flattened metric
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Artifact name (`fig7`, `BENCH_mesh_scaling`, ...).
    pub artifact: String,
    /// `git describe` of the run that produced the artifact.
    pub git: String,
    /// The artifact's `generated_unix` stamp (0 when absent).
    pub unix: u64,
    /// The artifact's `quick` flag, when it carries one — quick and full
    /// runs measure different workloads, so the gate never mixes them.
    pub quick: Option<bool>,
    /// Flattened `dotted.path -> value` metrics (timestamps excluded).
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryRecord {
    /// Reduces one parsed artifact document to its history record.
    ///
    /// # Errors
    ///
    /// No artifact name (neither `name_override` nor a `"name"` field).
    pub fn from_artifact(doc: &Json, name_override: Option<&str>) -> Result<Self, String> {
        let name = match name_override {
            Some(n) => n.to_string(),
            None => doc
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("artifact has no \"name\" field (pass --name)")?,
        };
        let git = doc
            .get("git")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let unix = match doc.get("generated_unix") {
            Some(Json::Num(v)) if *v >= 0.0 => *v as u64,
            _ => 0,
        };
        let quick = match doc.get("quick") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        };
        let metrics = flatten(doc)
            .into_iter()
            .filter(|(path, v)| {
                v.is_finite()
                    && path.rsplit('.').next().unwrap_or(path) != "generated_unix"
            })
            .collect();
        Ok(Self { artifact: name, git, unix, quick, metrics })
    }

    /// The canonical JSON rendering ([`Json::pretty`]) — what the content
    /// hash covers and what [`HistoryStore::ingest`] writes to disk.
    pub fn render_json(&self) -> String {
        // Numbers print in shortest round-trip form, so the stored value
        // (and thus the content hash) is exact.
        let metrics = self.metrics.iter().map(|(path, v)| (path.clone(), Json::Num(*v)));
        Json::obj()
            .field("schema", SCHEMA_VERSION)
            .field("artifact", &self.artifact)
            .field("git", &self.git)
            .field("unix", self.unix)
            .field("quick", self.quick)
            .field("metrics", Json::Obj(metrics.collect()))
            .pretty()
    }

    /// FNV-1a content hash of the canonical rendering.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.render_json().as_bytes())
    }

    /// The record's store filename: `<artifact>-<hash>.json`.
    pub fn filename(&self) -> String {
        format!("{}-{:016x}.json", sanitize(&self.artifact), self.content_hash())
    }

    /// Parses a stored record file back.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing/mistyped required field.
    pub fn parse_record(text: &str) -> Result<Self, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let artifact = doc
            .get("artifact")
            .and_then(Json::as_str)
            .ok_or("record has no \"artifact\"")?
            .to_string();
        let git = doc
            .get("git")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let unix = match doc.get("unix") {
            Some(Json::Num(v)) if *v >= 0.0 => *v as u64,
            _ => 0,
        };
        let quick = match doc.get("quick") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        };
        let mut metrics = BTreeMap::new();
        match doc.get("metrics") {
            Some(Json::Obj(fields)) => {
                for (k, v) in fields {
                    if let Json::Num(v) = v {
                        metrics.insert(k.clone(), *v);
                    }
                }
            }
            _ => return Err("record has no \"metrics\" object".into()),
        }
        Ok(Self { artifact, git, unix, quick, metrics })
    }
}

/// Replaces filesystem-hostile characters in an artifact name.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect()
}

/// 64-bit FNV-1a — the same dependency-free hash the golden-stats suite
/// pins simulator output with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`HistoryStore::ingest`] did with a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The record was new and is now stored at this path.
    Added(PathBuf),
    /// An identical record was already stored at this path.
    Duplicate(PathBuf),
}

/// A directory of [`HistoryRecord`] files.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    dir: PathBuf,
}

impl HistoryStore {
    /// A store over `dir` (no filesystem access until ingest/load).
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store the `RFNOC_HISTORY` environment variable selects:
    /// `None` when set to `off`/`0` (automatic ingest disabled), the
    /// named directory when set, [`DEFAULT_DIR`] otherwise.
    pub fn from_env() -> Option<Self> {
        match std::env::var("RFNOC_HISTORY") {
            Ok(v) if v == "off" || v == "0" => None,
            Ok(v) if !v.is_empty() => Some(Self::open(v)),
            _ => Some(Self::open(DEFAULT_DIR)),
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Files a record, content-addressed. Idempotent: an already-stored
    /// identical record reports [`IngestOutcome::Duplicate`].
    ///
    /// # Errors
    ///
    /// Directory creation or file write failures.
    pub fn ingest(&self, rec: &HistoryRecord) -> Result<IngestOutcome, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let path = self.dir.join(rec.filename());
        if path.exists() {
            return Ok(IngestOutcome::Duplicate(path));
        }
        std::fs::write(&path, rec.render_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(IngestOutcome::Added(path))
    }

    /// Loads every stored record, optionally filtered to one artifact
    /// name, sorted oldest-first by (`unix`, git, content) so rolling
    /// windows and trend lines read chronologically. A missing store
    /// directory is an empty history, not an error.
    ///
    /// # Errors
    ///
    /// An unreadable directory entry or a malformed record file.
    pub fn load(&self, artifact: Option<&str>) -> Result<Vec<HistoryRecord>, String> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read {}: {e}", self.dir.display())),
        };
        let mut records = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let rec = HistoryRecord::parse_record(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if artifact.is_none_or(|a| a == rec.artifact) {
                records.push(rec);
            }
        }
        records.sort_by(|a, b| {
            (a.unix, &a.git, &a.metrics)
                .partial_cmp(&(b.unix, &b.git, &b.metrics))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(records)
    }

    /// The distinct artifact names in the store, with record counts.
    ///
    /// # Errors
    ///
    /// See [`Self::load`].
    pub fn artifacts(&self) -> Result<BTreeMap<String, usize>, String> {
        let mut out = BTreeMap::new();
        for rec in self.load(None)? {
            *out.entry(rec.artifact).or_insert(0) += 1;
        }
        Ok(out)
    }
}

/// Extracts one metric's chronological series from loaded records:
/// `(unix, git, value)` per record that carries the exact path.
pub fn series<'r>(
    records: &'r [HistoryRecord],
    path: &str,
) -> Vec<(u64, &'r str, f64)> {
    records
        .iter()
        .filter_map(|r| r.metrics.get(path).map(|&v| (r.unix, r.git.as_str(), v)))
        .collect()
}

/// The distinct metric paths across records that contain `query` as a
/// substring (or match exactly), in sorted order.
pub fn matching_paths(records: &[HistoryRecord], query: &str) -> Vec<String> {
    let mut out: Vec<String> = records
        .iter()
        .flat_map(|r| r.metrics.keys())
        .filter(|p| p.contains(query))
        .cloned()
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARTIFACT: &str = r#"{
        "name": "BENCH_example", "git": "abc123", "generated_unix": 500,
        "quick": true,
        "configs": [
            {"id": "mesh", "cycles_per_sec": 1000.0},
            {"id": "rf", "cycles_per_sec": 800.0}
        ]
    }"#;

    #[test]
    fn artifact_reduces_to_record() {
        let doc = parse(ARTIFACT).unwrap();
        let r = HistoryRecord::from_artifact(&doc, None).unwrap();
        assert_eq!(r.artifact, "BENCH_example");
        assert_eq!(r.git, "abc123");
        assert_eq!(r.unix, 500);
        assert_eq!(r.quick, Some(true));
        assert_eq!(r.metrics["configs[mesh].cycles_per_sec"], 1000.0);
        assert!(
            !r.metrics.contains_key("generated_unix"),
            "timestamps are provenance, not metrics"
        );
    }

    #[test]
    fn record_roundtrips_through_canonical_json() {
        let doc = parse(ARTIFACT).unwrap();
        let rec = HistoryRecord::from_artifact(&doc, None).unwrap();
        let back = HistoryRecord::parse_record(&rec.render_json()).unwrap();
        assert_eq!(rec, back);
        assert_eq!(rec.content_hash(), back.content_hash());
    }

    #[test]
    fn ingest_is_content_addressed_and_idempotent() {
        let dir = std::env::temp_dir().join("rfnoc_history_test_ingest");
        let _ = std::fs::remove_dir_all(&dir);
        let store = HistoryStore::open(&dir);
        let doc = parse(ARTIFACT).unwrap();
        let rec = HistoryRecord::from_artifact(&doc, None).unwrap();
        assert!(matches!(store.ingest(&rec).unwrap(), IngestOutcome::Added(_)));
        assert!(matches!(store.ingest(&rec).unwrap(), IngestOutcome::Duplicate(_)));
        // A different run (new timestamp) is a new record.
        let mut rec2 = rec.clone();
        rec2.unix = 501;
        assert!(matches!(store.ingest(&rec2).unwrap(), IngestOutcome::Added(_)));
        let loaded = store.load(Some("BENCH_example")).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].unix, 500, "sorted oldest-first");
        assert_eq!(store.artifacts().unwrap()["BENCH_example"], 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_store_is_empty_history() {
        let store = HistoryStore::open("/nonexistent/rfnoc_history");
        assert!(store.load(None).unwrap().is_empty());
    }

    #[test]
    fn series_and_matching_paths() {
        let mk = |unix: u64, v: f64| HistoryRecord {
            artifact: "A".into(),
            git: format!("g{unix}"),
            unix,
            quick: None,
            metrics: [("configs[m].cycles_per_sec".to_string(), v)].into(),
        };
        let recs = vec![mk(1, 10.0), mk(2, 20.0)];
        let s = series(&recs, "configs[m].cycles_per_sec");
        assert_eq!(s.len(), 2);
        assert_eq!(s[1], (2, "g2", 20.0));
        assert_eq!(matching_paths(&recs, "cycles_per_sec").len(), 1);
        assert!(matching_paths(&recs, "nope").is_empty());
    }
}
