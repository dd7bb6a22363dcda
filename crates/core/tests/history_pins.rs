//! The history store's canonical rendering is its content address:
//! `results/history/<artifact>-<fnv64 of render_json>.json`. These pins
//! hold that rendering byte for byte, so records filed by earlier
//! commits keep deduplicating against records rendered today.

use rfnoc::history::HistoryRecord;

fn fixture(quick: Option<bool>) -> HistoryRecord {
    HistoryRecord {
        artifact: "BENCH example/1".into(),
        git: "abc123-dirty \"q\" \\".into(),
        unix: 1_786_043_102,
        quick,
        metrics: [
            ("configs[mesh].cycles_per_sec", 264_023.932_1),
            ("configs[mesh].flit_grants", 1000.0),
            ("configs[mesh].tiny", 2.5e-7),
            ("configs[mesh].huge", 1e21),
            ("configs[rf].delta", -0.1 - 0.2),
            ("configs[rf].zero", -0.0),
            ("points[a/\"b\"\nc].wall_ms", 12.5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    }
}

const EXPECTED: &str = r#"{
  "schema": 1,
  "artifact": "BENCH example/1",
  "git": "abc123-dirty \"q\" \\",
  "unix": 1786043102,
  "quick": true,
  "metrics": {
    "configs[mesh].cycles_per_sec": 264023.9321,
    "configs[mesh].flit_grants": 1000,
    "configs[mesh].huge": 1000000000000000000000,
    "configs[mesh].tiny": 0.00000025,
    "configs[rf].delta": -0.30000000000000004,
    "configs[rf].zero": -0,
    "points[a/\"b\"\nc].wall_ms": 12.5
  }
}
"#;

#[test]
fn canonical_rendering_is_byte_exact() {
    let rec = fixture(Some(true));
    assert_eq!(rec.render_json(), EXPECTED);
    assert_eq!(rec.filename(), "BENCH_example_1-36995e16a694ffff.json");
    assert_eq!(HistoryRecord::parse_record(EXPECTED).unwrap(), rec);

    let unset = fixture(None).render_json();
    assert_eq!(unset, EXPECTED.replace("\"quick\": true", "\"quick\": null"));
    let full = fixture(Some(false)).render_json();
    assert_eq!(full, EXPECTED.replace("\"quick\": true", "\"quick\": false"));

    let mut empty = fixture(None);
    empty.metrics.clear();
    assert!(empty.render_json().ends_with("  \"metrics\": {\n  }\n}\n"));
}

/// Every record under the repo's `results/history/` (when a checkout has
/// one) reads back and re-hashes to the filename it was stored under.
#[test]
fn stored_records_rehash_to_their_filenames() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/history");
    let Ok(entries) = std::fs::read_dir(&dir) else { return };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let rec = HistoryRecord::parse_record(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            Some(rec.filename().as_str()),
            path.file_name().and_then(|n| n.to_str()),
            "{} does not hash to its own name",
            path.display()
        );
        assert_eq!(rec.render_json(), text, "{}", path.display());
    }
}
