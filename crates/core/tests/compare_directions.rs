//! Direction-aware keyword handling in `rfnoc::compare` — the rules the
//! regression gate ([`rfnoc::gate`]) inherits. These pin down exactly
//! which metric leaves are throughput-like, which are cost-like, which
//! are informational, and how id-keyed arrays and truncated inputs
//! behave, since a silent direction flip would invert a gate verdict.

use rfnoc::compare::{compare, direction_of, flatten, parse, Direction, Json};

#[test]
fn higher_is_better_keywords() {
    for path in [
        "cycles_per_sec",
        "configs[mesh].flit_grants_per_sec",
        "throughput",
        "completion_rate",
        "recovery.coverage",
    ] {
        assert_eq!(direction_of(path), Direction::HigherIsBetter, "{path}");
    }
}

#[test]
fn lower_is_better_keywords() {
    for path in [
        "avg_latency_cycles",
        "points[p].p99_latency_cycles",
        "stall_cycles",
        "barrier_wait_frac",
        "wall_ms",
        "dropped",
        "shortcut_faults",
        "retransmit_count",
        "shard_imbalance",
        "configs[mesh64x64_saturated_t4].shard_imbalance",
    ] {
        assert_eq!(direction_of(path), Direction::LowerIsBetter, "{path}");
    }
}

#[test]
fn unmatched_leaves_are_informational() {
    for path in ["injected_messages", "jobs", "avg_hops", "end_cycle", "git"] {
        assert_eq!(direction_of(path), Direction::Informational, "{path}");
    }
}

#[test]
fn direction_uses_only_the_last_path_segment() {
    // A directional keyword in a parent segment must not leak into the
    // leaf's classification.
    assert_eq!(direction_of("latency.count"), Direction::Informational);
    assert_eq!(direction_of("throughput.wall_ms"), Direction::LowerIsBetter);
}

#[test]
fn id_keyed_arrays_flatten_to_stable_paths() {
    let doc = parse(
        r#"{"configs": [
            {"id": "mesh", "cycles_per_sec": 100.0, "wall_ms": 2.0},
            {"id": "rf", "cycles_per_sec": 250.0}
        ]}"#,
    )
    .unwrap();
    let flat = flatten(&doc);
    assert_eq!(flat.get("configs[mesh].cycles_per_sec"), Some(&100.0));
    assert_eq!(flat.get("configs[mesh].wall_ms"), Some(&2.0));
    assert_eq!(flat.get("configs[rf].cycles_per_sec"), Some(&250.0));
}

#[test]
fn compare_is_direction_aware_per_keyword() {
    let base = parse(
        r#"{"cycles_per_sec": 100.0, "avg_latency_cycles": 10.0, "injected_messages": 7}"#,
    )
    .unwrap();
    let new = parse(
        r#"{"cycles_per_sec": 50.0, "avg_latency_cycles": 20.0, "injected_messages": 99}"#,
    )
    .unwrap();
    let cmp = compare(&base, &new);
    let worsening = |path: &str| {
        cmp.deltas
            .iter()
            .find(|d| d.path == path)
            .unwrap_or_else(|| panic!("missing {path}"))
            .worsening_pct
    };
    // Throughput halved: 50% worse. Latency doubled: 100% worse.
    assert_eq!(worsening("cycles_per_sec"), Some(50.0));
    assert_eq!(worsening("avg_latency_cycles"), Some(100.0));
    // Informational metrics never produce a worsening figure.
    assert_eq!(worsening("injected_messages"), None);
}

#[test]
fn improvements_report_negative_worsening() {
    let base = parse(r#"{"cycles_per_sec": 100.0}"#).unwrap();
    let new = parse(r#"{"cycles_per_sec": 120.0}"#).unwrap();
    let cmp = compare(&base, &new);
    let d = &cmp.deltas[0];
    assert!(d.worsening_pct.unwrap() < 0.0, "{d:?}");
    assert!(!d.breaches(0.0));
}

#[test]
fn ledger_summary_tolerates_a_truncated_final_line() {
    // A live ledger file can end mid-record (the writer flushes whole
    // lines, but a reader may race the last one); only a *final* partial
    // line is forgiven.
    let good = concat!(
        r#"{"t_ms": 1.0, "kind": "plan_start", "points": 2}"#,
        "\n",
        r#"{"t_ms": 2.0, "kind": "point_start", "point": "a""#, // truncated
    );
    let summary = rfnoc::ledger::LedgerSummary::from_text(good).unwrap();
    assert_eq!(summary.records, 1);

    let bad = concat!(
        r#"{"t_ms": 1.0, "kind": "plan_start""#, // truncated mid-stream
        "\n",
        r#"{"t_ms": 2.0, "kind": "plan_finish", "wall_ms": 3.0}"#,
    );
    assert!(rfnoc::ledger::LedgerSummary::from_text(bad).is_err());
}

/// Bytes from outside reach the parser through `compare`, `ingest`/`gate`
/// (history records) and `tail` (ledger lines). Every hostile document
/// comes back as a typed error or as the correct value — never a panic,
/// never a stack overflow.
#[test]
fn hostile_documents_are_errors_or_values_never_panics() {
    let unclosed = "[".repeat(200_000);
    let deep = "[".repeat(1_000) + &"]".repeat(1_000);
    let text = |s: &str| Some(Json::Str(s.into()));
    let table: [(&str, Option<Json>); 11] = [
        (&unclosed, None),
        (&deep, None),
        (r#""\ud83d""#, None), // a lone surrogate is not a scalar value
        (r#""\ud83d\ude00""#, None),
        (r#""\u12""#, None),
        (r#""\u12"#, None),
        ("\"a\u{0}b\"", text("a\u{0}b")), // a raw NUL is carried through
        (r#""\u0000""#, text("\u{0}")),
        ("\"\u{d7}\u{1f600}\"", text("\u{d7}\u{1f600}")),
        ("\u{feff}{}", None),
        ("{\"a\" 1}", None),
    ];
    for (doc, want) in table {
        let label: String = doc.chars().take(24).collect();
        let got = parse(doc);
        assert_eq!(got.as_ref().ok(), want.as_ref(), "{label}");
        if let Ok(v) = &got {
            flatten(v);
        }
        assert!(rfnoc::history::HistoryRecord::parse_record(doc).is_err(), "{label}");
        // As a ledger: the hostile line first (an error unless it parses),
        // and last (forgiven as a truncated tail).
        let first = rfnoc::ledger::LedgerSummary::from_text(&format!("{doc}\n{{}}\n"));
        assert_eq!(first.is_ok(), got.is_ok(), "{label}");
        assert!(rfnoc::ledger::LedgerSummary::from_text(&format!("{{}}\n{doc}")).is_ok());
    }
}
