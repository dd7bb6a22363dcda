//! Reader fuzzing for [`LedgerSummary::from_text`], the reader of the JSONL
//! run ledgers that `rfnoc-cli tail` and `rfnoc-cli ledger-summary` take
//! from outside the process.
//!
//! A seeded generator builds three families of documents:
//!
//! * **expected** — ledgers laid out as the bench runner writes them (plan
//!   and point lifecycle records, engine records rendered by
//!   [`record_json`], every line stamped with `t_ms`), which must reduce
//!   without a schema problem to the counts they were built with;
//! * **stress** — legal but extreme documents: `u64::MAX` cycles, 10 k
//!   records, very long lines, CRLF line ends;
//! * **adversarial** — every truncation of a valid document, single-byte
//!   flips, non-UTF-8 bytes (read lossily, and through
//!   [`LedgerSummary::from_file`]), NUL bytes, duplicate and missing keys,
//!   nesting past the parser's depth limit.
//!
//! Every input must come back as `Ok` or the reader's error — never a
//! panic — and a summary must render (`render_json`, `render_tail`)
//! without one either.

use rfnoc::json::Json;
use rfnoc::ledger::{record_json, LedgerSummary};
use rfnoc::rfnoc_sim::{FaultEvent, LedgerRecord, TimelineEventKind};

/// Seeds the suite runs; a counterexample found later is added here.
const SEEDS: [u64; 3] = [1, 0x1ed6_e5ee, 0xdead_beef_cafe_f00d];

/// Deterministic xorshift64 stream (no external RNG crate).
struct Rng(u64);

impl Rng {
    /// The stream for `profile` under `seed`: FNV-1a of the profile name
    /// mixed into the seed, so the three families draw independently.
    fn derive(seed: u64, profile: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        for b in profile.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Rng(h | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// What an expected ledger was built with, for checking its summary.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Built {
    records: usize,
    heartbeats: usize,
    points: usize,
    shards: usize,
    events: usize,
}

/// Writes ledger lines the way the runner's sink does: `t_ms` first, then
/// the plan point of an engine record, then the record's own fields.
struct Writer {
    lines: Vec<String>,
    t_ms: f64,
}

impl Writer {
    fn emit(&mut self, point: Option<&str>, record: Json) {
        let Json::Obj(fields) = record else { unreachable!("ledger records are objects") };
        self.t_ms += 0.125;
        let mut stamped = vec![("t_ms".to_string(), Json::Num(self.t_ms))];
        stamped.extend(point.map(|p| ("point".to_string(), p.into())));
        stamped.extend(fields);
        self.lines.push(Json::Obj(stamped).line());
    }
}

/// A runner-shaped ledger: `points` plan points, each with `beats`
/// heartbeats of `stride` cycles starting after `first`, `shards` shard
/// records per heartbeat and a fault event between heartbeats.
fn runner_ledger(
    rng: &mut Rng,
    points: usize,
    beats: usize,
    shards: u32,
    first: u64,
    stride: u64,
) -> (String, Built) {
    let mut w = Writer { lines: Vec::new(), t_ms: 0.0 };
    let mut built = Built { points, shards: shards as usize, ..Built::default() };
    let lifecycle = |kind: &str, id: &str| Json::obj().field("kind", kind).field("point", id);
    w.emit(
        None,
        Json::obj()
            .field("kind", "plan_start")
            .field("points", points)
            .field("unique", points)
            .field("dedup_hits", 0u32)
            .field("jobs", 2u32)
            .field("sim_threads", shards.max(1)),
    );
    let ids: Vec<String> = (0..points).map(|p| format!("fig7/point{p}")).collect();
    for id in &ids {
        w.emit(None, lifecycle("point_queued", id));
    }
    for id in &ids {
        w.emit(None, lifecycle("point_start", id));
        let mut cycle = first;
        for b in 0..beats {
            let cycles = if b == 0 { first } else { stride };
            if b > 0 {
                cycle = cycle.saturating_add(stride);
            }
            let beat = LedgerRecord::Heartbeat {
                cycle,
                cycles,
                wall_ms: rng.below(10_000) as f64 / 7.0,
                kcycles_per_sec: rng.below(100_000) as f64 / 3.0,
                in_flight: rng.below(500) as u64,
                completed: (b * 37) as u64,
                active_routers: rng.below(4096) as u64,
            };
            w.emit(Some(id), record_json(&beat));
            built.heartbeats += 1;
            for shard in 0..shards {
                let rec = LedgerRecord::Shard {
                    cycle,
                    shard,
                    swept_routers: rng.below(1 << 20) as u64,
                    sweep_ms: rng.below(1_000) as f64 / 9.0,
                    barrier_ms: rng.below(1_000) as f64 / 11.0,
                    replay_ops: rng.below(1 << 16) as u64,
                };
                w.emit(Some(id), record_json(&rec));
            }
            let kind = match rng.below(4) {
                0 => TimelineEventKind::Fault(FaultEvent::ShortcutDown { src: rng.below(64) }),
                1 => TimelineEventKind::RetuneApplied { installed: rng.below(16) },
                2 => TimelineEventKind::RecoveryConverged { fault_cycle: cycle, after: 17 },
                _ => TimelineEventKind::TablesRewritten,
            };
            w.emit(Some(id), record_json(&LedgerRecord::Event { cycle, kind }));
            built.events += 1;
        }
        w.emit(
            None,
            lifecycle("point_finish", id)
                .field("wall_ms", rng.below(5_000) as f64 / 4.0)
                .field("avg_latency", 21.5)
                .field("saturated", false)
                .field("healthy", true),
        );
    }
    w.emit(
        None,
        Json::obj().field("kind", "plan_finish").field("points", points).field("wall_ms", 42.0),
    );
    built.records = w.lines.len();
    (w.lines.join("\n") + "\n", built)
}

/// One generated input: what it is, its text, and — for a legal document
/// — what it was built with.
struct Case {
    what: String,
    text: String,
    expect: Option<Built>,
}

struct Documents {
    expected: Vec<Case>,
    stress: Vec<Case>,
    adversarial: Vec<Case>,
}

fn legal(what: impl Into<String>, (text, built): (String, Built)) -> Case {
    Case { what: what.into(), text, expect: Some(built) }
}

fn hostile(what: impl Into<String>, text: String) -> Case {
    Case { what: what.into(), text, expect: None }
}

fn generate(seed: u64) -> Documents {
    let mut rng = Rng::derive(seed, "expected");
    let mut expected = Vec::new();
    for (points, beats, shards) in [(0, 0, 0), (1, 1, 0), (2, 5, 0), (3, 4, 2), (1, 12, 3)] {
        let first = 100 + rng.below(1_000) as u64;
        let stride = 1 + rng.below(500) as u64;
        let doc = runner_ledger(&mut rng, points, beats, shards, first, stride);
        expected.push(legal(format!("{points} points x {beats} beats, {shards} shards"), doc));
    }

    let mut rng = Rng::derive(seed, "stress");
    let mut stress = Vec::new();
    let top = runner_ledger(&mut rng, 1, 3, 2, u64::MAX - 2, 1);
    stress.push(legal("heartbeat cycles up to u64::MAX", top));
    let big = runner_ledger(&mut rng, 5, 500, 2, 400, 400);
    assert!(big.1.records >= 10_000, "{} records", big.1.records);
    stress.push(legal("10k records", big.clone()));
    stress.push(legal("10k records, CRLF", (big.0.replace('\n', "\r\n"), big.1)));
    let (doc, mut built) = runner_ledger(&mut rng, 1, 2, 0, 500, 500);
    let detail = "x".repeat(1 << 20);
    let long = Json::obj().field("t_ms", 9.0).field("kind", "event").field("event", "fault");
    let long = long.field("detail", detail).line();
    built.records += 1;
    built.events += 1;
    stress.push(legal("1 MiB event line", (format!("{doc}{long}\n"), built)));
    let pad = " \t".repeat(1 << 15);
    let (doc, built) = runner_ledger(&mut rng, 1, 2, 1, 500, 500);
    let padded = doc.lines().map(|l| format!("{pad}{l}{pad}")).collect::<Vec<_>>().join("\n");
    stress.push(legal("every line padded by 64 KiB", (padded, built)));

    let mut rng = Rng::derive(seed, "adversarial");
    let mut adversarial = Vec::new();
    let (base, _) = runner_ledger(&mut rng, 1, 3, 2, 500, 250);
    for cut in 0..base.len() {
        adversarial.push(hostile(format!("truncated at byte {cut}"), base[..cut].to_string()));
    }
    let bytes = base.as_bytes();
    for at in 0..bytes.len() {
        let mut b = bytes.to_vec();
        b[at] ^= 1 + rng.below(255) as u8;
        let text = String::from_utf8_lossy(&b).into_owned();
        adversarial.push(hostile(format!("byte {at} flipped to {:#04x}", b[at]), text));
    }
    for bad in [&[0xff][..], &[0xc3], &[0xed, 0xa0, 0x80], &[0], &[0, 0, 0, 0]] {
        for _ in 0..8 {
            let at = rng.below(bytes.len() + 1);
            let mut b = bytes.to_vec();
            b.splice(at..at, bad.iter().copied());
            let text = String::from_utf8_lossy(&b).into_owned();
            adversarial.push(hostile(format!("{bad:02x?} inserted at byte {at}"), text));
        }
    }
    let lines = [
        // Duplicate keys.
        r#"{"t_ms": 1, "t_ms": -5, "kind": "heartbeat", "kind": "shard", "cycle": 9, "cycles": 9}"#,
        r#"{"kind": "shard", "shard": 0, "shard": 1e308, "sweep_ms": 1, "sweep_ms": "x"}"#,
        r#"{"kind": "plan_start", "points": 4, "points": -4, "jobs": 0, "jobs": 0}"#,
        // Missing keys.
        r#"{"kind": "heartbeat"}"#,
        r#"{"kind": "heartbeat", "cycle": 10}"#,
        r#"{"kind": "shard"}"#,
        r#"{"kind": "event"}"#,
        r#"{"kind": "point_finish"}"#,
        r#"{"t_ms": 3}"#,
        r#"{}"#,
        // Keys of the wrong type or out of range.
        r#"{"kind": 7, "cycle": "9"}"#,
        r#"{"kind": "heartbeat", "cycle": -1e400, "cycles": 1e400, "kcycles_per_sec": 1e400}"#,
        r#"{"kind": "shard", "shard": -1, "sweep_ms": -1e400, "barrier_ms": 1e400}"#,
        r#"{"kind": "plan_start", "unique": 1e400, "jobs": -1e400}"#,
        r#"{"kind": "point_finish", "wall_ms": -1e400}"#,
        // Not an object, or not JSON.
        r#"[1, 2, 3]"#,
        r#""kind""#,
        "null",
        "{\"kind\": \"heartbeat\u{0}\"}",
        r#"{"kind": "\ud800"}"#,
        r#"{"kind": "\u+123"}"#,
        r#"{"kind": "\é"}"#,
        r#"{"kind": "heartbeat",}"#,
        r#"{"kind" "heartbeat"}"#,
        r#"{"a": 01.2.3e+-}"#,
    ];
    for line in lines {
        // Alone, where a bad line is the tolerated last one, and before a
        // valid document, where it is an error.
        adversarial.push(hostile(format!("line {line:?}"), line.to_string()));
        adversarial.push(hostile(format!("line {line:?} first"), format!("{line}\n{base}")));
    }
    let deep = "[".repeat(100_000);
    adversarial.push(hostile("100k nested arrays", format!("{deep}\n{base}")));
    adversarial.push(hostile("100k nested objects", "{\"a\": ".repeat(100_000) + "\n"));

    Documents { expected, stress, adversarial }
}

/// Reduces `case` and checks it against the reader's contract, returning a
/// description of any violation (a panic included).
fn check(case: &Case) -> Option<String> {
    let read = std::panic::catch_unwind(|| {
        let summary = LedgerSummary::from_text(&case.text);
        if let Ok(s) = &summary {
            let _ = (s.render_json(), s.render_tail(), s.eta_ms(), s.shard_imbalance());
        }
        summary
    });
    let problem = match (read, &case.expect) {
        (Err(_), _) => "panicked".to_string(),
        (Ok(Ok(s)), Some(built)) => {
            let got = Built {
                records: s.records,
                heartbeats: s.heartbeats,
                points: s.points_finished,
                shards: s.shards.len(),
                events: s.events.values().sum(),
            };
            if got == *built && s.problems.is_empty() && s.unknown_kinds == 0 {
                return None;
            }
            format!("reduced to {got:?} with problems {:?}, built {built:?}", s.problems)
        }
        (Ok(Err(e)), Some(_)) => format!("a legal document was refused: {e}"),
        (Ok(_), None) => return None,
    };
    Some(format!("{}: {problem}", case.what))
}

#[test]
fn ledger_reader_survives_every_generated_document() {
    let mut failures = Vec::new();
    let mut counts = [0usize; 3];
    for seed in SEEDS {
        let docs = generate(seed);
        for (i, family) in [&docs.expected, &docs.stress, &docs.adversarial].into_iter().enumerate()
        {
            counts[i] += family.len();
            failures
                .extend(family.iter().filter_map(check).map(|f| format!("seed {seed:#x}, {f}")));
        }
    }
    assert!(counts.iter().all(|&c| c > 0), "an empty family: {counts:?}");
    assert!(
        failures.is_empty(),
        "{} of {} documents broke the ledger reader's contract:\n  {}",
        failures.len(),
        counts.iter().sum::<usize>(),
        failures.join("\n  ")
    );
}

/// A truncated ledger is what `tail --follow` reads while the writer is
/// mid-line: every truncation of a writer's document reduces without an
/// error, to no more records than the whole document.
#[test]
fn every_truncation_of_a_ledger_reduces() {
    let mut rng = Rng::derive(SEEDS[0], "truncation");
    let (doc, built) = runner_ledger(&mut rng, 2, 3, 2, 500, 250);
    for cut in 0..=doc.len() {
        let s = LedgerSummary::from_text(&doc[..cut])
            .unwrap_or_else(|e| panic!("truncation at byte {cut} refused: {e}"));
        assert!(s.records <= built.records, "truncation at byte {cut}: {} records", s.records);
    }
}

/// A malformed line before the last is corruption, not a live tail.
#[test]
fn a_malformed_line_before_the_last_is_an_error() {
    let mut rng = Rng::derive(SEEDS[0], "corruption");
    let (doc, _) = runner_ledger(&mut rng, 1, 2, 0, 500, 250);
    let mut lines: Vec<&str> = doc.lines().collect();
    lines.insert(1, "{\"kind\": ");
    let err = LedgerSummary::from_text(&lines.join("\n")).expect_err("corrupt second line");
    assert!(err.starts_with("line 2: "), "{err}");
}

/// Bytes that are not UTF-8 are refused by the file front end with an
/// error, not a panic.
#[test]
fn a_non_utf8_ledger_file_is_an_error() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger_not_utf8.jsonl");
    std::fs::write(&path, b"{\"kind\": \"point_start\"}\n\xff\xfe\n").expect("write fixture");
    let result = LedgerSummary::from_file(path.to_str().expect("UTF-8 temp path"));
    let _ = std::fs::remove_file(&path);
    assert!(result.is_err(), "{result:?}");
}

/// Regression seed from the stress family: heartbeats one cycle apart just
/// below `u64::MAX` round to one value on the wire (JSON numbers are f64),
/// and the reader used to flag every one after the first as not after its
/// predecessor.
#[test]
fn heartbeats_near_u64_max_reduce_without_problems() {
    let mut rng = Rng::derive(SEEDS[0], "stress");
    let (doc, built) = runner_ledger(&mut rng, 1, 3, 2, u64::MAX - 2, 1);
    let s = LedgerSummary::from_text(&doc).expect("a writer's ledger");
    assert!(s.problems.is_empty(), "{:?}", s.problems);
    assert_eq!(s.heartbeats, built.heartbeats);
}
