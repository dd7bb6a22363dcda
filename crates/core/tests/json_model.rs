//! The JSON model's format, pinned rather than sampled: both writer
//! layouts byte for byte, the escaper, the number policy, the parser's
//! acceptance set, a writer→parser round trip over arbitrary values, the
//! parser's linear running time, and the hostile inputs it must survive.

use proptest::prelude::*;
use rfnoc::json::{parse, rounded, Json, MAX_DEPTH};
use std::time::{Duration, Instant};

#[test]
fn line_layout_and_number_policy() {
    let v = Json::obj()
        .field("t_ms", rounded(1.23456, 3))
        .field("kind", "plan_start")
        .field("points", 3usize)
        .field("ok", true)
        .field("none", None::<f64>)
        .field_opt("left_out", None::<f64>)
        .field("nan", f64::NAN)
        .field("list", Json::arr([1u32, 2]));
    assert_eq!(
        v.line(),
        "{\"t_ms\": 1.235, \"kind\": \"plan_start\", \"points\": 3, \"ok\": true, \
         \"none\": null, \"nan\": null, \"list\": [1, 2]}"
    );
    assert_eq!(Json::from(1000.0).line(), "1000");
    assert_eq!(Json::from(-0.0).line(), "-0");
    assert_eq!(rounded(2.0, 4).line(), "2");
    assert_eq!(rounded(0.123_45, 4).line(), "0.1235");
    assert_eq!(rounded(f64::INFINITY, 4).line(), "null");
    assert_eq!(rounded(1e305, 4), Json::Num(1e305));
    assert_eq!(rounded(0.439_25, 4).line(), format!("{:.4}", 0.439_25), "ties go as {{:.4}}");
}

#[test]
fn one_escaper_covers_every_control() {
    assert_eq!(
        Json::from("a\"b\\c\n\t\r\u{1}\u{1f}é😀").line(),
        "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001fé😀\""
    );
}

#[test]
fn pretty_breaks_two_levels_and_keeps_scalar_arrays_inline() {
    let v = Json::obj()
        .field("name", "x")
        .field("per_source", Json::arr([1u32, 2, 3]))
        .field("spans", Json::obj().field("recorded", 2u32))
        .field(
            "points",
            Json::arr([
                Json::obj().field("id", "a").field("hist", Json::arr([1u32])),
                Json::obj().field("id", "b").field("deep", Json::obj().field("k", 1u32)),
            ]),
        )
        .field("none", Json::Arr(Vec::new()));
    assert_eq!(
        v.pretty(),
        "{\n  \"name\": \"x\",\n  \"per_source\": [1, 2, 3],\n  \"spans\": {\n    \
         \"recorded\": 2\n  },\n  \"points\": [\n    {\"id\": \"a\", \"hist\": [1]},\n    \
         {\"id\": \"b\", \"deep\": {\"k\": 1}}\n  ],\n  \"none\": []\n}\n"
    );
    assert_eq!(Json::obj().pretty(), "{\n}\n");
}

#[test]
fn parser_acceptance_set() {
    assert_eq!(parse(r#""aA\n\/\b\f""#).unwrap(), Json::Str("aA\n/\u{8}\u{c}".into()));
    assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
    assert_eq!(parse(" [1, {\"a\": null}] ").unwrap().line(), "[1, {\"a\": null}]");
    for bad in ["{\"a\": 1,}", "[1, 2] garbage", "[1,]", "nul", "{a: 1}", "", "\"abc", "1e"] {
        assert!(parse(bad).is_err(), "{bad:?}");
    }
}

/// A deterministic stream for building arbitrary values.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn string(&mut self) -> String {
        const ALPHABET: [char; 12] =
            ['"', '\\', '/', 'a', ' ', 'é', '\u{2581}', '😀', '\u{10ffff}', '\u{7f}', ':', ','];
        (0..self.next() % 8)
            .map(|_| match self.next() % 3 {
                // Every control character, NUL included.
                0 => char::from((self.next() % 0x20) as u8),
                _ => ALPHABET[(self.next() % 12) as usize],
            })
            .collect()
    }

    fn number(&mut self) -> f64 {
        const EDGES: [f64; 8] =
            [0.0, -0.0, 1e300, -1e300, 5e-324, 1000.0, 0.1 + 0.2, 264_023.932_1];
        match self.next() % 3 {
            0 => EDGES[(self.next() % 8) as usize],
            1 => (self.next() % 1_000_000) as f64,
            // Any finite bit pattern.
            _ => Some(f64::from_bits(self.next())).filter(|v| v.is_finite()).unwrap_or(1.5),
        }
    }

    fn value(&mut self, depth: usize) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.next() % kinds {
            0 => Json::Null,
            1 => Json::Bool(self.next() & 1 == 1),
            2 => Json::Num(self.number()),
            3 => Json::Str(self.string()),
            4 => Json::Arr((0..self.next() % 4).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.next() % 4).map(|_| (self.string(), self.value(depth - 1))).collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever value a producer builds, both layouts read back as it.
    #[test]
    fn both_layouts_round_trip(seed in any::<u64>()) {
        let v = Gen(seed | 1).value(6);
        prop_assert_eq!(&parse(&v.line()).unwrap(), &v);
        prop_assert_eq!(&parse(&v.pretty()).unwrap(), &v);
        prop_assert!(!v.line().contains('\n'), "a record is one line");
    }
}

#[test]
fn non_finite_numbers_read_back_as_null() {
    let v = Json::arr([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0]);
    let back = Json::Arr(vec![Json::Null, Json::Null, Json::Null, Json::Num(1.0)]);
    assert_eq!(parse(&v.line()).unwrap(), back);
    assert_eq!(parse(&v.pretty()).unwrap(), back);
}

/// An artifact-shaped document of `points` id-keyed points, ~230 bytes
/// each (ids carry multi-byte characters: the old per-character
/// re-validation was quadratic in exactly these strings).
fn big_artifact(points: usize) -> Json {
    let points = (0..points).map(|i| {
        Json::obj()
            .field("id", format!("fig7/Adaptive-50 @16B/1Hotspot \u{d7} run {i}"))
            .field("design", "Adaptive-50")
            .field("workload", "1Hotspot")
            .field("avg_latency_cycles", rounded(20.0 + i as f64 / 7.0, 4))
            .field("p99_latency_cycles", 77u32)
            .field("completed_messages", 11_560u32 + i as u32)
            .field("saturated", false)
            .field("health", None::<&str>)
            .field("latency_hist", Json::arr([1u32, 2, 3, 4, 5, 6, 7, 8]))
    });
    Json::obj().field("name", "big").field("points", Json::arr(points))
}

/// 2.3 MB reads back equal to the value it was rendered from, inside a
/// bound that only a linear-time parser meets in a debug build: the old
/// reader re-validated the rest of the document per string character and
/// needed 116 s for 3.5 MB in a *release* build.
#[test]
fn multi_megabyte_document_parses_in_linear_time() {
    let doc = big_artifact(10_000);
    let text = doc.pretty();
    assert!(text.len() >= 2_000_000, "{} bytes", text.len());
    let start = Instant::now();
    let back = parse(&text).unwrap();
    let took = start.elapsed();
    assert_eq!(back, doc);
    assert!(took < Duration::from_secs(10), "{} bytes took {took:?}", text.len());
}

/// Nesting is bounded: past [`MAX_DEPTH`] the parser answers with a typed
/// error instead of recursing until the stack runs out.
#[test]
fn deep_nesting_is_a_typed_error() {
    let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(parse(&nested(100)).is_ok());
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    for hostile in [nested(MAX_DEPTH + 1), nested(1_000), "[".repeat(200_000)] {
        let err = parse(&hostile).unwrap_err();
        assert_eq!((err.message.as_str(), err.offset), ("nesting too deep", MAX_DEPTH));
    }
    let objects = "{\"a\": ".repeat(1_000) + "1" + &"}".repeat(1_000);
    assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
    // Width is not depth: siblings do not accumulate.
    assert!(parse(&format!("[{}[]]", "[], ".repeat(10_000))).is_ok());
}
