//! Reader fuzzing for [`Trace::read_from`], the one reader of trace files
//! that arrive from outside the process.
//!
//! A seeded generator builds three families of documents:
//!
//! * **expected** — traces the writer ([`Trace::write_to`]) produced, which
//!   must read back equal to the trace written;
//! * **stress** — legal but extreme documents: `u64::MAX` cycles, 10 k
//!   records, very long lines, CRLF line ends;
//! * **adversarial** — every truncation of a valid document, single-byte
//!   flips, non-UTF-8 bytes, NUL bytes, and records with a field missing
//!   or repeated.
//!
//! Every input must come back as `Ok` or a [`ReadTraceError`] — never a
//! panic — and a parse error must name a line of the document.

use rfnoc_sim::{DestSet, Destination, MessageClass, MessageSpec};
use rfnoc_traffic::{ReadTraceError, Trace, TRACE_HEADER};

/// Seeds the suite runs; a counterexample found later is added here.
const SEEDS: [u64; 3] = [1, 0x7ace_5eed, 0xdead_beef_cafe_f00d];

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

/// A random legal trace of `records` messages over `nodes` routers, cycles
/// non-decreasing from `start` (saturating at `u64::MAX`).
fn random_trace(rng: &mut Rng, records: usize, nodes: usize, start: u64) -> Trace {
    let mut cycle = start;
    let mut out = Vec::with_capacity(records);
    for _ in 0..records {
        cycle = cycle.saturating_add(rng.below(4) as u64);
        let src = rng.below(nodes);
        let msg = if rng.below(5) == 0 {
            let mut dests = DestSet::empty();
            for _ in 0..1 + rng.below(8) {
                dests.insert(rng.below(nodes.min(128)));
            }
            MessageSpec::multicast(src, dests)
        } else {
            let dst = (src + 1 + rng.below(nodes - 1)) % nodes;
            let class =
                [MessageClass::Request, MessageClass::Data, MessageClass::Memory][rng.below(3)];
            MessageSpec::unicast(src, dst, class)
        };
        out.push((cycle, msg));
    }
    Trace::from_records(out)
}

fn written(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

/// One generated input: what it is, its bytes, and — for a legal document
/// — the trace it must read back as.
struct Case {
    what: String,
    bytes: Vec<u8>,
    expect: Option<Trace>,
}

struct Documents {
    expected: Vec<Case>,
    stress: Vec<Case>,
    adversarial: Vec<Case>,
}

fn legal(what: impl Into<String>, bytes: Vec<u8>, trace: Trace) -> Case {
    Case { what: what.into(), bytes, expect: Some(trace) }
}

fn hostile(what: impl Into<String>, bytes: Vec<u8>) -> Case {
    Case { what: what.into(), bytes, expect: None }
}

fn generate(seed: u64) -> Documents {
    let mut rng = Rng::derive(seed, "expected");
    let mut expected = Vec::new();
    for (i, &records) in [0usize, 1, 7, 64, 300].iter().enumerate() {
        let nodes = [2, 16, 64, 100, 256][i];
        let start = rng.below(1_000) as u64;
        let trace = random_trace(&mut rng, records, nodes, start);
        expected.push(legal(format!("expected {records} records"), written(&trace), trace));
    }

    let mut rng = Rng::derive(seed, "stress");
    let mut stress = Vec::new();
    let tail = random_trace(&mut rng, 40, 64, u64::MAX - 30);
    assert_eq!(tail.records().last().map(|r| r.0), Some(u64::MAX));
    stress.push(legal("cycles up to u64::MAX", written(&tail), tail));
    let big = random_trace(&mut rng, 10_000, 100, 0);
    stress.push(legal("10k records", written(&big), big.clone()));
    let crlf =
        String::from_utf8(written(&big)).expect("the writer emits UTF-8").replace('\n', "\r\n");
    stress.push(legal("10k records, CRLF", crlf.into_bytes(), big));
    let mut all = DestSet::empty();
    for d in 0..128 {
        all.insert(d);
    }
    let wide = Trace::from_records(vec![(5, MessageSpec::multicast(3, all))]);
    stress.push(legal("multicast to all 128 routers", written(&wide), wide));
    let one = Trace::from_records(vec![(9, MessageSpec::unicast(1, 2, MessageClass::Data))]);
    let mut long_comment = format!("{TRACE_HEADER}\n# ").into_bytes();
    long_comment.extend(std::iter::repeat_n(b'x', 1 << 20));
    long_comment.extend_from_slice(b"\n9 U 1 2 data\n");
    stress.push(legal("1 MiB comment line", long_comment, one.clone()));
    let pad = " \t".repeat(1 << 15);
    let padded = format!("{TRACE_HEADER}\n{pad}9{pad}U{pad}1{pad}2{pad}data{pad}\n");
    stress.push(legal("record padded to 256 KiB", padded.into_bytes(), one));

    let mut rng = Rng::derive(seed, "adversarial");
    let mut adversarial = Vec::new();
    let base = written(&random_trace(&mut rng, 24, 100, 0));
    for cut in 0..base.len() {
        adversarial.push(hostile(format!("truncated at byte {cut}"), base[..cut].to_vec()));
    }
    for at in 0..base.len() {
        let mut b = base.clone();
        b[at] ^= 1 + rng.below(255) as u8;
        adversarial.push(hostile(format!("byte {at} flipped to {:#04x}", b[at]), b));
    }
    for bad in [&[0xff][..], &[0xc3], &[0xe2, 0x82], &[0xed, 0xa0, 0x80], &[0]] {
        for _ in 0..8 {
            let at = rng.below(base.len() + 1);
            let mut b = base.clone();
            b.splice(at..at, bad.iter().copied());
            adversarial.push(hostile(format!("{bad:02x?} inserted at byte {at}"), b));
        }
    }
    let header = format!("{TRACE_HEADER}\n");
    let record_docs = [
        // A field missing from each record kind.
        "5 U 1 req\n",
        "5 U 1\n",
        "5 M 1 mc\n",
        "5 M mc 1,2\n",
        "5\n",
        "U 1 2 req\n",
        // A field repeated.
        "5 5 U 1 2 req\n",
        "5 U U 1 2 req\n",
        "5 U 1 2 req req\n",
        "5 M 1 mc mc 2,3\n",
        "5 M 1 mc 2,,3\n",
        "5 M 1 mc 2,3,\n",
        "5 M 1 mc ,\n",
        // Values out of range or of the wrong shape.
        "18446744073709551616 U 1 2 req\n",
        "-1 U 1 2 req\n",
        "5 U 1 1 req\n",
        "5 U 99999999999999999999999 2 req\n",
        "5 M 1 mc 128\n",
        "5 M 1 mc 18446744073709551615\n",
        "5 X 1 2 req\n",
        "5 U 1 2 bogus\n",
        "5 U 1 2 req\0\n",
    ];
    for doc in record_docs {
        adversarial.push(hostile(format!("record {doc:?}"), format!("{header}{doc}").into_bytes()));
    }
    for doc in ["", "\n", "# rfnoc-trace v2\n", "5 U 1 2 req\n", "\u{feff}# rfnoc-trace v1\n"] {
        adversarial.push(hostile(format!("header {doc:?}"), doc.as_bytes().to_vec()));
    }
    adversarial
        .push(hostile("header twice", format!("{header}{header}5 U 1 2 req\n").into_bytes()));

    Documents { expected, stress, adversarial }
}

/// Reads `case` and checks it against the reader's contract, returning a
/// description of any violation (a panic included).
fn check(case: &Case) -> Option<String> {
    let lines = case.bytes.split(|&b| b == b'\n').count();
    let read = std::panic::catch_unwind(|| Trace::read_from(case.bytes.as_slice()));
    let problem = match (read, &case.expect) {
        (Err(_), _) => "panicked".to_string(),
        (Ok(Ok(trace)), Some(want)) if &trace == want => return None,
        (Ok(Ok(_)), Some(_)) => "read back a different trace".to_string(),
        (Ok(Err(e)), Some(_)) => format!("a legal document was refused: {e}"),
        (Ok(Ok(trace)), None) => {
            let in_range = trace.records().iter().all(|(_, m)| match m.dest {
                Destination::Unicast(d) => d != m.src,
                Destination::Multicast(set) => !set.is_empty(),
            });
            if in_range {
                return None;
            }
            "accepted a record the format forbids".to_string()
        }
        (Ok(Err(ReadTraceError::Io(_))), None) => return None,
        (Ok(Err(ReadTraceError::Parse { line, .. })), None) => {
            if (1..=lines).contains(&line) {
                return None;
            }
            format!("parse error names line {line} of a {lines}-line document")
        }
    };
    Some(format!("{}: {problem}", case.what))
}

#[test]
fn trace_reader_survives_every_generated_document() {
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
        "{} of {} documents broke the trace reader's contract:\n  {}",
        failures.len(),
        counts.iter().sum::<usize>(),
        failures.join("\n  ")
    );
}

/// Every truncation that ends on a line boundary of a writer's document is
/// itself a legal trace: the records before the cut.
#[test]
fn truncation_at_a_line_end_reads_the_records_before_it() {
    let mut rng = Rng::derive(SEEDS[0], "line cuts");
    let trace = random_trace(&mut rng, 50, 64, 0);
    let bytes = written(&trace);
    let ends = bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1);
    for (kept, end) in ends.enumerate() {
        let read = Trace::read_from(&bytes[..end]).expect("a line-end cut is a legal trace");
        assert_eq!(read.records(), &trace.records()[..kept], "cut after line {}", kept + 1);
    }
}
