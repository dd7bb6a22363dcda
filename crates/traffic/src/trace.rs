//! Network-trace recording and replay (paper §4.2).
//!
//! The paper "collected network message injection traces from real
//! applications executed upon a 64 core SPARC processor using Simics, and
//! then executed these traces on our Garnet model. This allows us to
//! evaluate a number of interconnect design choices for a real application
//! without the recurring overhead of full-system simulation."
//!
//! This module provides the same workflow: any [`Workload`] can be
//! recorded to a trace file once and replayed many times across design
//! points. The format is a line-oriented text format:
//!
//! ```text
//! # rfnoc-trace v1
//! <cycle> U <src> <dst> <class>
//! <cycle> M <src> <class> <dst>[,<dst>...]
//! ```
//!
//! where `<class>` is `req`, `data`, `mem`, or `mc`.

use rfnoc_sim::{DestSet, Destination, MessageClass, MessageSpec, Workload};
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// Magic header line of trace files.
pub const TRACE_HEADER: &str = "# rfnoc-trace v1";

/// A parsed trace: `(cycle, message)` records in non-decreasing cycle
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    records: Vec<(u64, MessageSpec)>,
}

/// Errors while reading a trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem, with the offending line number (1-based).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            ReadTraceError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ReadTraceError {}

impl From<std::io::Error> for ReadTraceError {
    fn from(e: std::io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

fn class_tag(class: MessageClass) -> &'static str {
    match class {
        MessageClass::Request => "req",
        MessageClass::Data => "data",
        MessageClass::Memory => "mem",
        MessageClass::Multicast => "mc",
    }
}

fn parse_class(tag: &str) -> Option<MessageClass> {
    match tag {
        "req" => Some(MessageClass::Request),
        "data" => Some(MessageClass::Data),
        "mem" => Some(MessageClass::Memory),
        "mc" => Some(MessageClass::Multicast),
        _ => None,
    }
}

impl Trace {
    /// Records `cycles` cycles of `workload` into a trace.
    pub fn record(workload: &mut dyn Workload, cycles: u64) -> Self {
        let mut records = Vec::new();
        let mut buf = Vec::new();
        for cycle in 0..cycles {
            buf.clear();
            workload.messages_at(cycle, &mut buf);
            records.extend(buf.iter().map(|m| (cycle, *m)));
        }
        Self { records }
    }

    /// Builds a trace from raw records (sorted by cycle internally).
    pub fn from_records(mut records: Vec<(u64, MessageSpec)>) -> Self {
        records.sort_by_key(|(c, _)| *c);
        Self { records }
    }

    /// Number of messages in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded `(cycle, message)` records.
    pub fn records(&self) -> &[(u64, MessageSpec)] {
        &self.records
    }

    /// Serialises the trace into `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "{TRACE_HEADER}")?;
        let mut line = String::new();
        for (cycle, msg) in &self.records {
            line.clear();
            match msg.dest {
                Destination::Unicast(dst) => {
                    let _ = write!(
                        line,
                        "{cycle} U {} {} {}",
                        msg.src,
                        dst,
                        class_tag(msg.class)
                    );
                }
                Destination::Multicast(set) => {
                    let _ = write!(line, "{cycle} M {} {} ", msg.src, class_tag(msg.class));
                    let dests: Vec<String> =
                        set.iter().map(|d| d.to_string()).collect();
                    line.push_str(&dests.join(","));
                }
            }
            writeln!(writer, "{line}")?;
        }
        Ok(())
    }

    /// Parses a trace from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, a missing header, or any
    /// malformed record.
    pub fn read_from<R: BufRead>(reader: R) -> Result<Self, ReadTraceError> {
        let mut lines = reader.lines().enumerate();
        let header = lines
            .next()
            .ok_or_else(|| ReadTraceError::Parse {
                line: 1,
                reason: "empty file".into(),
            })?
            .1?;
        if header.trim() != TRACE_HEADER {
            return Err(ReadTraceError::Parse {
                line: 1,
                reason: format!("expected header {TRACE_HEADER:?}, got {header:?}"),
            });
        }
        let mut records = Vec::new();
        for (idx, line) in lines {
            let line = line?;
            let line_no = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let parse = |reason: &str| ReadTraceError::Parse {
                line: line_no,
                reason: reason.to_string(),
            };
            let mut parts = trimmed.split_whitespace();
            let cycle: u64 = parts
                .next()
                .ok_or_else(|| parse("missing cycle"))?
                .parse()
                .map_err(|_| parse("bad cycle"))?;
            let kind = parts.next().ok_or_else(|| parse("missing kind"))?;
            match kind {
                "U" => {
                    let src: usize = parts
                        .next()
                        .ok_or_else(|| parse("missing src"))?
                        .parse()
                        .map_err(|_| parse("bad src"))?;
                    let dst: usize = parts
                        .next()
                        .ok_or_else(|| parse("missing dst"))?
                        .parse()
                        .map_err(|_| parse("bad dst"))?;
                    let class = parse_class(parts.next().ok_or_else(|| parse("missing class"))?)
                        .ok_or_else(|| parse("bad class"))?;
                    if src == dst {
                        return Err(parse("unicast to its own source"));
                    }
                    records.push((cycle, MessageSpec::unicast(src, dst, class)));
                }
                "M" => {
                    let src: usize = parts
                        .next()
                        .ok_or_else(|| parse("missing src"))?
                        .parse()
                        .map_err(|_| parse("bad src"))?;
                    let _class =
                        parse_class(parts.next().ok_or_else(|| parse("missing class"))?)
                            .ok_or_else(|| parse("bad class"))?;
                    let dest_field = parts.next().ok_or_else(|| parse("missing dests"))?;
                    let mut set = DestSet::empty();
                    for d in dest_field.split(',') {
                        let node: usize =
                            d.parse().map_err(|_| parse("bad multicast dest"))?;
                        if node >= 128 {
                            return Err(parse("multicast dest out of range"));
                        }
                        set.insert(node);
                    }
                    if set.is_empty() {
                        return Err(parse("empty multicast dest set"));
                    }
                    records.push((cycle, MessageSpec::multicast(src, set)));
                }
                other => {
                    return Err(parse(&format!("unknown record kind {other:?}")));
                }
            }
        }
        Ok(Self::from_records(records))
    }

    /// Converts the trace into a replayable workload.
    pub fn into_workload(self) -> TraceWorkload {
        TraceWorkload { records: self.records, pos: 0 }
    }
}

/// Replays a recorded trace as a [`Workload`].
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    records: Vec<(u64, MessageSpec)>,
    pos: usize,
}

impl Workload for TraceWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        while self.pos < self.records.len() && self.records[self.pos].0 <= cycle {
            out.push(self.records[self.pos].1);
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{ProbabilisticWorkload, TraceKind, TrafficConfig};
    use crate::placement::Placement;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            (0, MessageSpec::unicast(3, 7, MessageClass::Request)),
            (2, MessageSpec::unicast(9, 1, MessageClass::Memory)),
            (
                5,
                MessageSpec::multicast(4, DestSet::from_nodes([1, 2, 99])),
            ),
        ])
    }

    #[test]
    fn roundtrip_preserves_records() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let parsed = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn replay_matches_original_workload() {
        let placement = Placement::paper_10x10();
        let mut original = ProbabilisticWorkload::new(
            placement.clone(),
            TraceKind::BiDf,
            TrafficConfig::default(),
        )
        .unwrap();
        let trace = Trace::record(&mut original, 300);
        assert!(!trace.is_empty());

        // A fresh copy of the workload produces the same messages as the
        // replayed trace (deterministic seeds).
        let mut fresh = ProbabilisticWorkload::new(
            placement,
            TraceKind::BiDf,
            TrafficConfig::default(),
        )
        .unwrap();
        let mut replay = trace.into_workload();
        for cycle in 0..300 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            fresh.messages_at(cycle, &mut a);
            replay.messages_at(cycle, &mut b);
            assert_eq!(a, b, "cycle {cycle}");
        }
    }

    #[test]
    fn rejects_missing_header() {
        let err = Trace::read_from("0 U 1 2 req\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_malformed_records() {
        for bad in [
            "0 U 1 2",            // missing class
            "0 U 1 two req",      // bad dst
            "0 U 3 3 req",        // self-unicast
            "x U 1 2 req",        // bad cycle
            "0 Z 1 2 req",        // unknown kind
            "0 M 4 mc",           // missing dests
            "0 M 4 mc 1,bogus",   // bad dest
            "0 M 4 mc 999",       // out of range
        ] {
            let text = format!("{TRACE_HEADER}\n{bad}\n");
            let err = Trace::read_from(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, ReadTraceError::Parse { line: 2, .. }),
                "{bad:?} should fail at line 2, got {err}"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("{TRACE_HEADER}\n\n# a comment\n0 U 1 2 data\n");
        let trace = Trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn display_of_errors() {
        let err = Trace::read_from("".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }
}
