//! In-memory spans around the benchmark's calls into each crate, written
//! once to `out/<workload>/trace.json` when the run ends.
//!
//! A span is named after the crate boundary it times (`sim.step`,
//! `topology.select`, …); the per-crate metric `<name>_s` of a rep is the
//! summed busy time of the rep's spans of that name. Calls made once per
//! simulated cycle accumulate into one span per rep (`calls` counts
//! them, `busy_ns` sums them) instead of one span per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Crate-boundary name, or `rep` / `probe` / `point:<id>` for the
    /// grouping spans.
    pub name: String,
    /// Rep of the workload this span belongs to.
    pub rep: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Time spent inside: `end_ns - start_ns` for a plain span, the sum
    /// over calls for an accumulating one.
    pub busy_ns: u64,
    /// Calls folded into this span.
    pub calls: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: String,
    /// Rep stamped on spans opened from now on.
    pub rep: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            epoch: Instant::now(),
            workload: workload.to_string(),
            rep: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; it stays zero-length until [`Tracer::close`] or
    /// [`Tracer::add`] extends it.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            rep: self.rep,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Ends a plain span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
        span.calls = 1;
    }

    /// Times `f` as a plain child span of `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Folds one call lasting `from..to` into the accumulating span `id`.
    pub fn add(&mut self, id: SpanId, from: Instant, to: Instant) {
        let (from, to) = (self.ns(from), self.ns(to));
        let span = &mut self.spans[id];
        if span.calls == 0 {
            span.start_ns = from;
        }
        span.end_ns = to;
        span.busy_ns += to - from;
        span.calls += 1;
    }

    /// Records a span known only by its duration (a sweep point's wall
    /// time: the runner reports no start), anchored at its parent's start.
    pub fn record(&mut self, name: &str, parent: SpanId, busy_ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns + busy_ns,
            busy_ns,
            calls: 1,
            parent: Some(parent),
        });
    }

    /// The most recent span called `name`.
    ///
    /// # Panics
    ///
    /// Panics when no such span was opened: a bug in the caller.
    pub fn last(&self, name: &str) -> SpanId {
        self.spans
            .iter()
            .rposition(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span {name:?} was opened"))
    }

    /// Busy seconds of one span.
    pub fn busy_s(&self, id: SpanId) -> f64 {
        self.spans[id].busy_ns as f64 * 1e-9
    }

    /// A span's self time in seconds: its busy time minus its direct
    /// children's. Children of one span never overlap here, except the
    /// duration-only point spans under `bench.run_plan`, whose self time
    /// is not reported.
    pub fn self_s(&self, id: SpanId) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children) as f64 * 1e-9
    }

    /// Whether `span` belongs to the current rep and times a crate
    /// boundary, not a grouping span (`rep`, `probe`, `point:*`).
    fn timed_now(&self, span: &Span) -> bool {
        span.rep == self.rep && span.name.contains('.') && !span.name.contains(':')
    }

    /// Summed busy seconds of the current rep's spans called `name`.
    pub fn rep_total(&self, name: &str) -> f64 {
        let spans = self
            .spans
            .iter()
            .filter(|s| self.timed_now(s) && s.name == name);
        spans.map(|s| s.busy_ns as f64 * 1e-9).sum()
    }

    /// The current rep's per-crate time samples: `(<name>_s, summed busy
    /// seconds)` for every span name, in first-seen order.
    pub fn rep_samples(&self) -> Vec<(String, f64)> {
        let mut samples: Vec<(String, f64)> = Vec::new();
        for span in self.spans.iter().filter(|s| self.timed_now(s)) {
            let metric = format!("{}_s", span.name);
            if !samples.iter().any(|(name, _)| *name == metric) {
                samples.push((metric, self.rep_total(&span.name)));
            }
        }
        samples
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every span as a JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"rep\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"calls\": {}, \
                 \"parent\": {parent}}}",
                s.name, self.workload, s.rep, s.start_ns, s.end_ns, s.busy_ns, s.calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new("w");
        let root = t.open("rep", None);
        let t0 = Instant::now();
        let acc = t.open("sim.step", Some(root));
        t.add(acc, t0, t0 + Duration::from_nanos(300));
        t.add(
            acc,
            t0 + Duration::from_nanos(500),
            t0 + Duration::from_nanos(700),
        );
        t.close(root);
        assert_eq!(t.spans()[acc].calls, 2);
        assert_eq!(t.spans()[acc].busy_ns, 500);
        assert_eq!(t.spans()[acc].end_ns - t.spans()[acc].start_ns, 700);
        let root_busy = t.spans()[root].busy_ns;
        assert!((t.self_s(root) - (root_busy - 500) as f64 * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn rep_samples_group_by_name_within_the_rep() {
        let mut t = Tracer::new("w");
        let root = t.open("rep", None);
        t.record("core.build_system", root, 1_000);
        t.record("core.build_system", root, 2_000);
        t.record("point:a", root, 9_000);
        t.rep = 1;
        let root1 = t.open("rep", None);
        t.record("core.build_system", root1, 5_000);
        assert_eq!(
            t.rep_samples(),
            vec![("core.build_system_s".to_string(), 5_000.0 * 1e-9)]
        );
        assert_eq!(t.rep_total("point:a"), 0.0);
    }

    #[test]
    fn render_parses_as_json() {
        let mut t = Tracer::new("w");
        let root = t.open("rep", None);
        t.record("point:fig7/static/uniform", root, 10);
        t.close(root);
        let doc = rfnoc::compare::parse(&t.render()).expect("trace.json parses");
        let rfnoc::compare::Json::Arr(spans) = doc.get("spans").expect("spans key") else {
            panic!("spans is an array");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent"),
            Some(&rfnoc::compare::Json::Num(0.0))
        );
    }
}
