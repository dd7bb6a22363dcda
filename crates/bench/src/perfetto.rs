//! Perfetto/Chrome `trace_event` export of a profiled run.
//!
//! Converts a [`TelemetryReport`] recorded with `TelemetryConfig::profile`
//! set into the JSON trace-event format that `ui.perfetto.dev` (and Chrome's
//! `about:tracing`) loads directly: one track per router (pid 1, tid =
//! router id) and one per RF band (pid 2, tid = band index), a complete
//! `ph:"X"` span per recorded hop (duration = the head flit's occupancy
//! of that router, with the VA/SA/credit wait split in `args`), and a
//! `ph:"i"` instant per fault/retune timeline event. Cycle numbers are
//! emitted as microsecond timestamps, so 1 µs on the Perfetto ruler reads
//! as 1 simulated cycle.

use crate::telemetry::port_name;
use rfnoc::json::Json;
use rfnoc_sim::TelemetryReport;
use rfnoc_topology::{GridDims, Shortcut};

/// Synthetic process ids grouping the tracks.
const PID_ROUTERS: u32 = 1;
const PID_BANDS: u32 = 2;

/// Static description of the traced system: geometry for track names and
/// the shortcut set for the per-band tracks.
pub struct TraceSpec<'a> {
    /// Mesh geometry (names the router tracks by coordinate).
    pub dims: GridDims,
    /// RF shortcuts; hops granted to the RF port are mirrored onto the
    /// band track of their source router.
    pub shortcuts: &'a [Shortcut],
    /// Hop spans to emit at most (a Perfetto UI comfort cap, not a data
    /// cap); truncation is surfaced as an instant event in the trace.
    pub max_span_events: usize,
}

impl TraceSpec<'_> {
    fn band_of(&self, router: u32) -> Option<usize> {
        self.shortcuts.iter().position(|s| s.src == router as usize)
    }
}

/// Renders the trace JSON (`{"traceEvents": [...]}`) for one run. Events
/// are built and written one at a time — one per line — so a trace of
/// `max_span_events` spans never exists as a tree.
pub fn render_trace(report: &TelemetryReport, spec: &TraceSpec<'_>) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    let mut push = |event: Json| {
        out.push_str(if out.ends_with('[') { "\n  " } else { ",\n  " });
        out.push_str(&event.line());
    };

    // Metadata: name the processes and one thread per router track.
    push(meta_event(PID_ROUTERS, 0, "process_name", "routers"));
    for r in 0..spec.dims.nodes() {
        let name = format!("router {}", spec.dims.coord_of(r));
        push(meta_event(PID_ROUTERS, r as u32, "thread_name", &name));
    }
    if !spec.shortcuts.is_empty() {
        push(meta_event(PID_BANDS, 0, "process_name", "rf bands"));
        for (b, s) in spec.shortcuts.iter().enumerate() {
            let name = format!(
                "band {} -> {}",
                spec.dims.coord_of(s.src),
                spec.dims.coord_of(s.dst)
            );
            push(meta_event(PID_BANDS, b as u32, "thread_name", &name));
        }
    }

    // One complete span per recorded hop, on its router's track; RF hops
    // are mirrored onto their band's track.
    let truncated = report.hops.len().saturating_sub(spec.max_span_events);
    for h in report.hops.iter().take(spec.max_span_events) {
        let span = |pid: u32, tid: u32, name: String| {
            Json::obj()
                .field("ph", "X")
                .field("pid", pid)
                .field("tid", tid)
                .field("ts", h.arrived_at)
                .field("dur", h.occupancy().max(1))
                .field("name", name)
                .field(
                    "args",
                    Json::obj()
                        .field("va_wait", h.va_wait())
                        .field("sa_wait", h.sa_wait())
                        .field("credit_waits", h.credit_waits),
                )
        };
        let name = format!(
            "pkt {} {}->{}",
            h.packet,
            port_name(report, h.port_in as usize),
            port_name(report, h.port_out as usize)
        );
        push(span(PID_ROUTERS, h.router, name));
        if h.port_out as usize == report.ports - 1 {
            if let Some(b) = spec.band_of(h.router) {
                push(span(PID_BANDS, b as u32, format!("pkt {} on band", h.packet)));
            }
        }
    }

    // Fault/retune instants on the router process's first track.
    for e in &report.events {
        push(instant_event(e.cycle, e.kind.to_string()));
    }
    if truncated > 0 || report.dropped_hops > 0 {
        let note = format!(
            "trace truncated: {truncated} hop spans omitted, {} dropped at capture",
            report.dropped_hops
        );
        push(instant_event(0, note));
    }

    out.push_str("\n]}\n");
    out
}

fn meta_event(pid: u32, tid: u32, kind: &str, name: &str) -> Json {
    Json::obj()
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .field("name", kind)
        .field("args", Json::obj().field("name", name))
}

fn instant_event(ts: u64, name: String) -> Json {
    Json::obj()
        .field("ph", "i")
        .field("pid", PID_ROUTERS)
        .field("tid", 0u32)
        .field("ts", ts)
        .field("s", "g")
        .field("name", name)
}
