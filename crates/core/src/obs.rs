//! The live observatory: an in-process hub fed with run-ledger lines and
//! a dependency-free HTTP server exposing them.
//!
//! The bench runner's `LedgerSink` pushes every JSONL line into an
//! [`ObsHub`]. The
//! hub keeps two things: an incremental [`LedgerReader`] reduction (so
//! `/metrics` answers from aggregates, never by re-reading a file) and a
//! bounded ring of the raw lines (so `/events` can replay the stream
//! from the beginning to late subscribers). [`spawn_server`] binds a
//! `std::net::TcpListener` on localhost and serves, one thread per
//! connection:
//!
//! * `GET /healthz` — `ok`, always 200 while the process lives.
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4) of the
//!   running reduction: heartbeat throughput (kcycles/s last/mean/max),
//!   in-flight flits, shard imbalance and barrier-wait share, per-shard
//!   sweep/barrier counters, point lifecycle progress, event counts.
//! * `GET /events` — Server-Sent Events: every ledger line as one
//!   `data:` frame, replayed from the start of the ring, then followed
//!   live; the stream ends with an `end` event once the hub is closed
//!   and the subscriber has caught up.
//!
//! Everything here is observation-side only: the hub consumes the same
//! rendered lines the ledger file gets (a fan-out tee in the sink), so
//! the engine and its golden hashes are untouched.

use crate::ledger::{LedgerReader, LedgerSummary};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Raw ledger lines retained for `/events` replay. At the bench ledger's
/// record sizes this is a few tens of MB at worst; beyond it the ring
/// drops its oldest lines and late subscribers see a truncated replay.
const RING_CAP: usize = 65_536;

/// How long a blocked `/events` subscriber waits before emitting an SSE
/// keepalive comment (which doubles as dead-client detection).
const SSE_KEEPALIVE: Duration = Duration::from_millis(1_000);

struct HubInner {
    reader: LedgerReader,
    /// Ring of raw lines; `lines[i]` has sequence `base_seq + i`.
    lines: VecDeque<String>,
    /// Sequence number of the oldest retained line.
    base_seq: u64,
    /// No further lines will arrive; subscribers should finish.
    closed: bool,
    /// Live `/events` subscriber handlers.
    subscribers: usize,
    /// Lines that failed JSON reduction (still replayed verbatim).
    malformed: u64,
}

/// The shared state between a ledger producer and the HTTP handlers.
pub struct ObsHub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(HubInner {
                reader: LedgerReader::new(),
                lines: VecDeque::new(),
                base_seq: 0,
                closed: false,
                subscribers: 0,
                malformed: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Feeds one ledger line (without trailing newline; one is trimmed if
    /// present). The line lands in the replay ring verbatim — `/events`
    /// mirrors the file exactly — and in the running reduction when it
    /// parses. Empty lines are ignored.
    pub fn push_line(&self, line: &str) {
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            return;
        }
        let mut g = self.inner.lock().expect("obs hub");
        if g.reader.push_line(line).is_err() {
            g.malformed += 1;
        }
        if g.lines.len() == RING_CAP {
            g.lines.pop_front();
            g.base_seq += 1;
        }
        g.lines.push_back(line.to_string());
        drop(g);
        self.cv.notify_all();
    }

    /// Marks the stream finished: `/events` subscribers drain and end.
    pub fn close(&self) {
        self.inner.lock().expect("obs hub").closed = true;
        self.cv.notify_all();
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("obs hub").closed
    }

    /// Total lines pushed (including any the ring has since dropped).
    pub fn lines_pushed(&self) -> u64 {
        let g = self.inner.lock().expect("obs hub");
        g.base_seq + g.lines.len() as u64
    }

    /// A snapshot of the running ledger reduction.
    pub fn summary(&self) -> LedgerSummary {
        self.inner.lock().expect("obs hub").reader.summary().clone()
    }

    /// Blocks until every `/events` subscriber has disconnected, or the
    /// timeout elapses; returns whether the hub fully drained. Producers
    /// call this after [`Self::close`] so a process exit does not cut
    /// off a subscriber mid-replay.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().expect("obs hub");
        while g.subscribers > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g2, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .expect("obs hub");
            g = g2;
        }
        true
    }

    /// Fetches lines from `from_seq` on. Blocks up to [`SSE_KEEPALIVE`]
    /// when nothing new is available. Returns the batch (possibly
    /// empty), the next sequence to ask for, and whether the stream is
    /// finished (closed and caught up).
    fn next_lines(&self, from_seq: u64) -> (Vec<String>, u64, bool) {
        let mut g = self.inner.lock().expect("obs hub");
        loop {
            let end = g.base_seq + g.lines.len() as u64;
            if from_seq < end {
                // A subscriber older than the ring restarts at its head.
                let start = from_seq.max(g.base_seq);
                let batch: Vec<String> = g
                    .lines
                    .iter()
                    .skip((start - g.base_seq) as usize)
                    .cloned()
                    .collect();
                return (batch, end, false);
            }
            if g.closed {
                return (Vec::new(), end, true);
            }
            let (g2, res) = self
                .cv
                .wait_timeout(g, SSE_KEEPALIVE)
                .expect("obs hub");
            g = g2;
            if res.timed_out() {
                return (Vec::new(), g.base_seq + g.lines.len() as u64, false);
            }
        }
    }

    /// Renders the Prometheus text exposition (format 0.0.4).
    pub fn metrics_text(&self) -> String {
        let (summary, pushed, malformed, closed) = {
            let g = self.inner.lock().expect("obs hub");
            (
                g.reader.summary().clone(),
                g.base_seq + g.lines.len() as u64,
                g.malformed,
                g.closed,
            )
        };
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, v: f64| {
            if v.is_finite() {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
        };
        gauge(
            "rfnoc_ledger_records",
            "Well-formed ledger records reduced so far.",
            summary.records as f64,
        );
        gauge(
            "rfnoc_ledger_lines",
            "Raw ledger lines received (including malformed).",
            pushed as f64,
        );
        gauge(
            "rfnoc_ledger_malformed_lines",
            "Ledger lines that failed JSON reduction.",
            malformed as f64,
        );
        gauge(
            "rfnoc_heartbeats",
            "Engine heartbeat records seen.",
            summary.heartbeats as f64,
        );
        gauge(
            "rfnoc_total_kcycles",
            "Simulated kilocycles covered by heartbeats.",
            summary.total_cycles / 1e3,
        );
        gauge(
            "rfnoc_kcycles_per_sec",
            "Engine throughput of the most recent heartbeat (kcycles/s).",
            summary.kcps.last().copied().unwrap_or(0.0),
        );
        gauge(
            "rfnoc_kcycles_per_sec_mean",
            "Mean per-heartbeat engine throughput (kcycles/s).",
            summary.kcps_mean(),
        );
        gauge(
            "rfnoc_kcycles_per_sec_max",
            "Peak per-heartbeat engine throughput (kcycles/s).",
            summary.kcps_max(),
        );
        gauge(
            "rfnoc_in_flight",
            "In-flight flits at the most recent heartbeat.",
            summary.in_flight_last,
        );
        gauge(
            "rfnoc_completed_messages",
            "Cumulative completed messages at the most recent heartbeat.",
            summary.completed_last,
        );
        if let Some(v) = summary.shard_imbalance() {
            gauge(
                "rfnoc_shard_imbalance",
                "Max-over-mean per-shard total sweep time (1.0 = balanced).",
                v,
            );
        }
        if let Some(v) = summary.barrier_wait_frac() {
            gauge(
                "rfnoc_barrier_wait_frac",
                "Barrier-wait share of the sharded sweep wall time.",
                v,
            );
        }
        if let Some(p) = summary.points_planned {
            gauge("rfnoc_points_planned", "Unique plan points announced.", p);
        }
        gauge(
            "rfnoc_points_started",
            "Plan points that have started.",
            summary.points_started as f64,
        );
        gauge(
            "rfnoc_points_finished",
            "Plan points that have finished.",
            summary.points_finished as f64,
        );
        gauge(
            "rfnoc_plan_finished",
            "1 once the producer closed the stream.",
            if closed { 1.0 } else { 0.0 },
        );
        gauge(
            "rfnoc_schema_problems",
            "Ledger schema violations detected by the reduction.",
            summary.problems.len() as f64,
        );
        if !summary.shards.is_empty() {
            let _ = writeln!(
                out,
                "# HELP rfnoc_shard_sweep_ms Total sweep wall milliseconds per engine shard."
            );
            let _ = writeln!(out, "# TYPE rfnoc_shard_sweep_ms gauge");
            for (id, t) in &summary.shards {
                let _ =
                    writeln!(out, "rfnoc_shard_sweep_ms{{shard=\"{id}\"}} {}", t.sweep_ms);
            }
            let _ = writeln!(
                out,
                "# HELP rfnoc_shard_barrier_ms Total barrier wall milliseconds per engine shard."
            );
            let _ = writeln!(out, "# TYPE rfnoc_shard_barrier_ms gauge");
            for (id, t) in &summary.shards {
                let _ = writeln!(
                    out,
                    "rfnoc_shard_barrier_ms{{shard=\"{id}\"}} {}",
                    t.barrier_ms
                );
            }
        }
        if !summary.events.is_empty() {
            let _ = writeln!(
                out,
                "# HELP rfnoc_events Timeline event records seen, by event name."
            );
            let _ = writeln!(out, "# TYPE rfnoc_events gauge");
            for (name, count) in &summary.events {
                let escaped: String = name
                    .chars()
                    .map(|c| if c == '"' || c == '\\' || c == '\n' { '_' } else { c })
                    .collect();
                let _ = writeln!(out, "rfnoc_events{{event=\"{escaped}\"}} {count}");
            }
        }
        out
    }
}

/// Binds `127.0.0.1:port` (0 = OS-assigned) and serves the hub on a
/// detached accept-loop thread. Returns the bound address.
///
/// # Errors
///
/// The bind failure, if any — the caller decides whether that is fatal.
pub fn spawn_server(hub: Arc<ObsHub>, port: u16) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    std::thread::Builder::new()
        .name("rfnoc-obs-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let hub = Arc::clone(&hub);
                let _ = std::thread::Builder::new()
                    .name("rfnoc-obs-conn".into())
                    .spawn(move || handle_connection(stream, &hub));
            }
        })?;
    Ok(addr)
}

/// Reads the request line + headers of one HTTP/1.x request; returns the
/// request path. Bounded at 16 KiB of headers.
fn read_request(stream: &mut TcpStream) -> Option<String> {
    let mut reader = BufReader::new(stream.try_clone().ok()?).take(16 * 1024);
    let mut request_line = String::new();
    reader.read_line(&mut request_line).ok()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?.to_string();
    if method != "GET" {
        return None;
    }
    // Drain headers up to the blank line; the bodies of GETs are empty.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => continue,
            Err(_) => return None,
        }
    }
    Some(path)
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream, hub: &Arc<ObsHub>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Some(path) = read_request(&mut stream) else {
        write_response(&mut stream, "400 Bad Request", "text/plain", "bad request\n");
        return;
    };
    match path.split('?').next().unwrap_or("") {
        "/healthz" => write_response(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/metrics" => write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &hub.metrics_text(),
        ),
        "/events" => serve_events(stream, hub),
        _ => write_response(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Streams the ledger as Server-Sent Events: full replay from the ring's
/// head, then live until the hub closes and the subscriber is caught up.
fn serve_events(mut stream: TcpStream, hub: &Arc<ObsHub>) {
    let header = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(header.as_bytes()).and_then(|()| stream.flush()).is_err() {
        return;
    }
    hub.inner.lock().expect("obs hub").subscribers += 1;
    let mut seq = 0u64;
    loop {
        let (batch, next_seq, finished) = hub.next_lines(seq);
        let mut chunk = String::new();
        for line in &batch {
            let _ = writeln!(chunk, "data: {line}\n");
        }
        if batch.is_empty() && !finished {
            // Keepalive comment: detects dead clients while idle.
            chunk.push_str(": keepalive\n\n");
        }
        if finished {
            chunk.push_str("event: end\ndata: stream closed\n\n");
        }
        let ok = stream.write_all(chunk.as_bytes()).and_then(|()| stream.flush()).is_ok();
        seq = next_seq;
        if finished || !ok {
            break;
        }
    }
    hub.inner.lock().expect("obs hub").subscribers -= 1;
    hub.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_reduces_and_replays() {
        let hub = ObsHub::new();
        hub.push_line(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, \
             \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, \"in_flight\": 5, \
             \"completed\": 10, \"active_routers\": 16}",
        );
        hub.push_line("not json at all");
        hub.push_line("");
        assert_eq!(hub.lines_pushed(), 2, "blank dropped, malformed retained");
        let s = hub.summary();
        assert_eq!(s.heartbeats, 1);
        assert_eq!(s.records, 1);
        let (batch, next, finished) = hub.next_lines(0);
        assert_eq!(batch.len(), 2);
        assert_eq!(next, 2);
        assert!(!finished);
        hub.close();
        let (batch, _, finished) = hub.next_lines(2);
        assert!(batch.is_empty());
        assert!(finished);
    }

    #[test]
    fn metrics_text_is_prometheus_shaped() {
        let hub = ObsHub::new();
        hub.push_line(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, \
             \"wall_ms\": 0.5, \"kcycles_per_sec\": 250.0, \"in_flight\": 7, \
             \"completed\": 10, \"active_routers\": 16}",
        );
        hub.push_line(
            "{\"t_ms\": 2.0, \"kind\": \"shard\", \"cycle\": 2000, \"shard\": 0, \
             \"swept_routers\": 900, \"sweep_ms\": 3.0, \"barrier_ms\": 1.0, \
             \"replay_ops\": 40}",
        );
        hub.push_line(
            "{\"t_ms\": 2.1, \"kind\": \"shard\", \"cycle\": 2000, \"shard\": 1, \
             \"swept_routers\": 700, \"sweep_ms\": 1.0, \"barrier_ms\": 3.0, \
             \"replay_ops\": 20}",
        );
        hub.push_line(
            "{\"t_ms\": 2.5, \"kind\": \"event\", \"event\": \"fault\", \
             \"detail\": \"x\"}",
        );
        let text = hub.metrics_text();
        assert!(text.contains("rfnoc_kcycles_per_sec 250"), "{text}");
        assert!(text.contains("rfnoc_in_flight 7"), "{text}");
        assert!(text.contains("rfnoc_shard_imbalance 1.5"), "{text}");
        assert!(text.contains("rfnoc_shard_sweep_ms{shard=\"0\"} 3"), "{text}");
        assert!(text.contains("rfnoc_events{event=\"fault\"} 1"), "{text}");
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(name, v)| !name.is_empty() && v.parse::<f64>().is_ok()),
                "unexpected exposition line: {line}"
            );
        }
    }

    #[test]
    fn http_endpoints_respond() {
        let hub = Arc::new(ObsHub::new());
        hub.push_line(
            "{\"t_ms\": 1.0, \"kind\": \"heartbeat\", \"cycle\": 2000, \"cycles\": 2000, \
             \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, \"in_flight\": 5, \
             \"completed\": 10, \"active_routers\": 16}",
        );
        let addr = spawn_server(Arc::clone(&hub), 0).expect("bind ephemeral port");
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");
        let metrics = get("/metrics");
        assert!(metrics.contains("rfnoc_kcycles_per_sec 100"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }

    #[test]
    fn sse_replays_then_ends_and_drains() {
        let hub = Arc::new(ObsHub::new());
        hub.push_line("{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}");
        let addr = spawn_server(Arc::clone(&hub), 0).expect("bind ephemeral port");
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        // Push one more line live, then close: the subscriber must see
        // both frames and the end event, and the hub must drain.
        hub.push_line("{\"t_ms\": 2.0, \"kind\": \"plan_finish\", \"wall_ms\": 5.0}");
        hub.close();
        assert!(hub.wait_drained(Duration::from_secs(10)), "subscriber must finish");
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.contains("text/event-stream"), "{out}");
        assert!(out.contains("data: {\"t_ms\": 1.0"), "{out}");
        assert!(out.contains("data: {\"t_ms\": 2.0"), "{out}");
        assert!(out.contains("event: end"), "{out}");
        // The data frames replay the pushed lines in order.
        let frames: Vec<&str> = out
            .lines()
            .filter_map(|l| l.strip_prefix("data: "))
            .collect();
        assert_eq!(frames[0], "{\"t_ms\": 1.0, \"kind\": \"point_queued\", \"point\": \"a\"}");
    }

    #[test]
    fn wait_drained_without_subscribers_is_immediate() {
        let hub = ObsHub::new();
        hub.close();
        assert!(hub.wait_drained(Duration::from_millis(1)));
        assert!(hub.is_closed());
    }
}
