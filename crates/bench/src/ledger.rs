//! The run-ledger sink: streams the runner's point-lifecycle records and
//! the engine's heartbeat/shard records onto one JSONL timeline.
//!
//! The sink is the single outlet for runner progress. It tees three ways:
//!
//! * **human one-liners** to stderr (suppressed by `--quiet`),
//! * **structured JSONL** to `results/ledger/<name>.jsonl` when `--ledger
//!   <name>` is set — one flat object per line, every line stamped with
//!   `t_ms` (wall milliseconds since the sink was created) so records
//!   from concurrent workers and from inside the engine share one
//!   timeline. `--ledger -` streams the same JSONL to **stdout** instead
//!   of a file (pipe it into `jq`, `rfnoc-cli tail -`, or a collector).
//!   Human one-liners always go to *stderr*, so stdout stays pure JSONL;
//!   add `--quiet` only to silence the human channel — it never affects
//!   the ledger stream itself, and
//! * **the observatory hub** when `--obs-port <p>` is set: every record
//!   is mirrored into an in-process [`rfnoc::obs::ObsHub`] serving
//!   `/metrics`, `/healthz`, and `/events` over HTTP while the run is
//!   live. File and socket see the same records in the same order; the
//!   sink's `Drop` closes the hub and briefly waits for connected
//!   `/events` subscribers to drain.
//!
//! Lines are flushed as they are emitted so `rfnoc-cli tail --follow`
//! (or plain `tail -f`) sees them live.

use crate::runner::RunnerConfig;
use rfnoc::json::{rounded, Json};
use rfnoc::obs::ObsHub;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Heartbeat interval (cycles) for the engine-level ledger the runner
/// enables on each experiment when a ledger file is being written: two
/// thousand cycles keeps tens of heartbeats per standard measurement
/// window without measurable overhead.
pub const ENGINE_HEARTBEAT_CYCLES: u64 = 2_000;

/// How long a dropping sink waits for live `/events` subscribers to
/// receive the final records before the process moves on.
const OBS_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A runner progress sink: human one-liners on stderr plus an optional
/// JSONL ledger stream (file or stdout) and an optional live HTTP
/// observatory. Shared by the runner's worker threads (the stream writer
/// sits behind a mutex; stderr is line-atomic already).
pub struct LedgerSink {
    out: Option<Mutex<Box<dyn Write + Send>>>,
    path: Option<PathBuf>,
    hub: Option<Arc<ObsHub>>,
    obs_addr: Option<SocketAddr>,
    quiet: bool,
    start: Instant,
}

impl std::fmt::Debug for LedgerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerSink")
            .field("out", &self.out.as_ref().map(|_| "..."))
            .field("path", &self.path)
            .field("obs_addr", &self.obs_addr)
            .field("quiet", &self.quiet)
            .finish()
    }
}

impl LedgerSink {
    /// A sink with no ledger stream: human output only (or nothing, when
    /// `quiet`).
    pub fn disabled(quiet: bool) -> Self {
        Self {
            out: None,
            path: None,
            hub: None,
            obs_addr: None,
            quiet,
            start: Instant::now(),
        }
    }

    /// Builds the sink a [`RunnerConfig`] asks for: a JSONL file under
    /// `results/ledger/` when `--ledger <name>` was given (a name
    /// containing `/` or ending in `.jsonl` is taken as a path verbatim;
    /// `-` streams to stdout), stderr teeing unless `--quiet`, and a live
    /// observatory server when `--obs-port <p>` was given (`0` picks a
    /// free port). Stream-creation and bind failures are reported and
    /// degrade rather than aborting the run.
    pub fn from_config(cfg: &RunnerConfig) -> Self {
        let mut sink = Self::disabled(cfg.quiet);
        if let Some(port) = cfg.obs_port {
            let hub = Arc::new(ObsHub::new());
            match rfnoc::obs::spawn_server(Arc::clone(&hub), port) {
                Ok(addr) => {
                    sink.hub = Some(hub);
                    sink.obs_addr = Some(addr);
                    sink.human(&format!(
                        "obs: serving http://{addr}/metrics /healthz /events"
                    ));
                }
                Err(e) => eprintln!("obs: cannot bind port {port}: {e}"),
            }
        }
        let Some(name) = &cfg.ledger else { return sink };
        if name == "-" {
            sink.out = Some(Mutex::new(Box::new(std::io::stdout())));
            return sink;
        }
        let path = if name.contains('/') || name.ends_with(".jsonl") {
            PathBuf::from(name)
        } else {
            PathBuf::from(format!("results/ledger/{name}.jsonl"))
        };
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("ledger: cannot create {}: {e}", dir.display());
                return sink;
            }
        }
        match std::fs::File::create(&path) {
            Ok(f) => {
                sink.out = Some(Mutex::new(Box::new(std::io::BufWriter::new(f))));
                sink.path = Some(path);
            }
            Err(e) => eprintln!("ledger: cannot create {}: {e}", path.display()),
        }
        sink
    }

    /// Whether ledger records go anywhere (file, stdout, or observatory):
    /// the runner enables the engine-level ledger on each experiment only
    /// when this is true.
    pub fn enabled(&self) -> bool {
        self.out.is_some() || self.hub.is_some()
    }

    /// The ledger file's path, when one is being written (`None` for
    /// stdout streaming).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The observatory hub, when `--obs-port` started one.
    pub fn hub(&self) -> Option<&Arc<ObsHub>> {
        self.hub.as_ref()
    }

    /// The bound observatory address, when `--obs-port` started one.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs_addr
    }

    /// Wall milliseconds since the sink was created — the `t_ms` stamp.
    pub fn t_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Appends one record to the ledger stream and observatory hub
    /// (no-op without either). `record` is the record's object — `kind`
    /// first; the sink prepends the `t_ms` stamp and, for a record that
    /// came out of an experiment's engine, the plan `point` it belongs
    /// to. Each line is flushed so followers see it immediately.
    ///
    /// # Panics
    ///
    /// Panics when `record` is not an object — a bug in the caller.
    pub fn emit(&self, point: Option<&str>, record: Json) {
        if !self.enabled() {
            return;
        }
        let Json::Obj(fields) = record else { panic!("ledger record {record:?} is not an object") };
        let mut stamped = vec![("t_ms".to_string(), rounded(self.t_ms(), 3))];
        stamped.extend(point.map(|p| ("point".to_string(), p.into())));
        stamped.extend(fields);
        let line = Json::Obj(stamped).line();
        if let Some(out) = &self.out {
            let mut w = out.lock().expect("ledger writer");
            if w.write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .and_then(|()| w.flush())
                .is_err()
            {
                // A dead ledger stream (disk full, closed pipe) must not
                // kill the run; the error surfaces once via stderr below.
                drop(w);
                eprintln!("ledger: write failed; further records may be lost");
            }
        }
        if let Some(hub) = &self.hub {
            hub.push_line(&line);
        }
    }

    /// Prints a human progress line to stderr unless `--quiet`.
    pub fn human(&self, line: &str) {
        if !self.quiet {
            eprintln!("{line}");
        }
    }
}

impl Drop for LedgerSink {
    fn drop(&mut self) {
        if let Some(hub) = &self.hub {
            hub.close();
            if !hub.wait_drained(OBS_DRAIN_TIMEOUT) {
                eprintln!("obs: subscribers still attached after drain timeout");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_sink(name: &str) -> (LedgerSink, PathBuf) {
        let path = std::env::temp_dir()
            .join("rfnoc_ledger_sink_test")
            .join(format!("{name}.jsonl"));
        let cfg = RunnerConfig {
            ledger: Some(path.to_str().unwrap().to_string()),
            quiet: true,
            ..RunnerConfig::default()
        };
        (LedgerSink::from_config(&cfg), path)
    }

    #[test]
    fn sink_writes_stamped_jsonl() {
        let (sink, path) = temp_sink("stamped");
        assert!(sink.enabled());
        sink.emit(None, Json::obj().field("kind", "plan_start").field("points", 3u32));
        sink.emit(Some("a/b"), Json::obj().field("kind", "heartbeat"));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"t_ms\": "), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(lines[0].ends_with(", \"kind\": \"plan_start\", \"points\": 3}"), "{text}");
        assert!(lines[1].ends_with(", \"point\": \"a/b\", \"kind\": \"heartbeat\"}"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = LedgerSink::disabled(true);
        assert!(!sink.enabled());
        assert!(sink.path().is_none());
        assert!(sink.hub().is_none());
        sink.emit(None, Json::obj().field("kind", "heartbeat")); // must not panic
    }

    #[test]
    fn stdout_sink_is_enabled_without_a_path() {
        let cfg = RunnerConfig {
            ledger: Some("-".to_string()),
            quiet: true,
            ..RunnerConfig::default()
        };
        let sink = LedgerSink::from_config(&cfg);
        assert!(sink.enabled());
        assert!(sink.path().is_none(), "stdout streaming has no file path");
    }

    #[test]
    fn obs_hub_sees_emitted_records() {
        let cfg = RunnerConfig {
            obs_port: Some(0),
            quiet: true,
            ..RunnerConfig::default()
        };
        let sink = LedgerSink::from_config(&cfg);
        assert!(sink.enabled(), "a hub alone enables the sink");
        assert!(sink.obs_addr().is_some());
        sink.emit(None, Json::obj().field("kind", "plan_start").field("points", 1u32));
        sink.emit(None, Json::obj().field("kind", "plan_finish").field("wall_ms", 1.0));
        let hub = sink.hub().unwrap();
        assert_eq!(hub.lines_pushed(), 2);
        let summary = hub.summary();
        assert!(summary.plan_wall_ms.is_some());
    }
}
