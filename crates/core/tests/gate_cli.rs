//! `rfnoc-cli ingest` and `gate` end to end: the exit code is the
//! contract a CI step reads, so each outcome is driven through the built
//! binary on plan-artifact-shaped files — pass (0), a significant
//! regression (2), and input the gate refuses (1).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfnoc_gate_cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A two-point plan artifact named `name`, stamped `unix`, with every
/// `wall_ms` multiplied by `wall_scale`.
fn plan_artifact(name: &str, unix: u64, wall_scale: f64) -> String {
    let point = |id: &str, wall: f64, latency: f64| {
        format!(
            r#"{{"id": "{id}", "design": "Static", "wall_ms": {}, "build_ms": 1.5,
                "avg_latency_cycles": {latency}, "completion_rate": 1.0,
                "injected_messages": 900, "completed_messages": 900}}"#,
            wall * wall_scale
        )
    };
    format!(
        r#"{{"name": "{name}", "git": "abc123", "generated_unix": {unix}, "jobs": 2,
            "points_total": 2, "unique_experiments": 2, "wall_ms": {},
            "points_wall_ms": {}, "points": [{}, {}]}}"#,
        120.0 * wall_scale,
        110.0 * wall_scale,
        point("uniform", 50.0, 31.25),
        point("hotspot", 60.0, 40.5),
    )
}

fn write(dir: &Path, file: &str, text: &str) -> String {
    let path = dir.join(file);
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

/// Runs `rfnoc-cli args...`: exit code and stderr.
fn cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rfnoc-cli")).args(args).output().unwrap();
    (out.status.code().expect("exited"), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn gate_exit_codes_follow_the_verdict() {
    let dir = scratch("verdict");
    let history = dir.join("history");
    let history = history.to_str().unwrap();
    let first = write(&dir, "first.json", &plan_artifact("fig7", 1, 1.0));
    let (code, err) = cli(&["ingest", "--history", history, &first]);
    assert_eq!(code, 0, "{err}");

    // A rerun with the same figures passes.
    let repeat = write(&dir, "repeat.json", &plan_artifact("fig7", 2, 1.0));
    let gate = |file: &str| cli(&["gate", file, "--history", history, "--min-history", "1"]);
    let (code, err) = gate(&repeat);
    assert_eq!(code, 0, "{err}");

    // Every wall time ten times longer is a significant regression.
    let slow = write(&dir, "slow.json", &plan_artifact("fig7", 3, 10.0));
    let (code, err) = gate(&slow);
    assert_eq!(code, 2, "{err}");
}

#[test]
fn gate_refuses_samples_of_two_artifacts() {
    let dir = scratch("mixed");
    let history = dir.join("history");
    let fig7 = write(&dir, "fig7.json", &plan_artifact("fig7", 1, 1.0));
    let resilience = write(&dir, "resilience.json", &plan_artifact("resilience", 1, 1.0));
    let (code, err) = cli(&["gate", &fig7, &resilience, "--history", history.to_str().unwrap()]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("\"fig7\"") && err.contains("\"resilience\""), "{err}");
}
