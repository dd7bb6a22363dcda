//! `run_all` with a runner flag whose value is missing or does not parse:
//! each must exit 2 naming the flag before any experiment runs, never
//! fall back to a default.

use std::process::Command;

/// Runs `run_all fig7 --quick <flags>` in a scratch directory: exit code
/// and the combined stdout and stderr.
fn run_all(name: &str, flags: &[&str]) -> (i32, String) {
    let dir = std::env::temp_dir().join("rfnoc_run_all_cli").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["fig7", "--quick"])
        .args(flags)
        .current_dir(&dir)
        .output()
        .unwrap();
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("exited"), text)
}

fn assert_refused(name: &str, flags: &[&str], flag: &str) {
    let (code, out) = run_all(name, flags);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains(flag), "{out}");
    assert!(!out.contains("panicked"), "{out}");
    assert!(!out.contains("artifact: wrote"), "{out}");
}

#[test]
fn unparsable_jobs_is_refused() {
    assert_refused("jobs", &["--jobs", "two"], "--jobs");
}

#[test]
fn out_of_range_obs_port_is_refused() {
    assert_refused("obs_port", &["--obs-port", "70000"], "--obs-port");
}

#[test]
fn trailing_sim_threads_is_refused() {
    assert_refused("sim_threads", &["--sim-threads"], "--sim-threads");
}
