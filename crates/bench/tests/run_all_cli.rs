//! `run_all` with a runner flag whose value is missing or does not parse:
//! each must exit 2 naming the flag before any experiment runs, never
//! fall back to a default.

mod common;

/// Runs `run_all fig7 --quick <flags>` in a scratch directory: exit code
/// and the combined stdout and stderr.
fn run_all(name: &str, flags: &[&str]) -> (i32, String) {
    let dir = common::scratch_dir(&format!("run_all_cli/{name}"));
    let args: Vec<&str> = ["fig7", "--quick"].iter().chain(flags).copied().collect();
    let (code, stdout, stderr) = common::spawn(env!("CARGO_BIN_EXE_run_all"), &dir, &args);
    (code, stdout + &stderr)
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
