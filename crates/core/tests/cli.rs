//! `rfnoc-cli tail` and `ledger-summary` exit codes on a finished ledger:
//! the exit code is the contract a script reads, so each is driven
//! through the built binary.

use std::process::Command;

/// A finished three-record ledger: plan start, one heartbeat, plan finish.
const LEDGER: &str = concat!(
    "{\"t_ms\": 0.1, \"kind\": \"plan_start\", \"points\": 1, \"unique\": 1, \"jobs\": 1}\n",
    "{\"t_ms\": 1.0, \"point\": \"a\", \"kind\": \"heartbeat\", \"cycle\": 2000, ",
    "\"cycles\": 2000, \"wall_ms\": 0.5, \"kcycles_per_sec\": 100.0, ",
    "\"in_flight\": 5, \"completed\": 10, \"active_routers\": 16}\n",
    "{\"t_ms\": 2.0, \"kind\": \"plan_finish\", \"wall_ms\": 1.9}\n",
);

/// Runs `rfnoc-cli <cmd> <ledger> <flags>` on [`LEDGER`]: exit code,
/// stdout and stderr.
fn cli(cmd: &str, flags: &[&str]) -> (i32, String, String) {
    let dir = std::env::temp_dir().join("rfnoc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{cmd}{}.jsonl", flags.len()));
    std::fs::write(&path, LEDGER).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rfnoc-cli"))
        .arg(cmd)
        .arg(&path)
        .args(flags)
        .output()
        .unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (
        out.status.code().expect("exited"),
        text(&out.stdout),
        text(&out.stderr),
    )
}

#[test]
fn tail_renders_a_finished_ledger() {
    let (code, out, err) = cli("tail", &[]);
    assert_eq!(code, 0, "{err}");
    assert!(!out.is_empty(), "{err}");
}

#[test]
fn tail_refuses_a_zero_poll_interval() {
    let (code, _, err) = cli("tail", &["--poll-ms", "0"]);
    assert_eq!(code, 2, "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn ledger_summary_of_a_clean_ledger_succeeds() {
    let (code, out, err) = cli("ledger-summary", &[]);
    assert_eq!(code, 0, "{err}");
    assert!(rfnoc::json::parse(&out).is_ok(), "{out}");
}
