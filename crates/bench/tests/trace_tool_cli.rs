//! `trace_tool replay` on traces it cannot run: each must end in a
//! message and exit code 1, never a panic inside the simulator.

use rfnoc_traffic::TRACE_HEADER;
use std::process::Command;

/// Replays `records` (one trace line each) on the baseline design:
/// exit code and stderr.
fn replay(name: &str, records: &str) -> (i32, String) {
    let dir = std::env::temp_dir().join("rfnoc_trace_tool_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.trace"));
    std::fs::write(&path, format!("{TRACE_HEADER}\n0 U 1 2 req\n{records}\n")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(["replay", path.to_str().unwrap(), "baseline"])
        .output()
        .unwrap();
    (out.status.code().expect("exited"), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn node_outside_the_network_is_refused() {
    let (code, err) = replay("foreign_node", "5 U 150 3 data");
    assert_eq!(code, 1, "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("record 2 (cycle 5) names node 150"), "{err}");
}

#[test]
fn self_unicast_is_refused() {
    let (code, err) = replay("self_unicast", "0 U 3 3 req");
    assert_eq!(code, 1, "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("line 3"), "{err}");
}
