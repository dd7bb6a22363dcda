//! `trace_tool replay` on traces it cannot run: each must end in a
//! message and exit code 1, never a panic inside the simulator.

use rfnoc_traffic::TRACE_HEADER;

mod common;

/// Replays `records` (one trace line each) on the baseline design:
/// exit code and stderr.
fn replay(name: &str, records: &str) -> (i32, String) {
    let dir = common::scratch_dir(&format!("trace_tool_cli/{name}"));
    std::fs::write(dir.join("run.trace"), format!("{TRACE_HEADER}\n0 U 1 2 req\n{records}\n"))
        .unwrap();
    let (code, _, stderr) =
        common::spawn(env!("CARGO_BIN_EXE_trace_tool"), &dir, &["replay", "run.trace", "baseline"]);
    (code, stderr)
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
