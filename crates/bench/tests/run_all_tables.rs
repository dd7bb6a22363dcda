//! `run_all <table>`: each entry of `suite::tables()` reproduces its
//! committed `results/<name>.txt` (and Figure 2 its four SVGs) byte for
//! byte, the simulating ones print the same tables in quick mode, and an
//! unknown name lists both registries.

use std::path::{Path, PathBuf};

mod common;

/// Runs `run_all <args>` in a scratch directory of its own: exit code,
/// stdout, stderr and the directory, where `results/` lands.
fn run_all(dir: &str, args: &[&str]) -> (i32, String, String, PathBuf) {
    let dir = common::scratch_dir(&format!("run_all_tables/{dir}"));
    let (code, stdout, stderr) = common::spawn(env!("CARGO_BIN_EXE_run_all"), &dir, args);
    (code, stdout, stderr, dir)
}

/// A committed file under the repository's `results/`.
fn committed(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::read_to_string(root.join(path)).unwrap()
}

/// `text` with the selection-time column of `ablation_heuristics` (host
/// time, which varies from run to run) blanked.
fn mask_times(name: &str, text: &str) -> String {
    if name != "ablation_heuristics" {
        return text.to_string();
    }
    let mask = |line: &str| {
        let mut cells: Vec<&str> = line.split('|').collect();
        if cells.len() == 7 {
            cells[4] = " time ";
        }
        cells.join("|")
    };
    text.lines().map(mask).collect::<Vec<_>>().join("\n")
}

/// `text` with every run of digits replaced by one `#`: the shape of the
/// tables without their values.
fn shape(text: &str) -> String {
    let mut out = String::new();
    for c in text.chars() {
        if !c.is_ascii_digit() {
            out.push(c);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

/// Runs table `name` at full windows and checks its stdout against
/// `results/<name>.txt`.
fn assert_reproduces(name: &str) -> PathBuf {
    let (code, stdout, stderr, dir) = run_all(name, &[name]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        mask_times(name, &stdout) == mask_times(name, &committed(&format!("{name}.txt"))),
        "run_all {name} no longer prints results/{name}.txt:\n{stdout}"
    );
    dir
}

#[test]
fn fig2_shortcut_maps_reproduces_its_maps_and_svgs() {
    let dir = assert_reproduces("fig2_shortcut_maps");
    for svg in [
        "fig2a_rf_overlay",
        "fig2b_static_shortcuts",
        "fig2c_adaptive_1hotspot",
        "utilization_1hotspot_adaptive",
    ] {
        let path = format!("svg/{svg}.svg");
        let written = std::fs::read_to_string(dir.join("results").join(&path)).unwrap();
        assert!(written == committed(&path), "results/{path} differs from the committed file");
    }
}

#[test]
fn fig5_parameters_reproduces_its_tables() {
    assert_reproduces("fig5_parameters");
}

#[test]
fn table2_area_reproduces_its_table() {
    assert_reproduces("table2_area");
}

/// Runs table `name` with `--quick`: the committed text's lines, labels
/// and layout with other values. Returns stdout.
fn run_quick(name: &str) -> String {
    let (code, stdout, stderr, _) = run_all(&format!("{name}_quick"), &[name, "--quick"]);
    assert_eq!(code, 0, "{stderr}");
    let committed = committed(&format!("{name}.txt"));
    assert_eq!(shape(&mask_times(name, &stdout)), shape(&mask_times(name, &committed)));
    stdout
}

#[test]
fn ablation_heuristics_runs_quick() {
    run_quick("ablation_heuristics");
}

#[test]
fn ablation_regions_runs_quick() {
    run_quick("ablation_regions");
}

/// Each strategy row carries a positive latency for every phase and the
/// mean, and the reconfigurations it pays: one per phase change when
/// retuned, none when frozen, none for the static design.
#[test]
fn phased_workloads_runs_quick_and_counts_reconfigurations() {
    let stdout = run_quick("phased_workloads");
    for (strategy, reconfigurations) in [
        ("adaptive, retuned per phase", "4"),
        ("adaptive, frozen after phase 1", "0"),
        ("static shortcuts", "0"),
    ] {
        let row = stdout
            .lines()
            .find(|l| l.starts_with(&format!("| {strategy} |")))
            .unwrap_or_else(|| panic!("no row for {strategy}:\n{stdout}"));
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let (reconfigs, latencies) = cells[1..].split_last().unwrap();
        assert_eq!(*reconfigs, reconfigurations, "{row}");
        assert_eq!(latencies.len(), 6, "five phases and the mean: {row}");
        for l in latencies {
            assert!(l.parse::<f64>().unwrap() > 0.0, "{row}");
        }
    }
}

#[test]
fn unknown_name_lists_figures_and_tables() {
    let (code, stdout, stderr, _) = run_all("unknown", &["fig2_shortcut_map"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    for name in ["fig7", "resilience", "fig2_shortcut_maps", "table2_area", "phased_workloads"] {
        assert!(stderr.contains(name), "{name} not listed: {stderr}");
    }
}

/// The three simulating tables at the paper's windows reproduce their
/// committed text, the heuristics' selection times aside. About 11 s in
/// release, too slow for the debug suite.
#[test]
#[ignore]
fn simulating_tables_reproduce_at_full_windows() {
    for name in ["ablation_heuristics", "ablation_regions", "phased_workloads"] {
        assert_reproduces(name);
    }
}
