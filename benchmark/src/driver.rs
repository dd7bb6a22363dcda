//! The two commands that run every workload, each in a fresh child
//! process so that `VmHWM` is per workload: `all` prints every metric of
//! both passes, `agree` runs the untraced pass twice and holds the two
//! sets against the bounds in `BENCHMARK.json`.

use crate::inputs::WORKLOADS;
use crate::run::{repo_root, RunArgs};
use rfnoc::compare::{parse, Json};
use std::process::{Command, Stdio};

/// What one child run reported on its last line.
struct ChildResult {
    correct: bool,
    /// `(name, value)` in table order.
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child of this executable, echoing its table.
fn child(args: &RunArgs, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let doc = parse(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err(format!("{workload}: the result carries no metrics"));
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Json::Num(value)) => Some((name.clone(), *value)),
            _ => None,
        })
        .collect();
    let correct = output.status.success() && doc.get("correct") == Some(&Json::Bool(true));
    Ok(ChildResult { correct, metrics })
}

/// Runs both passes of every workload. Returns whether every check of
/// every run held.
pub fn all(args: &RunArgs) -> Result<bool, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            ok &= child(args, workload, trace)?.correct;
            println!();
        }
    }
    println!(
        "{}",
        if ok {
            "all checks held"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = repo_root()?.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(
            |m| match (m.get("name").and_then(Json::as_str), m.get("bound")) {
                (Some(name), Some(Json::Num(bound))) => Ok((name.to_string(), *bound)),
                _ => Err(format!(
                    "{}: an end_to_end entry lacks name or bound",
                    path.display()
                )),
            },
        )
        .collect()
}

/// Runs the untraced pass of every workload twice on the same seed and
/// prints, per workload and end-to-end metric, both values, their relative
/// difference and the bound. Host-time metrics must agree within their
/// bound; simulated ones (`sim_*`) must be bit-equal. Returns whether they
/// did and every check held.
pub fn agree(args: &RunArgs) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sets = Vec::new();
    let mut ok = true;
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in WORKLOADS {
            let result = child(args, workload, false)?;
            ok &= result.correct;
            set.push(result.metrics);
        }
        sets.push(set);
    }
    println!(
        "\n{:<22} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, bound) in &bounds {
            let value = |set: &Vec<Vec<(String, f64)>>| {
                set[w].iter().find(|(n, _)| n == name).map(|(_, v)| *v)
            };
            let (Some(a), Some(b)) = (value(&sets[0]), value(&sets[1])) else {
                return Err(format!("{workload} did not report {name}"));
            };
            let diff = if a == b { 0.0 } else { (b - a).abs() / a.abs() };
            let agrees = if name.starts_with("sim_") {
                a == b
            } else {
                diff <= *bound
            };
            ok &= agrees;
            println!(
                "{workload:<22} {name:<24} {a:>16.6} {b:>16.6} {diff:>9.4} {bound:>7.2}{}",
                if agrees { "" } else { "  DISAGREES" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "the two sets agree"
        } else {
            "THE TWO SETS DISAGREE"
        }
    );
    Ok(ok)
}
