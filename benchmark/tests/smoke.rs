//! The benchmark against its contract: `BENCHMARK.json` is well formed,
//! `--smoke` prints exactly the metrics it declares, and the inputs follow
//! the seed.

use rfnoc::compare::{parse, Json};
use rfnoc_benchmark::checks::Checks;
use rfnoc_benchmark::inputs::{inputs, Inputs, WORKLOADS};
use rfnoc_benchmark::metrics::valid_name;
use rfnoc_benchmark::single;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    list(doc, key)
        .iter()
        .map(|m| (text(m, "name").into(), text(m, "unit").into()))
        .collect()
}

#[test]
fn benchmark_json_meets_the_contract() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(list(&doc, "paths"), [Json::Str("benchmark".into())]);
    let Some(Json::Num(run_seconds)) = doc.get("run_seconds") else {
        panic!("run_seconds")
    };
    assert!((1.0..=60.0).contains(run_seconds) && run_seconds.fract() == 0.0);

    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in list(&doc, "workloads") {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(text(w, "why").len() <= 200 && !text(w, "why").contains('\n'));
    }

    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for m in list(&doc, "end_to_end") {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let Some(Json::Num(bound)) = m.get("bound") else {
            panic!("bound")
        };
        assert!((0.0..=0.25).contains(bound), "{m:?}");
    }
    for m in list(&doc, "per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    for m in list(&doc, "end_to_end")
        .iter()
        .chain(list(&doc, "per_layer"))
    {
        assert!(unit_ok(text(m, "unit")), "{m:?}");
        assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
        names.push(text(m, "name"));
    }
    assert!(names.iter().all(|n| valid_name(n)));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    // setup_s: present, in seconds, lower is better, the largest bound.
    let bound = |m: &Json| match m.get("bound") {
        Some(Json::Num(b)) => *b,
        _ => unreachable!("checked above"),
    };
    let e2e = list(&doc, "end_to_end");
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));
}

#[test]
fn smoke_prints_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_rfnoc-benchmark"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}:\n{stdout}"
            );
            let result = parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
            assert!(matches!(result.get("attempted"), Some(Json::Num(n)) if *n >= 1.0));

            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics")
            };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(m, "unit").into()))
                .collect();
            assert_eq!(printed, declared(&doc, key), "{workload} --trace {trace}");
            for (name, m) in metrics {
                assert_eq!(keys(m), ["value", "unit"], "{name}");
                assert!(
                    matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
                    "{name}"
                );
                // An end-to-end metric that reads 0 cannot be compared.
                assert!(
                    key == "per_layer" || m.get("value") != Some(&Json::Num(0.0)),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn hashes_follow_the_seed() {
    let hash = |seed| {
        let Some(Inputs::Single(exps)) = inputs("mesh10_saturated", seed, true) else {
            panic!("mesh10_saturated is a single experiment");
        };
        let mut checks = Checks::default();
        let rep = single::untraced(&exps, &mut checks);
        assert_eq!(checks.failed, 0);
        assert_eq!(rep.hash, single::reference(&exps, &mut checks).0);
        rep.hash
    };
    assert_eq!(hash(5), hash(5));
    assert_ne!(hash(5), hash(6));
}
