//! The metric tables and the result a run prints.
//!
//! `BENCHMARK.json` is the contract; the tables here are what the program
//! emits, and `tests/smoke.rs` holds the two equal. Every run reports every
//! metric of its pass; a per-crate metric that does not apply to a
//! workload reads 0.

use crate::checks::Checks;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, from the untraced pass.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("router_cycles_per_s", "1/s"),
    ("flit_grants_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_avg_latency_cycles", "cycles"),
    ("sim_noc_power_w", "W"),
    ("sim_completed_frac", "ratio"),
];

/// Per-crate metrics `(name, unit)`, from the traced pass. The prefix is
/// the crate (`paper.` and `trace.` are the benchmark's own).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.generate_s", "s"),
    ("traffic.messages", "count"),
    ("traffic.ns_per_message", "ns"),
    ("traffic.instantiate_s", "s"),
    ("topology.graph_build_s", "s"),
    ("topology.select_s", "s"),
    ("topology.shortcuts", "count"),
    ("sim.network_new_s", "s"),
    ("sim.network_new_bytes_per_router", "B"),
    ("sim.inject_s", "s"),
    ("sim.inject_ns_per_message", "ns"),
    ("sim.step_s", "s"),
    ("sim.step_ns_per_router_cycle", "ns"),
    ("sim.ns_per_flit_grant", "ns"),
    ("sim.drain_finalize_s", "s"),
    ("sim.cycles", "count"),
    ("sim.flit_grants", "count"),
    ("sim.grants_per_router_cycle", "ratio"),
    ("sim.messages_completed", "count"),
    ("sim.avg_hops", "count"),
    ("sim.rf_byte_share", "ratio"),
    ("sim.hottest_port_util", "ratio"),
    ("sim.saturated_points", "count"),
    ("sim.observer_overhead_frac", "ratio"),
    ("sim.telemetry_samples", "count"),
    ("sim.ledger_records", "count"),
    ("sim.faults_applied", "count"),
    ("sim.recovery_records", "count"),
    ("sim.shard_speedup", "ratio"),
    ("sim.shard_imbalance", "ratio"),
    ("sim.barrier_wait_frac", "ratio"),
    ("parallel.dispatch_ns", "ns"),
    ("power.model_s", "s"),
    ("core.profile_s", "s"),
    ("core.build_system_s", "s"),
    ("core.build_s", "s"),
    ("bench.plan_expand_s", "s"),
    ("bench.run_plan_s", "s"),
    ("bench.points_wall_s", "s"),
    ("bench.parallel_efficiency", "ratio"),
    ("bench.point_wall_p50_s", "s"),
    ("bench.point_wall_max_s", "s"),
    ("bench.render_json_s", "s"),
    ("bench.write_s", "s"),
    ("bench.artifact_bytes", "B"),
    ("bench.ledger_jsonl_bytes", "B"),
    ("paper.latency_err", "ratio"),
    ("paper.power_err", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Whether `name` is a legal metric, workload or unit-free identifier of
/// `BENCHMARK.json`: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Per-rep samples of each metric, by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Adds one rep's sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Adds one rep's samples.
    pub fn extend(&mut self, rep: impl IntoIterator<Item = (String, f64)>) {
        for (name, value) in rep {
            self.push(&name, value);
        }
    }

    /// The samples of `name` so far.
    pub fn of(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summarises the samples against a metric table.
    ///
    /// # Panics
    ///
    /// Panics when a sample was pushed under a name the table does not
    /// declare — a typo in the benchmark, never a property of a run.
    pub fn summarise(&self, table: &'static [(&'static str, &'static str)]) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name:?} is not declared"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                summary: Summary::of(self.of(name)),
            })
            .collect()
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median over the reps, with extremes and count.
    pub summary: Summary,
}

/// Prints the human-readable table and, as the last line, the result
/// object the driver reads. Non-finite values fail a check and read 0.
pub fn print_result(workload: &str, metrics: &[Metric], checks: &mut Checks) {
    let mut json = String::new();
    println!(
        "{:<36} {:>8} {:>16} {:>16} {:>16} {:>3}",
        workload, "unit", "median", "min", "max", "n"
    );
    for (i, m) in metrics.iter().enumerate() {
        let s = m.summary;
        checks.expect(s.median.is_finite(), || format!("{} is not finite", m.name));
        let value = if s.median.is_finite() { s.median } else { 0.0 };
        println!(
            "{:<36} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>3}",
            m.name, m.unit, value, s.min, s.max, s.n
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator() {
        for ok in [
            "wall_s",
            "sim.step_ns_per_router_cycle",
            "1st",
            "a-b",
            "mesh64_loaded_t2",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a%",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(name, _)| *name)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn summarise_fills_every_declared_metric() {
        let mut s = Samples::default();
        s.push("wall_s", 2.0);
        s.push("wall_s", 4.0);
        let metrics = s.summarise(END_TO_END);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].summary.median, 3.0);
        assert_eq!(metrics[1].summary.n, 0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn summarise_rejects_undeclared_names() {
        let mut s = Samples::default();
        s.push("wal_s", 1.0);
        let _ = s.summarise(END_TO_END);
    }
}
