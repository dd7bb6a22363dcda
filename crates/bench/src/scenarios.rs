//! Canonical instrumented operating points shared by the observability
//! binaries (`telemetry_report`, `profile_report`).
//!
//! Both reports probe the same fig7-style points on the paper's 10×10
//! system — a low load well under the knee, a load comfortably past the
//! 16B uniform saturation knee, and a mid-run whole-band fault — so their
//! artifacts are comparable run-to-run and report-to-report. This module
//! is the single definition of those points.

use rfnoc::{Architecture, Experiment, SystemConfig, WorkloadSpec};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{FaultEvent, FaultPlan, TelemetryConfig};
use rfnoc_traffic::{TraceKind, TrafficConfig};

/// Injection rate (messages/node/cycle) of the low-load operating point:
/// far below the knee, so queueing is negligible and latency is mostly
/// pipeline.
pub const LOW_LOAD_RATE: f64 = 0.008;

/// Injection rate of the saturated operating point: comfortably past the
/// 16B uniform saturation knee, where contention dominates latency.
pub const SATURATED_RATE: f64 = 0.14;

/// Simulation windows: `(warmup, measure, drain, telemetry interval)`.
pub fn windows(quick: bool) -> (u64, u64, u64, u64) {
    if quick {
        (500, 4_000, 10_000, 250)
    } else {
        (2_000, 20_000, 20_000, 1_000)
    }
}

/// The cycle at which the canonical fault scenario kills the RF band:
/// the middle of the measurement window.
pub fn fault_cycle(quick: bool) -> u64 {
    let (warmup, measure, _, _) = windows(quick);
    warmup + measure / 2
}

/// An instrumented experiment at one operating point: `arch` at 16B on
/// the Uniform trace, telemetry sampling every interval. `profile`
/// additionally enables the per-hop delay-attribution channel.
pub fn instrumented_experiment(
    arch: Architecture,
    quick: bool,
    injection_rate: f64,
    profile: bool,
) -> Experiment {
    let (warmup, measure, drain, interval) = windows(quick);
    let mut system = SystemConfig::new(arch, LinkWidth::B16);
    system.sim.warmup_cycles = warmup;
    system.sim.measure_cycles = measure;
    system.sim.drain_cycles = drain;
    system.sim.telemetry = Some(if profile {
        TelemetryConfig::profiling(interval)
    } else {
        TelemetryConfig::every(interval)
    });
    let traffic = TrafficConfig { injection_rate, ..TrafficConfig::default() };
    Experiment::new(system, WorkloadSpec::Trace(TraceKind::Uniform)).with_traffic(traffic)
}

/// The canonical fault scenario: `arch` at [`LOW_LOAD_RATE`] with the
/// whole RF band failing at [`fault_cycle`].
pub fn fault_experiment(arch: Architecture, quick: bool, profile: bool) -> Experiment {
    instrumented_experiment(arch, quick, LOW_LOAD_RATE, profile)
        .with_fault_plan(FaultPlan::new(vec![(fault_cycle(quick), FaultEvent::BandDown)]))
}

/// Per-cycle flit capacity of the RF band under the paper baseline, for
/// normalising RF-port utilization.
pub fn rf_capacity() -> u32 {
    rfnoc_sim::SimConfig::paper_baseline().rf_flits_per_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operating_points_are_ordered() {
        let low = instrumented_experiment(Architecture::Baseline, true, LOW_LOAD_RATE, false);
        let sat = instrumented_experiment(Architecture::Baseline, true, SATURATED_RATE, false);
        assert!(low.traffic.injection_rate < sat.traffic.injection_rate);
        for quick in [true, false] {
            let (warmup, measure, _, interval) = windows(quick);
            assert!(fault_cycle(quick) > warmup);
            assert!(fault_cycle(quick) < warmup + measure);
            assert!(interval > 0);
        }
    }

    #[test]
    fn profile_flag_selects_the_profiling_channel() {
        let plain = instrumented_experiment(Architecture::StaticShortcuts, true, 0.01, false);
        let prof = instrumented_experiment(Architecture::StaticShortcuts, true, 0.01, true);
        let profile = |e: &Experiment| e.system.sim.telemetry.as_ref().unwrap().profile;
        assert!(!profile(&plain));
        assert!(profile(&prof));
    }
}
