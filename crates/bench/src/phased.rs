//! Per-application reconfiguration (§3.2): the paper retunes the RF-I
//! shortcuts for each application, charging a routing-table update
//! (`SimConfig::reconfig_cycles`, 99 cycles) overlapped with the context
//! switch. [`run_phases`] runs a sequence of application phases, each as
//! an [`Experiment`], and counts the reconfigurations the sequence pays;
//! [`phased_workloads`] is the `run_all` table over three strategies.

use crate::print_table;
use crate::suite::{adaptive50, SuiteOptions};
use crate::tables::system16;
use rfnoc::{Architecture, Experiment, RunReport, WorkloadSpec};
use rfnoc_traffic::{AppProfile, TraceKind};

/// When an adaptive design retunes its shortcuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retune {
    /// Select a new set for every phase.
    PerPhase,
    /// Keep the set selected for the first phase.
    FreezeFirst,
}

/// The reports of a phase sequence and what its reconfigurations cost.
pub(crate) struct PhasedRun {
    /// One report a phase, in order.
    pub(crate) reports: Vec<RunReport>,
    /// Phase changes at which the shortcut set was re-selected.
    pub(crate) reconfigurations: usize,
    /// Routing-table update cycles charged for them.
    pub(crate) reconfig_cycles: u64,
}

/// Runs `phases` in order on their (shared) system. A design that selects
/// no shortcuts from a profile never reconfigures; an adaptive one
/// reconfigures at every phase change when retuned, and runs every phase
/// on the first phase's design when frozen.
pub(crate) fn run_phases(phases: &[Experiment], retune: Retune) -> PhasedRun {
    let system = &phases[0].system;
    let adaptive = system.arch.is_adaptive();
    let reports: Vec<RunReport> = if adaptive && retune == Retune::FreezeFirst {
        let frozen = phases[0].design();
        phases.iter().map(|p| p.run_on(&frozen)).collect()
    } else {
        phases.iter().map(Experiment::run).collect()
    };
    let reconfigurations =
        if adaptive && retune == Retune::PerPhase { phases.len() - 1 } else { 0 };
    PhasedRun {
        reports,
        reconfigurations,
        reconfig_cycles: reconfigurations as u64 * system.sim.reconfig_cycles,
    }
}

/// Five phases with different communication patterns under three
/// strategies: the adaptive design retuned per phase; the adaptive design
/// frozen on the set selected for the first phase; and the static set.
pub(crate) fn phased_workloads(opts: &SuiteOptions) {
    println!("# Phased workloads: per-application RF-I reconfiguration");
    let phases = [
        WorkloadSpec::Trace(TraceKind::Hotspot1),
        WorkloadSpec::App(AppProfile::bodytrack()),
        WorkloadSpec::Trace(TraceKind::BiDf),
        WorkloadSpec::App(AppProfile::x264()),
        WorkloadSpec::Trace(TraceKind::Hotspot4),
    ];
    let row = |name: &str, arch: Architecture, retune: Retune| {
        eprintln!("running strategy: {name} ...");
        let system = system16(arch, opts);
        let experiments: Vec<Experiment> =
            phases.iter().map(|p| Experiment::new(system.clone(), p.clone())).collect();
        let run = run_phases(&experiments, retune);
        eprintln!(
            "  {} reconfigurations, {} routing-table update cycles",
            run.reconfigurations, run.reconfig_cycles
        );
        let latencies: Vec<f64> = run.reports.iter().map(RunReport::avg_latency).collect();
        let mut row = vec![name.to_string()];
        row.extend(latencies.iter().map(|l| format!("{l:.1}")));
        row.push(format!("{:.1}", latencies.iter().sum::<f64>() / latencies.len() as f64));
        row.push(run.reconfigurations.to_string());
        row
    };
    let rows = [
        row("adaptive, retuned per phase", adaptive50(), Retune::PerPhase),
        row("adaptive, frozen after phase 1", adaptive50(), Retune::FreezeFirst),
        row("static shortcuts", Architecture::StaticShortcuts, Retune::PerPhase),
    ];
    let mut headers: Vec<String> = vec!["strategy".into()];
    headers.extend(phases.iter().map(WorkloadSpec::name));
    headers.push("mean".into());
    headers.push("reconfigs".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("Per-phase average latency (cycles)", &header_refs, &rows);
    println!(
        "\nExpectation: retuning tracks each phase's hotspots; the frozen\n\
         tuning decays on later phases; 99 cycles per reconfiguration is\n\
         negligible against millions of execution cycles."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc::SystemConfig;
    use rfnoc_power::LinkWidth;
    use rfnoc_sim::SimConfig;

    fn quick_phases(arch: Architecture) -> Vec<Experiment> {
        let mut sim = SimConfig::paper_baseline();
        sim.warmup_cycles = 500;
        sim.measure_cycles = 4_000;
        sim.drain_cycles = 8_000;
        let system = SystemConfig::new(arch, LinkWidth::B16).with_sim(sim);
        [TraceKind::Hotspot1, TraceKind::BiDf, TraceKind::Hotspot4]
            .map(|trace| Experiment {
                profile_cycles: 3_000,
                ..Experiment::new(system.clone(), WorkloadSpec::Trace(trace))
            })
            .to_vec()
    }

    #[test]
    fn per_phase_reconfiguration_counts() {
        let phases = quick_phases(adaptive50());
        let retuned = run_phases(&phases, Retune::PerPhase);
        assert_eq!(retuned.reports.len(), 3);
        assert_eq!(retuned.reconfigurations, 2, "one per phase transition");
        assert_eq!(retuned.reconfig_cycles, 2 * 99);
        let frozen = run_phases(&phases, Retune::FreezeFirst);
        assert_eq!(frozen.reports.len(), 3);
        assert_eq!(frozen.reconfigurations, 0);
        assert_eq!(frozen.reconfig_cycles, 0);
    }

    #[test]
    fn static_architecture_never_reconfigures() {
        let run = run_phases(&quick_phases(Architecture::StaticShortcuts), Retune::PerPhase);
        assert_eq!(run.reconfigurations, 0);
        assert_eq!(run.reconfig_cycles, 0);
        for report in &run.reports {
            assert!(report.avg_latency() > 0.0);
            assert!(report.total_power_w() > 0.0);
        }
    }
}
