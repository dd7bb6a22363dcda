//! Phased (multi-application) experiments with per-phase reconfiguration.
//!
//! The paper reconfigures the RF-I once per application ("we assume a
//! coarse-grain approach to arbitration, where shortcuts are established
//! for the entire duration of an application's execution", §3.2; the
//! routing-table update costs 99 cycles, overlapped with the context
//! switch). This module makes that executable: a [`PhasedExperiment`] runs
//! a sequence of application phases on one architecture under one of three
//! reconfiguration policies, so the benefit of *adapting* (versus freezing
//! one tuning) can be measured directly.

use crate::arch::SystemConfig;
use crate::builder::build_system;
use crate::experiment::RunReport;
use crate::workload::WorkloadSpec;
use rfnoc_power::NocPowerModel;
use rfnoc_sim::Network;
use rfnoc_traffic::{Placement, TrafficConfig};
use std::time::Instant;

/// When the adaptive architectures retune their shortcuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigPolicy {
    /// Retune for every phase (the paper's per-application
    /// reconfiguration).
    PerPhase,
    /// Tune once, for the first phase's profile, and keep that set.
    FreezeFirst,
}

/// A multi-phase experiment.
#[derive(Debug, Clone)]
pub struct PhasedExperiment {
    /// The architecture/width/simulator configuration.
    pub system: SystemConfig,
    /// The application phases, in execution order.
    pub phases: Vec<WorkloadSpec>,
    /// Reconfiguration policy for adaptive architectures.
    pub policy: ReconfigPolicy,
    /// Traffic generator parameters.
    pub traffic: TrafficConfig,
    /// Cycles of traffic used to profile each phase.
    pub profile_cycles: u64,
}

/// Results of a phased run.
#[derive(Debug, Clone)]
pub struct PhasedReport {
    /// Per-phase reports, in order.
    pub phases: Vec<RunReport>,
    /// Number of reconfigurations performed (phase transitions where the
    /// shortcut set was re-selected).
    pub reconfigurations: usize,
    /// Total routing-table update cost charged (cycles).
    pub reconfig_cycles: u64,
}

impl PhasedReport {
    /// Mean of the per-phase average latencies.
    pub fn avg_latency(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases.iter().map(RunReport::avg_latency).sum::<f64>() / self.phases.len() as f64
    }

    /// Mean of the per-phase power draws.
    pub fn avg_power_w(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases.iter().map(RunReport::total_power_w).sum::<f64>()
            / self.phases.len() as f64
    }
}

impl PhasedExperiment {
    /// A phased experiment with paper-default traffic.
    pub fn new(system: SystemConfig, phases: Vec<WorkloadSpec>, policy: ReconfigPolicy) -> Self {
        Self {
            system,
            phases,
            policy,
            traffic: TrafficConfig::default(),
            profile_cycles: crate::experiment::DEFAULT_PROFILE_CYCLES,
        }
    }

    /// Runs all phases.
    ///
    /// # Panics
    ///
    /// Panics if there are no phases.
    pub fn run(&self) -> PhasedReport {
        assert!(!self.phases.is_empty(), "a phased experiment needs phases");
        let placement = Placement::paper_10x10();
        let model = NocPowerModel::paper_32nm();
        let adaptive = self.system.arch.is_adaptive();
        let mut frozen_profile = None;
        let mut reports = Vec::with_capacity(self.phases.len());
        let mut reconfigurations = 0usize;
        for (i, phase) in self.phases.iter().enumerate() {
            let build_start = Instant::now();
            let profile = if adaptive {
                match self.policy {
                    ReconfigPolicy::PerPhase => {
                        if i > 0 {
                            reconfigurations += 1;
                        }
                        Some(phase.profile(&placement, &self.traffic, self.profile_cycles))
                    }
                    ReconfigPolicy::FreezeFirst => {
                        if frozen_profile.is_none() {
                            frozen_profile = Some(phase.profile(
                                &placement,
                                &self.traffic,
                                self.profile_cycles,
                            ));
                        }
                        frozen_profile.clone()
                    }
                }
            } else {
                None
            };
            let built = build_system(&self.system, &placement, profile.as_ref());
            let build_wall = build_start.elapsed();
            let network_start = Instant::now();
            let mut network = Network::new(built.network.clone());
            let network_wall = network_start.elapsed();
            let mut workload = phase.instantiate(&placement, &self.traffic);
            let stats = network.run(workload.as_mut());
            let power = model.power(&built.design, &stats.activity);
            let area = model.area(&built.design);
            reports.push(RunReport {
                system: self.system.arch.name(),
                workload: phase.name(),
                stats,
                power,
                area,
                shortcuts: built.shortcuts.len(),
                build_wall,
                network_wall,
            });
        }
        PhasedReport {
            phases: reports,
            reconfigurations,
            reconfig_cycles: reconfigurations as u64 * self.system.sim.reconfig_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use rfnoc_power::LinkWidth;
    use rfnoc_sim::SimConfig;
    use rfnoc_traffic::TraceKind;

    fn quick_system(arch: Architecture) -> SystemConfig {
        let mut sim = SimConfig::paper_baseline();
        sim.warmup_cycles = 500;
        sim.measure_cycles = 4_000;
        sim.drain_cycles = 8_000;
        SystemConfig::new(arch, LinkWidth::B16).with_sim(sim)
    }

    fn phases() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Trace(TraceKind::Hotspot1),
            WorkloadSpec::Trace(TraceKind::BiDf),
            WorkloadSpec::Trace(TraceKind::Hotspot4),
        ]
    }

    #[test]
    fn per_phase_reconfiguration_counts() {
        let exp = PhasedExperiment::new(
            quick_system(Architecture::AdaptiveShortcuts { access_points: 50 }),
            phases(),
            ReconfigPolicy::PerPhase,
        );
        let mut exp = exp;
        exp.profile_cycles = 3_000;
        let report = exp.run();
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.reconfigurations, 2, "one per phase transition");
        assert_eq!(report.reconfig_cycles, 2 * 99);
    }

    #[test]
    fn retuning_beats_frozen_tuning_across_phases() {
        let system = quick_system(Architecture::AdaptiveShortcuts { access_points: 50 });
        let mut per_phase =
            PhasedExperiment::new(system.clone(), phases(), ReconfigPolicy::PerPhase);
        per_phase.profile_cycles = 3_000;
        let mut frozen = PhasedExperiment::new(system, phases(), ReconfigPolicy::FreezeFirst);
        frozen.profile_cycles = 3_000;
        let a = per_phase.run();
        let b = frozen.run();
        assert!(
            a.avg_latency() <= b.avg_latency() + 0.5,
            "retuned ({:.2}) must not lose to frozen ({:.2})",
            a.avg_latency(),
            b.avg_latency()
        );
    }

    #[test]
    fn static_architecture_never_reconfigures() {
        let exp = PhasedExperiment::new(
            quick_system(Architecture::StaticShortcuts),
            phases(),
            ReconfigPolicy::PerPhase,
        );
        let report = exp.run();
        assert_eq!(report.reconfigurations, 0);
        assert_eq!(report.reconfig_cycles, 0);
        assert!(report.avg_latency() > 0.0);
        assert!(report.avg_power_w() > 0.0);
    }

    #[test]
    #[should_panic(expected = "needs phases")]
    fn empty_phases_rejected() {
        PhasedExperiment::new(
            quick_system(Architecture::Baseline),
            Vec::new(),
            ReconfigPolicy::PerPhase,
        )
        .run();
    }
}
