//! End-to-end experiments: build → simulate → cost.

use crate::arch::{Architecture, SystemConfig};
use crate::builder::{build_system, elaborate, BuiltSystem, SharedDesign};
use crate::workload::WorkloadSpec;
use rfnoc_power::{AreaBreakdown, LinkWidth, NocPowerModel, PowerBreakdown};
use rfnoc_sim::{FaultPlan, FaultRates, Network, RunStats, SimConfig};
use rfnoc_topology::PairWeights;
use rfnoc_traffic::{Placement, TrafficConfig};
use std::fmt;
use std::time::{Duration, Instant};

/// Cycles of traffic generated to profile communication frequencies for
/// adaptive shortcut selection.
pub const DEFAULT_PROFILE_CYCLES: u64 = 20_000;

/// Where the communication-frequency profile for adaptive shortcut
/// selection comes from (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileSource {
    /// Regenerate the workload's message stream and count pairs directly —
    /// the paper's "assume that this profile is available" oracle.
    Generator,
    /// Simulate the workload on the baseline mesh with the network's
    /// per-pair event counters enabled and profile from those — the
    /// "information that can be readily collected by event counters in our
    /// network" path.
    EventCounters,
}

/// How faults are injected into an experiment's network (none by default).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultSpec {
    /// No fault injection.
    #[default]
    None,
    /// An explicit, pre-built event schedule.
    Plan(FaultPlan),
    /// A deterministic random plan generated against the *built* system's
    /// shortcut set (so adaptive architectures get faults on the shortcuts
    /// they actually selected), spread over the measurement window.
    Random {
        /// PRNG seed; the same seed and system always yield the same plan.
        seed: u64,
        /// Expected event counts.
        rates: FaultRates,
    },
    /// A deterministic *correlated* storm generated against the built
    /// system's shortcut set (see [`FaultPlan::correlated`]): a regional
    /// mesh-link storm, a glitch burst scaled by the experiment's offered
    /// load, and a band-down-during-retune race — the fault shapes a
    /// resilience campaign sweeps.
    Correlated {
        /// PRNG seed; the same seed and system always yield the same plan.
        seed: u64,
        /// Event-count scale; 0 disables the storm entirely.
        intensity: f64,
    },
}

/// Everything an experiment's design stage ([`Experiment::design`]) reads,
/// borrowed from the experiment: two experiments with equal keys select the
/// same shortcuts, so one [`SharedDesign`] serves both. Compared by value
/// with the `PartialEq` its fields already derive.
///
/// The architecture names the selector and the access points, the budget
/// how many shortcuts, the placement the fabric and — through the traffic
/// generators — where messages go. The adaptive architectures add what
/// their profile is drawn from.
#[derive(Debug, PartialEq)]
pub struct DesignKey<'a> {
    arch: &'a Architecture,
    shortcut_budget: usize,
    placement: &'a Placement,
    profile: Option<ProfileKey<'a>>,
}

/// The inputs of [`Experiment::gather_profile`].
#[derive(Debug, PartialEq)]
struct ProfileKey<'a> {
    workload: &'a WorkloadSpec,
    traffic: &'a TrafficConfig,
    cycles: u64,
    source: ProfileSource,
    /// The network the event counters sit in; the generator reads neither.
    counted_on: Option<(LinkWidth, &'a SimConfig)>,
}

/// A complete experiment: a system configuration exercised by a workload.
///
/// # Example
///
/// ```no_run
/// use rfnoc::{Architecture, Experiment, SystemConfig, WorkloadSpec};
/// use rfnoc_power::LinkWidth;
/// use rfnoc_traffic::TraceKind;
///
/// let system = SystemConfig::new(Architecture::Baseline, LinkWidth::B16);
/// let report = Experiment::new(system, WorkloadSpec::Trace(TraceKind::Uniform)).run();
/// println!("latency {:.1} cycles, power {:.3} W", report.avg_latency(), report.total_power_w());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// The architecture/width/simulator configuration.
    pub system: SystemConfig,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Traffic generator parameters.
    pub traffic: TrafficConfig,
    /// Cycles of traffic used to build the adaptive-selection profile.
    pub profile_cycles: u64,
    /// How adaptive profiles are obtained.
    pub profile_source: ProfileSource,
    /// Component placement (defaults to the paper's 10×10 layout; any
    /// even-sided grid ≥6×6 works, enabling mesh-scaling studies).
    pub placement: Placement,
    /// Fault injection applied to the simulated network.
    pub faults: FaultSpec,
}

impl Experiment {
    /// An experiment with paper-default traffic parameters.
    pub fn new(system: SystemConfig, workload: WorkloadSpec) -> Self {
        Self {
            system,
            workload,
            traffic: TrafficConfig::default(),
            profile_cycles: DEFAULT_PROFILE_CYCLES,
            profile_source: ProfileSource::Generator,
            placement: Placement::paper_10x10(),
            faults: FaultSpec::None,
        }
    }

    /// Overrides the traffic parameters.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = traffic;
        self
    }

    /// Injects an explicit fault schedule into the simulated network.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultSpec::Plan(plan);
        self
    }

    /// Injects a seed-driven random fault plan, generated against the
    /// built system's shortcut set over the measurement window.
    #[must_use]
    pub fn with_random_faults(mut self, seed: u64, rates: FaultRates) -> Self {
        self.faults = FaultSpec::Random { seed, rates };
        self
    }

    /// Injects a seed-driven correlated fault storm (regional mesh-link
    /// storm, load-scaled glitch burst, band-down-during-retune race),
    /// generated against the built system's shortcut set.
    #[must_use]
    pub fn with_correlated_faults(mut self, seed: u64, intensity: f64) -> Self {
        self.faults = FaultSpec::Correlated { seed, intensity };
        self
    }

    /// One-line description of the design point without building or
    /// running anything — used by sweep runners for progress reporting.
    pub fn summary(&self) -> String {
        let dims = self.placement.dims();
        let mut s = format!(
            "{} @{} on {} ({}x{}, {} msg/node/cyc",
            self.system.arch.name(),
            self.system.link_width,
            self.workload.name(),
            dims.width(),
            dims.height(),
            self.traffic.injection_rate,
        );
        if !matches!(self.faults, FaultSpec::None) {
            s.push_str(", faults");
        }
        s.push(')');
        s
    }

    /// Rough relative cost of running this experiment — simulated cycles
    /// (profiling included for the adaptive architectures) scaled by the
    /// router count. Parallel sweep runners use it to schedule the most
    /// expensive points first; the absolute value is meaningless.
    pub fn cost_estimate(&self) -> f64 {
        let sim = &self.system.sim;
        let mut cycles = sim.warmup_cycles + sim.measure_cycles + sim.drain_cycles;
        if self.system.arch.is_adaptive() {
            cycles += self.profile_cycles;
        }
        cycles as f64 * self.placement.dims().nodes() as f64
    }

    /// Resolves the fault specification into a concrete plan for `built`.
    fn resolve_faults(&self, built: &BuiltSystem) -> FaultPlan {
        match &self.faults {
            FaultSpec::None => FaultPlan::default(),
            FaultSpec::Plan(plan) => plan.clone(),
            FaultSpec::Random { seed, rates } => {
                let sim = &self.system.sim;
                let start = sim.warmup_cycles;
                let end = start + sim.measure_cycles.max(1);
                FaultPlan::random(
                    *seed,
                    &self.placement.fabric(),
                    &built.shortcuts,
                    *rates,
                    start..end,
                )
            }
            FaultSpec::Correlated { seed, intensity } => {
                let sim = &self.system.sim;
                let start = sim.warmup_cycles;
                let end = start + sim.measure_cycles.max(1);
                // The glitch burst scales with the offered load, relative
                // to the paper-default injection rate.
                let offered = self.traffic.injection_rate / 0.008;
                FaultPlan::correlated(
                    *seed,
                    &self.placement.fabric(),
                    &built.shortcuts,
                    *intensity,
                    offered,
                    start..end,
                )
            }
        }
    }

    /// Obtains the adaptive-selection profile via the configured source.
    fn gather_profile(&self, placement: &Placement) -> PairWeights {
        match self.profile_source {
            ProfileSource::Generator => {
                self.workload.profile(placement, &self.traffic, self.profile_cycles)
            }
            ProfileSource::EventCounters => {
                // Profile on the baseline mesh with the hardware counters
                // enabled for a short warmless window.
                let mut sim = self.system.sim.clone();
                sim.warmup_cycles = 0;
                sim.measure_cycles = self.profile_cycles;
                sim.drain_cycles = 0;
                sim.collect_pair_counts = true;
                let profiling_system =
                    SystemConfig::new(Architecture::Baseline, self.system.link_width)
                        .with_sim(sim);
                let built = build_system(&profiling_system, placement, None);
                let mut network = Network::new(built.network);
                let mut workload = self.workload.instantiate(placement, &self.traffic);
                let stats = network.run(workload.as_mut());
                stats.pair_weights()
            }
        }
    }

    /// What the design stage of this experiment depends on, or `None` for
    /// an architecture that selects no shortcuts and so has no such stage.
    pub fn design_key(&self) -> Option<DesignKey<'_>> {
        let arch = &self.system.arch;
        arch.selects_shortcuts().then(|| DesignKey {
            arch,
            shortcut_budget: self.system.shortcut_budget,
            placement: &self.placement,
            profile: arch.is_adaptive().then(|| ProfileKey {
                workload: &self.workload,
                traffic: &self.traffic,
                cycles: self.profile_cycles,
                source: self.profile_source,
                counted_on: (self.profile_source == ProfileSource::EventCounters)
                    .then_some((self.system.link_width, &self.system.sim)),
            }),
        })
    }

    /// The design stage: profiles the workload when the architecture is
    /// adaptive and selects the shortcuts. The result serves every
    /// experiment whose [`Experiment::design_key`] equals this one's.
    pub fn design(&self) -> SharedDesign {
        let profile = self
            .system
            .arch
            .is_adaptive()
            .then(|| self.gather_profile(&self.placement));
        SharedDesign::select(&self.system, &self.placement, profile.as_ref())
    }

    /// Elaborates the system (selecting adaptive shortcuts from a traffic
    /// profile when needed) without running it.
    pub fn build(&self) -> BuiltSystem {
        elaborate(&self.system, &self.placement, &self.design())
    }

    /// Builds, simulates, and costs the experiment.
    pub fn run(&self) -> RunReport {
        let start = Instant::now();
        let design = self.design();
        let build_wall = start.elapsed();
        RunReport { build_wall, ..self.run_on(&design) }
    }

    /// [`Experiment::run`] after the design stage: elaborates the system
    /// around `design`, simulates and costs it. `design` must come from
    /// [`Experiment::design`] of an experiment with this one's
    /// architecture, shortcut budget and placement. With an equal
    /// [`Experiment::design_key`] the report is the one [`Experiment::run`]
    /// gives. With another workload's profile behind it, the report is
    /// this workload on shortcuts tuned for that one — a system that keeps
    /// its shortcuts across a change of application (the frozen row of
    /// `run_all phased_workloads`). The report's `build_wall` is zero, for
    /// the caller to charge the stage to whichever run paid for it.
    pub fn run_on(&self, design: &SharedDesign) -> RunReport {
        let placement = self.placement.clone();
        let built = elaborate(&self.system, &placement, design);
        let spec = built.network.clone().with_fault_plan(self.resolve_faults(&built));
        let network_start = Instant::now();
        let mut network = Network::new(spec);
        let network_wall = network_start.elapsed();
        // Instantiate against the *built* shortcut set so the adversarial
        // campaign profile targets the overlay actually selected.
        let mut workload =
            self.workload.instantiate_for(&placement, &self.traffic, &built.shortcuts);
        let stats = network.run(workload.as_mut());
        let model = NocPowerModel::paper_32nm();
        let power = model.power(&built.design, &stats.activity);
        let area = model.area(&built.design);
        RunReport {
            system: self.system.arch.name(),
            workload: self.workload.name(),
            stats,
            power,
            area,
            shortcuts: built.shortcuts.len(),
            build_wall: Duration::ZERO,
            network_wall,
        }
    }
}

/// Results of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture name.
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// Simulation statistics.
    pub stats: RunStats,
    /// Average NoC power.
    pub power: PowerBreakdown,
    /// NoC active-layer area.
    pub area: AreaBreakdown,
    /// Shortcuts the design selected (none without an RF or wire overlay).
    pub shortcuts: usize,
    /// Host time of the design stage — profiling and shortcut selection,
    /// [`Experiment::design`]. Zero when the run was handed a design another
    /// run had paid for; an architecture without shortcuts has no such
    /// stage, and a plan reports zero for it too. Not a simulated quantity:
    /// it differs from run to run.
    pub build_wall: Duration,
    /// Host time in `Network::new`: routes, base routes and router
    /// wiring. Not a simulated quantity either.
    pub network_wall: Duration,
}

impl RunReport {
    /// Average per-message network latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.stats.avg_message_latency()
    }

    /// Average per-flit network latency in cycles (the paper's primary
    /// latency metric).
    pub fn avg_flit_latency(&self) -> f64 {
        self.stats.avg_flit_latency()
    }

    /// Total NoC power in watts.
    pub fn total_power_w(&self) -> f64 {
        self.power.total_w()
    }

    /// Total NoC active-layer area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.area.total_mm2()
    }

    /// `(latency, power)` of this run normalised to a baseline run — the
    /// presentation used by Figures 7, 8, 9, and 10.
    pub fn normalized_to(&self, baseline: &RunReport) -> (f64, f64) {
        (
            self.avg_latency() / baseline.avg_latency(),
            self.total_power_w() / baseline.total_power_w(),
        )
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {}: latency {:.1} cyc, power {:.3} W, area {:.2} mm2{}",
            self.system,
            self.workload,
            self.avg_latency(),
            self.total_power_w(),
            self.total_area_mm2(),
            if self.stats.saturated { " [SATURATED]" } else { "" }
        )?;
        if let Some(health) = &self.stats.health {
            write!(f, " [WATCHDOG: {health}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_traffic::TraceKind;

    fn exp(arch: Architecture) -> Experiment {
        use rfnoc_power::LinkWidth;
        Experiment::new(SystemConfig::new(arch, LinkWidth::B16), WorkloadSpec::Trace(TraceKind::Uniform))
    }

    #[test]
    fn summary_is_cheap_and_descriptive() {
        let s = exp(Architecture::Baseline).summary();
        assert!(s.contains("Mesh Baseline"), "{s}");
        assert!(s.contains("Uniform"), "{s}");
        assert!(s.contains("10x10"), "{s}");
    }

    #[test]
    fn cost_estimate_orders_designs() {
        let base = exp(Architecture::Baseline).cost_estimate();
        let adaptive =
            exp(Architecture::AdaptiveShortcuts { access_points: 50 }).cost_estimate();
        // Adaptive pays for its profiling pass on top of the same window.
        assert!(adaptive > base);
        let mut shorter = exp(Architecture::Baseline);
        shorter.system.sim.measure_cycles /= 2;
        assert!(shorter.cost_estimate() < base);
    }

    #[test]
    fn experiments_compare_by_value() {
        assert_eq!(exp(Architecture::Baseline), exp(Architecture::Baseline));
        assert_ne!(exp(Architecture::Baseline), exp(Architecture::StaticShortcuts));
    }

    /// `run_on` a design selected from another workload's profile: over a
    /// three-application sequence, retuning for every phase does not lose
    /// to keeping the shortcuts selected for the first.
    #[test]
    fn retuning_per_phase_does_not_lose_to_a_frozen_design() {
        let mut sim = SimConfig::paper_baseline();
        sim.warmup_cycles = 500;
        sim.measure_cycles = 4_000;
        sim.drain_cycles = 8_000;
        let system = SystemConfig::new(
            Architecture::AdaptiveShortcuts { access_points: 50 },
            LinkWidth::B16,
        )
        .with_sim(sim);
        let phases = [TraceKind::Hotspot1, TraceKind::BiDf, TraceKind::Hotspot4].map(|trace| {
            Experiment {
                profile_cycles: 3_000,
                ..Experiment::new(system.clone(), WorkloadSpec::Trace(trace))
            }
        });
        let frozen_design = phases[0].design();
        let mean = |run: &dyn Fn(&Experiment) -> RunReport| {
            phases.iter().map(|p| run(p).avg_latency()).sum::<f64>() / phases.len() as f64
        };
        let retuned = mean(&Experiment::run);
        let frozen = mean(&|p| p.run_on(&frozen_design));
        assert!(
            retuned <= frozen + 0.5,
            "retuned ({retuned:.2}) must not lose to frozen ({frozen:.2})"
        );
    }
}
