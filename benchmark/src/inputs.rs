//! The six workloads: what each feeds the product, derived from `--seed`.
//!
//! The names are fixed — later issues cite them. Sizes are chosen so that
//! one rep (inputs → costed results) takes 1.5–5 s on a 2-vCPU machine and
//! several fit into one `--seconds` budget; `smoke` shrinks every workload
//! to well under a second on the same code paths.

use rfnoc::{Architecture, Experiment, SystemConfig, WorkloadSpec};
use rfnoc_bench::campaign::{CampaignSpec, CAMPAIGN_FAULT_SEED};
use rfnoc_bench::plan::{labeled, BaselineSel, Design, Plan, SweepSpec};
use rfnoc_bench::suite::{self, SuiteOptions};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{LedgerConfig, SimConfig, TelemetryConfig};
use rfnoc_topology::{FabricSpec, GridDims};
use rfnoc_traffic::{Placement, TraceKind, TrafficConfig};

/// Workload names, in report order.
pub const WORKLOADS: [&str; 6] = [
    "paper10_fig7",
    "campaign10_observed",
    "mesh10_saturated",
    "mesh64_loaded_t1",
    "mesh64_loaded_t2",
    "rf64_build",
];

/// Runner threads on the two sweep workloads. Fixed, not `nproc`-derived,
/// so two machines run the same schedule.
pub const SWEEP_JOBS: usize = 2;

/// The seeds one `--seed` value expands to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `TrafficConfig::seed` of every experiment.
    pub traffic: u64,
    /// Master seeds of the campaign's traffic profiles.
    pub campaign: [u64; 2],
    /// Seed of the campaign's correlated fault plans.
    pub fault: u64,
}

impl Seeds {
    /// Seed 0 keeps the repo's paper seeds; any other value derives all
    /// three streams from it.
    pub fn new(seed: u64) -> Self {
        if seed == 0 {
            Self {
                traffic: TrafficConfig::default().seed,
                campaign: [1, 2],
                fault: CAMPAIGN_FAULT_SEED,
            }
        } else {
            Self {
                traffic: splitmix(seed, 1),
                campaign: [seed, seed.wrapping_add(1)],
                fault: splitmix(seed, 2),
            }
        }
    }
}

fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one workload runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    /// One or more stand-alone experiments, run back to back in a rep.
    Single(Vec<Experiment>),
    /// A plan executed by the sweep runner on [`SWEEP_JOBS`] threads.
    Sweep {
        /// The points.
        plan: Plan,
        /// Whether the runner streams its ledger to disk (which also turns
        /// the engine ledger on in every point).
        stream_ledger: bool,
    },
}

fn sim_windows(warmup: u64, measure: u64, drain: u64) -> SimConfig {
    let mut sim = SimConfig::paper_baseline();
    sim.warmup_cycles = warmup;
    sim.measure_cycles = measure;
    sim.drain_cycles = drain;
    sim
}

fn uniform_experiment(
    arch: Architecture,
    sim: SimConfig,
    placement: Placement,
    injection_rate: f64,
    seed: u64,
) -> Experiment {
    let system = SystemConfig::new(arch, LinkWidth::B16).with_sim(sim);
    let mut exp = Experiment::new(system, WorkloadSpec::Trace(TraceKind::Uniform));
    exp.placement = placement;
    exp.traffic = TrafficConfig {
        injection_rate,
        seed,
        ..TrafficConfig::default()
    };
    exp
}

/// The big grid: 64×64, or 16×16 in smoke mode.
fn big_grid(smoke: bool) -> GridDims {
    let side = if smoke { 16 } else { 64 };
    GridDims::new(side, side)
}

fn mesh10_saturated(seeds: Seeds, smoke: bool) -> Inputs {
    // 0.25 msg/node/cycle is 31x the paper's rate and twice what the mesh
    // delivers: every VC stays occupied and source queues grow, so
    // completion stays near one half by design. A saturated wormhole network
    // is chaotic — one traffic seed moves latency by 5 % — so a rep runs
    // three seeds and the simulated metrics are their means.
    let sim = if smoke {
        sim_windows(100, 300, 300)
    } else {
        sim_windows(1_000, 2_000, 500)
    };
    Inputs::Single(
        (0..3)
            .map(|stream| {
                uniform_experiment(
                    Architecture::Baseline,
                    sim.clone(),
                    Placement::paper_10x10(),
                    0.25,
                    splitmix(seeds.traffic, stream),
                )
            })
            .collect(),
    )
}

fn mesh64_loaded(seeds: Seeds, smoke: bool, threads: usize) -> Inputs {
    // 0.01 msg/node/cycle is about 70 % of the 64x64 mesh's uniform-traffic
    // capacity: loaded, unsaturated, everything drains.
    let sim = if smoke {
        sim_windows(50, 100, 1_000)
    } else {
        sim_windows(400, 400, 3_000)
    };
    Inputs::Single(vec![uniform_experiment(
        Architecture::Baseline,
        sim.with_threads(threads),
        Placement::quadrant_clusters_on(FabricSpec::mesh(big_grid(smoke))),
        0.01,
        seeds.traffic,
    )])
}

fn rf64_build(seeds: Seeds, smoke: bool) -> Inputs {
    let dims = big_grid(smoke);
    let sim = if smoke {
        sim_windows(50, 200, 2_000)
    } else {
        sim_windows(500, 6_000, 10_000)
    };
    // Total offered load held at the paper's, as `mesh_scaling` does, so
    // the engine has little to do and set-up dominates.
    let rate = 0.008 * 100.0 / dims.nodes() as f64;
    Inputs::Single(
        [FabricSpec::mesh(dims), FabricSpec::ring_mesh(dims, 4)]
            .into_iter()
            .map(|fabric| {
                uniform_experiment(
                    Architecture::StaticShortcuts,
                    sim.clone(),
                    Placement::quadrant_clusters_on(fabric),
                    rate,
                    seeds.traffic,
                )
            })
            .collect(),
    )
}

/// Applies the seed and the measurement windows to every point of a plan
/// built by the product's own plan builders.
fn resize(plan: &mut Plan, seeds: Seeds, warmup: u64, measure: u64, profile_cycles: u64) {
    for point in &mut plan.points {
        let exp = &mut point.experiment;
        exp.traffic.seed = seeds.traffic;
        exp.system.sim.warmup_cycles = warmup;
        exp.system.sim.measure_cycles = measure;
        exp.profile_cycles = profile_cycles;
    }
}

fn paper10_fig7(seeds: Seeds, smoke: bool) -> Inputs {
    // A quarter of the paper's 10k + 100k windows, so that several reps of
    // the 28-point sweep fit into one run; profiling stays at its default.
    let (warmup, measure, profile_cycles) = if smoke {
        (100, 400, 500)
    } else {
        (2_500, 25_000, rfnoc::DEFAULT_PROFILE_CYCLES)
    };
    let fig7 = suite::figure("fig7").expect("the suite registers fig7");
    let mut plan = (fig7.build)(&SuiteOptions { quick: false });
    resize(&mut plan, seeds, warmup, measure, profile_cycles);
    Inputs::Sweep {
        plan,
        stream_ledger: false,
    }
}

fn campaign10_observed(seeds: Seeds, smoke: bool) -> Inputs {
    let (warmup, measure, profile_cycles) = if smoke {
        (100, 600, 500)
    } else {
        (500, 5_000, rfnoc::DEFAULT_PROFILE_CYCLES)
    };
    let mut campaign = CampaignSpec::resilience(&SuiteOptions { quick: false });
    campaign.seeds = seeds.campaign.to_vec();
    campaign.fault_seed = seeds.fault;
    // Every observer on: recovery tracking comes with the campaign spec.
    campaign.sim = campaign
        .sim
        .with_telemetry(TelemetryConfig::every(1_000))
        .with_ledger(LedgerConfig::every(1_000));
    // The four Fig 9 designs on one multicast trace, observed the same way:
    // the only points that run VCT and the RF multicast engine.
    let fig9 = SweepSpec::new("fig9mc")
        .designs(vec![
            Design::new("Baseline", Architecture::Baseline, LinkWidth::B16),
            Design::new("VCT", Architecture::VctMulticast, LinkWidth::B16),
            Design::new(
                "MC",
                Architecture::RfMulticast { access_points: 50 },
                LinkWidth::B16,
            ),
            Design::new(
                "MC+SC",
                Architecture::AdaptiveWithMulticast {
                    access_points: 50,
                    shortcut_budget: 15,
                },
                LinkWidth::B16,
            ),
        ])
        .workloads(vec![labeled(
            "Uniform+MC20",
            rfnoc_bench::multicast_workload(TraceKind::Uniform, 0.2),
        )])
        .sims(vec![labeled("default", campaign.sim.clone())])
        .baseline(BaselineSel::design("Baseline"));
    let mut plan = Plan::merge([campaign.plan(), fig9.expand()]);
    resize(&mut plan, seeds, warmup, measure, profile_cycles);
    Inputs::Sweep {
        plan,
        stream_ledger: true,
    }
}

/// The inputs of workload `name` for `seed`; `None` for an unknown name.
pub fn inputs(name: &str, seed: u64, smoke: bool) -> Option<Inputs> {
    let seeds = Seeds::new(seed);
    Some(match name {
        "paper10_fig7" => paper10_fig7(seeds, smoke),
        "campaign10_observed" => campaign10_observed(seeds, smoke),
        "mesh10_saturated" => mesh10_saturated(seeds, smoke),
        "mesh64_loaded_t1" => mesh64_loaded(seeds, smoke, 1),
        "mesh64_loaded_t2" => mesh64_loaded(seeds, smoke, 2),
        "rf64_build" => rf64_build(seeds, smoke),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_paper_seeds() {
        let s = Seeds::new(0);
        assert_eq!(s.traffic, TrafficConfig::default().seed);
        assert_eq!(s.fault, CAMPAIGN_FAULT_SEED);
        assert_ne!(Seeds::new(1), s);
        assert_eq!(Seeds::new(7).campaign, [7, 8]);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in WORKLOADS {
            let a = inputs(name, 3, true).expect("known workload");
            assert_eq!(a, inputs(name, 3, true).expect("known workload"), "{name}");
            assert_ne!(a, inputs(name, 4, true).expect("known workload"), "{name}");
        }
        assert_eq!(inputs("no_such_workload", 3, true), None);
    }

    #[test]
    fn workload_shapes() {
        let points = |name| match inputs(name, 0, false).expect("known workload") {
            Inputs::Sweep { plan, .. } => plan.len(),
            Inputs::Single(exps) => exps.len(),
        };
        assert_eq!(points("paper10_fig7"), 28);
        assert_eq!(points("campaign10_observed"), 58);
        assert_eq!(points("rf64_build"), 2);
        let Inputs::Single(t2) = inputs("mesh64_loaded_t2", 0, false).expect("known workload")
        else {
            panic!("mesh64_loaded_t2 is a single experiment");
        };
        assert_eq!(t2[0].system.sim.threads, 2);
        assert_eq!(t2[0].placement.dims().nodes(), 4096);
    }
}
