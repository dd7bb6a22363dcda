//! Reps of the single-experiment workloads, and the staged set-up the
//! sweep probe shares.
//!
//! The untraced rep times three sections per experiment (set-up,
//! `Network::run`, costing). The traced rep drives every stage itself so
//! each call into a crate gets its own span; its statistics must hash
//! equal to the untraced rep's and to `Experiment::run()`'s.

use crate::alloc::live_bytes_of;
use crate::checks::{Checks, StatsHash};
use crate::totals::{named, ratio, Totals};
use crate::trace::{SpanId, Tracer};
use rfnoc::{build_system, Architecture, BuiltSystem, Experiment, ProfileSource};
use rfnoc_power::NocPowerModel;
use rfnoc_sim::{LedgerConfig, Network, Workload};
use rfnoc_topology::select::{select_application_specific, select_max_cost, SelectionConstraints};
use rfnoc_topology::{GridGraph, PairWeights, Shortcut};
use rfnoc_traffic::staggered_rf_routers;
use std::time::Instant;

/// One rep's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Hash over the statistics of every point, in order.
    pub hash: StatsHash,
    /// From inputs to costed results, in seconds.
    pub wall_s: f64,
    /// The rep's sample of each metric it measures.
    pub samples: Vec<(String, f64)>,
}

/// An experiment elaborated up to simulated cycle 0.
pub struct Ready {
    /// The elaborated system.
    pub built: BuiltSystem,
    /// The constructed network.
    pub network: Network,
    /// The instantiated traffic source.
    pub workload: Box<dyn Workload>,
}

/// Everything `Experiment::run` does before simulated cycle 0, minus the
/// fault-plan resolution it keeps private (the single-experiment workloads
/// inject no faults).
pub fn setup(exp: &Experiment) -> Ready {
    let built = exp.build();
    let network = Network::new(built.network.clone());
    let workload = exp
        .workload
        .instantiate_for(&exp.placement, &exp.traffic, &built.shortcuts);
    Ready {
        built,
        network,
        workload,
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// The hash of `Experiment::run()` over `exps` on the serial engine, and
/// how long it took: the reference both passes must reproduce, on any
/// thread count.
pub fn reference(exps: &[Experiment], checks: &mut Checks) -> (StatsHash, f64) {
    let t0 = Instant::now();
    let mut totals = Totals::default();
    for exp in exps {
        let mut serial = exp.clone();
        serial.system.sim.threads = 1;
        let report = serial.run();
        let routers = exp.placement.dims().nodes();
        totals.add(
            "reference",
            routers,
            &report.stats,
            report.total_power_w(),
            checks,
        );
    }
    (totals.hash, t0.elapsed().as_secs_f64())
}

/// One untraced rep: the end-to-end samples.
pub fn untraced(exps: &[Experiment], checks: &mut Checks) -> Rep {
    let start = Instant::now();
    let mut totals = Totals::default();
    let (mut setup_s, mut run_s) = (0.0, 0.0);
    for exp in exps {
        let t0 = Instant::now();
        let mut ready = setup(exp);
        let t1 = Instant::now();
        let stats = ready.network.run(ready.workload.as_mut());
        let t2 = Instant::now();
        let model = NocPowerModel::paper_32nm();
        let power = model.power(&ready.built.design, &stats.activity);
        std::hint::black_box(model.area(&ready.built.design));
        setup_s += secs(t0, t1);
        run_s += secs(t1, t2);
        totals.add(
            &exp.summary(),
            exp.placement.dims().nodes(),
            &stats,
            power.total_w(),
            checks,
        );
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = totals.end_to_end(run_s);
    samples.extend(named([("wall_s", wall_s), ("setup_s", setup_s)]));
    Rep {
        hash: totals.hash,
        wall_s,
        samples,
    }
}

/// Runs graph construction and shortcut selection stand-alone, on the
/// inputs `build_system` gives them, under `parent`. Returns the selected
/// set (empty for architectures without shortcuts).
fn topology_probe(
    exp: &Experiment,
    profile: Option<&PairWeights>,
    t: &mut Tracer,
    parent: SpanId,
) -> Vec<Shortcut> {
    let dims = exp.placement.dims();
    let (budget, enabled) = match &exp.system.arch {
        Architecture::StaticShortcuts | Architecture::WireShortcuts => {
            (exp.system.shortcut_budget, None)
        }
        Architecture::AdaptiveShortcuts { access_points } => (
            exp.system.shortcut_budget,
            Some(staggered_rf_routers(dims, *access_points)),
        ),
        Architecture::AdaptiveWithMulticast {
            access_points,
            shortcut_budget,
        } => (
            *shortcut_budget,
            Some(staggered_rf_routers(dims, *access_points)),
        ),
        _ => return Vec::new(),
    };
    let graph = t.time("topology.graph_build", Some(parent), || {
        GridGraph::from_fabric(&exp.placement.fabric(), &[])
    });
    t.time("topology.select", Some(parent), || {
        let n = graph.node_count();
        match enabled {
            None => {
                let constraints =
                    SelectionConstraints::allowing_all(n, budget).excluding_corners(&graph);
                select_max_cost(&graph, &PairWeights::uniform(n), &constraints)
            }
            Some(enabled) => {
                let constraints = SelectionConstraints::for_enabled(n, budget, &enabled)
                    .excluding_corners(&graph);
                let profile = profile.expect("adaptive architectures are profiled first");
                select_application_specific(&graph, profile, &constraints)
            }
        }
    })
}

/// What a traced rep counts beside its spans, summed over its experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Messages the traffic source produced.
    pub messages: u64,
    shortcuts: usize,
    /// Net bytes `Network::new` left allocated.
    network_bytes: i64,
    routers: usize,
}

impl Counts {
    /// The per-crate samples that need a count: call after the rep's
    /// spans are closed.
    pub fn samples(&self, t: &Tracer) -> Vec<(String, f64)> {
        let generate_ns = t.rep_total("traffic.generate") * 1e9;
        named([
            ("traffic.messages", self.messages as f64),
            (
                "traffic.ns_per_message",
                ratio(generate_ns, self.messages as f64),
            ),
            ("topology.shortcuts", self.shortcuts as f64),
            (
                "sim.network_new_bytes_per_router",
                ratio(self.network_bytes as f64, self.routers as f64),
            ),
            (
                "core.build_s",
                t.rep_total("core.profile") + t.rep_total("core.build_system"),
            ),
        ])
    }
}

/// [`setup`] stage by stage, each under its own span of `parent`, with the
/// topology probe beside it.
pub fn staged_setup(
    exp: &Experiment,
    t: &mut Tracer,
    parent: SpanId,
    counts: &mut Counts,
    checks: &mut Checks,
) -> Ready {
    assert_eq!(
        exp.profile_source,
        ProfileSource::Generator,
        "workloads profile from the generator"
    );
    let parent = Some(parent);
    let profile = exp.system.arch.is_adaptive().then(|| {
        t.time("core.profile", parent, || {
            exp.workload
                .profile(&exp.placement, &exp.traffic, exp.profile_cycles)
        })
    });
    let probe = t.open("probe", parent);
    let probed = topology_probe(exp, profile.as_ref(), t, probe);
    t.close(probe);
    let built = t.time("core.build_system", parent, || {
        build_system(&exp.system, &exp.placement, profile.as_ref())
    });
    checks.expect(probed == built.shortcuts, || {
        format!(
            "{}: the topology probe selected other shortcuts than build_system",
            exp.summary()
        )
    });
    let (network, bytes) = t.time("sim.network_new", parent, || {
        live_bytes_of(|| Network::new(built.network.clone()))
    });
    let workload = t.time("traffic.instantiate", parent, || {
        exp.workload
            .instantiate_for(&exp.placement, &exp.traffic, &built.shortcuts)
    });
    counts.shortcuts += built.shortcuts.len();
    counts.network_bytes += bytes;
    counts.routers += exp.placement.dims().nodes();
    Ready {
        built,
        network,
        workload,
    }
}

/// Heartbeat interval of the engine ledger the traced pass turns on for
/// sharded runs, to read per-shard sweep and barrier times.
const SHARD_LEDGER_CYCLES: u64 = 100;

/// One traced rep: the per-crate samples. Probe time is recorded but left
/// out of the rep's wall, so the wall compares with the untraced rep's.
pub fn traced(exps: &[Experiment], t: &mut Tracer, checks: &mut Checks) -> Rep {
    let rep = t.open("rep", None);
    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let mut router_cycles = 0.0;
    for exp in exps {
        let mut exp = exp.clone();
        if exp.system.sim.threads > 1 {
            exp.system.sim.ledger = Some(LedgerConfig::every(SHARD_LEDGER_CYCLES));
        }
        let mut ready = staged_setup(&exp, t, rep, &mut counts, checks);

        // One accumulating span per stage, not one span per cycle.
        let generate = t.open("traffic.generate", Some(rep));
        let inject = t.open("sim.inject", Some(rep));
        let step = t.open("sim.step", Some(rep));
        let horizon = exp.system.sim.warmup_cycles + exp.system.sim.measure_cycles;
        let mut buf = Vec::new();
        for cycle in 0..horizon {
            buf.clear();
            let t0 = Instant::now();
            ready.workload.messages_at(cycle, &mut buf);
            let t1 = Instant::now();
            counts.messages += buf.len() as u64;
            for spec in buf.drain(..) {
                ready.network.inject_message(spec);
            }
            let t2 = Instant::now();
            ready.network.step();
            let t3 = Instant::now();
            t.add(generate, t0, t1);
            t.add(inject, t1, t2);
            t.add(step, t2, t3);
        }
        let nodes = exp.placement.dims().nodes();
        router_cycles += nodes as f64 * horizon as f64;
        // `run` resumes at the horizon: it drains and finalizes.
        let stats = t.time("sim.drain_finalize", Some(rep), || {
            ready.network.run(ready.workload.as_mut())
        });
        let power = t.time("power.model", Some(rep), || {
            let model = NocPowerModel::paper_32nm();
            std::hint::black_box(model.area(&ready.built.design));
            model.power(&ready.built.design, &stats.activity)
        });
        totals.add(&exp.summary(), nodes, &stats, power.total_w(), checks);
    }
    t.close(rep);

    let probe_s = t.rep_total("topology.graph_build") + t.rep_total("topology.select");
    let wall_s = t.busy_s(rep) - probe_s;
    let run_ns = (t.rep_total("sim.step") + t.rep_total("sim.drain_finalize")) * 1e9;
    let mut samples = t.rep_samples();
    samples.extend(named([
        (
            "sim.inject_ns_per_message",
            ratio(t.rep_total("sim.inject") * 1e9, counts.messages as f64),
        ),
        (
            "sim.step_ns_per_router_cycle",
            ratio(t.rep_total("sim.step") * 1e9, router_cycles),
        ),
        // Grants are only known for the whole run, so this one spans the
        // drain too (whose injections it then includes).
        (
            "sim.ns_per_flit_grant",
            ratio(run_ns, totals.grants() as f64),
        ),
        ("trace.unattributed_frac", ratio(t.self_s(rep), wall_s)),
    ]));
    samples.extend(counts.samples(t));
    samples.extend(totals.per_layer());
    Rep {
        hash: totals.hash,
        wall_s,
        samples,
    }
}
