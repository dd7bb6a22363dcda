//! Fault-injection and graceful-degradation tests: RF-only fault plans
//! never lose traffic, shortcut failure converges to the equivalent
//! reduced network, transient glitches are credit-safe, and the watchdog
//! turns a partitioned mesh into a structured health report instead of a
//! silent hang. A network refuses a fault plan that could only no-op or
//! misfire, and every generated plan passes that check.

use proptest::prelude::*;
use rfnoc_power::LinkWidth;
use rfnoc_sim::{
    ConfigError, FaultEvent, FaultPlan, FaultRates, HealthDiagnosis, MessageClass, MessageSpec,
    Network, NetworkSpec, ScriptedWorkload, SimConfig, SimError,
};
use rfnoc_topology::{FabricSpec, GridDims, Shortcut};

fn quick_config() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline().with_link_width(LinkWidth::B16);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 10_000;
    cfg.drain_cycles = 40_000;
    cfg
}

/// Builds a legal shortcut set from arbitrary candidate pairs.
fn legalize(n: usize, candidates: &[(usize, usize)]) -> Vec<Shortcut> {
    let mut out_used = vec![false; n];
    let mut in_used = vec![false; n];
    let mut set = Vec::new();
    for &(a, b) in candidates {
        let (a, b) = (a % n, b % n);
        if a != b && !out_used[a] && !in_used[b] {
            out_used[a] = true;
            in_used[b] = true;
            set.push(Shortcut::new(a, b));
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault plan that only touches RF resources — shortcut
    /// transmitter failures, a whole-band failure, later repairs — leaves
    /// every packet deliverable: the mesh is intact and traffic degrades
    /// onto it. Total delivery, no watchdog trip.
    #[test]
    fn rf_only_faults_never_lose_packets(
        candidates in proptest::collection::vec((0usize..36, 0usize..36), 1..8),
        kills in proptest::collection::vec((0usize..8, 0u64..4_000), 0..8),
        band_down in proptest::collection::vec(0u64..4_000, 0..2),
        msgs in proptest::collection::vec((0usize..36, 0usize..36), 1..30),
    ) {
        let dims = GridDims::new(6, 6);
        let shortcuts = legalize(36, &candidates);
        prop_assume!(!shortcuts.is_empty());

        let mut events: Vec<(u64, FaultEvent)> = kills
            .iter()
            .map(|&(i, cycle)| {
                let s = shortcuts[i % shortcuts.len()];
                (cycle, FaultEvent::ShortcutDown { src: s.src })
            })
            .collect();
        for &cycle in &band_down {
            events.push((cycle, FaultEvent::BandDown));
        }
        let plan = FaultPlan::new(events);
        prop_assert!(plan.rf_only());

        let mut injected = Vec::new();
        let mut expected = 0u64;
        for (i, &(s, d)) in msgs.iter().enumerate() {
            if s != d {
                injected.push((
                    i as u64 * 7,
                    MessageSpec::unicast(s, d, MessageClass::Data),
                ));
                expected += 1;
            }
        }
        prop_assume!(expected > 0);

        let spec = NetworkSpec::with_shortcuts(dims, quick_config(), shortcuts)
            .with_fault_plan(plan);
        let mut network = Network::new(spec);
        let stats = network.run(&mut ScriptedWorkload::new(injected));
        prop_assert!(stats.is_healthy(), "watchdog fired: {:?}", stats.health);
        prop_assert_eq!(stats.completed_messages, expected);
        prop_assert!(!stats.saturated);
    }

    /// Seed-driven random plans restricted to RF failures (no mesh
    /// failures, no glitches) also deliver everything — exercises
    /// [`FaultPlan::random`] end to end, including repair scheduling.
    #[test]
    fn random_rf_plans_deliver_everything(
        seed in 0u64..1_000,
        msgs in proptest::collection::vec((0usize..36, 0usize..36), 1..20),
        repair in 0u64..2,
    ) {
        let dims = GridDims::new(6, 6);
        let shortcuts = vec![Shortcut::new(0, 35), Shortcut::new(30, 5)];
        let rates = FaultRates {
            shortcut_failures: 2.0,
            mesh_link_failures: 0.0,
            glitches: 0.0,
            repair_after: (repair == 1).then_some(500),
        };
        let plan = FaultPlan::random(seed, &FabricSpec::mesh(dims), &shortcuts, rates, 0..3_000);
        prop_assert!(plan.rf_only());

        let mut injected = Vec::new();
        let mut expected = 0u64;
        for (i, &(s, d)) in msgs.iter().enumerate() {
            if s != d {
                injected.push((
                    i as u64 * 11,
                    MessageSpec::unicast(s, d, MessageClass::Data),
                ));
                expected += 1;
            }
        }
        prop_assume!(expected > 0);

        let spec = NetworkSpec::with_shortcuts(dims, quick_config(), shortcuts)
            .with_fault_plan(plan);
        let mut network = Network::new(spec);
        let stats = network.run(&mut ScriptedWorkload::new(injected));
        prop_assert!(stats.is_healthy(), "watchdog fired: {:?}", stats.health);
        prop_assert_eq!(stats.completed_messages, expected);
    }
}

/// Time-spaced probe messages long after the fault has been absorbed.
fn probes(start: u64, spacing: u64, pairs: &[(usize, usize)]) -> Vec<(u64, MessageSpec)> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| {
            (start + i as u64 * spacing, MessageSpec::unicast(s, d, MessageClass::Data))
        })
        .collect()
}

/// After a mid-run shortcut failure drains and the tables rewrite, the
/// network is *exactly* the network that never had that shortcut: the
/// same probe traffic sees identical per-message latencies.
#[test]
fn failed_shortcut_converges_to_reduced_network() {
    let dims = GridDims::new(10, 10);
    let lost = Shortcut::new(0, 99);
    let kept = Shortcut::new(90, 9);
    // Probes start at cycle 2_000 — far beyond the failure at 500 plus the
    // drain and the 99-cycle table rewrite — and are spaced so they never
    // share the network.
    let pairs = [(0, 99), (0, 99), (1, 98), (10, 89), (0, 9), (90, 9), (5, 95)];
    let workload = probes(2_000, 400, &pairs);

    let plan = FaultPlan::new(vec![(500, FaultEvent::ShortcutDown { src: lost.src })]);
    let faulted = NetworkSpec::with_shortcuts(dims, quick_config(), vec![lost, kept])
        .with_fault_plan(plan);
    let mut faulted_net = Network::new(faulted);
    let faulted_stats = faulted_net.run(&mut ScriptedWorkload::new(workload.clone()));

    let reduced = NetworkSpec::with_shortcuts(dims, quick_config(), vec![kept]);
    let mut reduced_net = Network::new(reduced);
    let reduced_stats = reduced_net.run(&mut ScriptedWorkload::new(workload));

    assert_eq!(faulted_stats.shortcut_faults, 1);
    assert!(faulted_stats.is_healthy());
    assert_eq!(faulted_stats.completed_messages, pairs.len() as u64);
    assert_eq!(reduced_stats.completed_messages, pairs.len() as u64);
    assert_eq!(
        faulted_stats.message_latencies, reduced_stats.message_latencies,
        "post-recovery latencies must match the never-had-it network"
    );
    assert_eq!(faulted_stats.hops_sum, reduced_stats.hops_sum);
    assert_eq!(faulted_net.active_shortcuts(), &[kept]);
}

/// Transient glitches delay flits (receiver drop + upstream retransmit)
/// without losing packets or corrupting credit accounting.
#[test]
fn glitches_delay_but_never_lose_traffic() {
    let dims = GridDims::new(6, 6);
    // A stream crossing link 0→1 with glitches landing on it repeatedly.
    let events: Vec<(u64, FaultEvent)> =
        (0..40).map(|i| (10 + i * 13, FaultEvent::LinkGlitch { a: 0, b: 1 })).collect();
    let plan = FaultPlan::new(events);
    let workload: Vec<(u64, MessageSpec)> =
        (0..50).map(|i| (i * 12, MessageSpec::unicast(0, 5, MessageClass::Data))).collect();

    let spec = NetworkSpec::mesh_baseline(dims, quick_config()).with_fault_plan(plan);
    let mut network = Network::new(spec);
    let stats = network.run(&mut ScriptedWorkload::new(workload));
    assert!(stats.is_healthy());
    assert_eq!(stats.completed_messages, 50);
    assert!(
        stats.retransmitted_flits > 0,
        "glitches on a busy link must hit at least one flit"
    );
}

/// Mesh link failures that cut off a router: packets headed there block
/// at the break, and the watchdog returns a structured [`HealthReport`]
/// diagnosing the partition well before the drain limit — instead of
/// silently burning the whole drain budget.
#[test]
fn watchdog_reports_partition_instead_of_hanging() {
    let dims = GridDims::new(4, 4);
    // Node 0's only links are to 1 (east) and 4 (south); cutting both
    // strands it.
    let plan = FaultPlan::new(vec![
        (10, FaultEvent::MeshLinkDown { a: 0, b: 1 }),
        (10, FaultEvent::MeshLinkDown { a: 0, b: 4 }),
    ]);
    let mut cfg = quick_config();
    cfg.watchdog_cycles = 300;
    cfg.measure_cycles = 1_000;
    cfg.drain_cycles = 100_000;
    let spec = NetworkSpec::mesh_baseline(dims, cfg).with_fault_plan(plan);
    let mut network = Network::new(spec);

    let stats = network.run(&mut ScriptedWorkload::new(vec![(
        50,
        MessageSpec::unicast(5, 0, MessageClass::Data),
    )]));

    let health = stats.health.expect("watchdog must fire on a partitioned destination");
    assert_eq!(health.diagnosis, HealthDiagnosis::Partitioned);
    assert_eq!(stats.completed_messages, 0);
    assert!(
        stats.end_cycle < 5_000,
        "watchdog must fire before the drain limit, ended at {}",
        stats.end_cycle
    );
    assert_eq!(network.mesh_link_failures(), 2);
    // The report pinpoints the stall window.
    assert!(health.stalled_for >= 300);
    assert!(health.outstanding >= 1);
}

/// The same deadline-style hang is also caught on table-routed networks,
/// and a repaired link clears the partition: the identical scenario with
/// a repair completes normally.
#[test]
fn repaired_link_restores_delivery() {
    let dims = GridDims::new(4, 4);
    let plan = FaultPlan::new(vec![
        (10, FaultEvent::MeshLinkDown { a: 0, b: 1 }),
        (10, FaultEvent::MeshLinkDown { a: 0, b: 4 }),
        (400, FaultEvent::MeshLinkUp { a: 0, b: 4 }),
    ]);
    let mut cfg = quick_config();
    cfg.watchdog_cycles = 2_000;
    cfg.measure_cycles = 1_000;
    let spec = NetworkSpec::mesh_baseline(dims, cfg).with_fault_plan(plan);
    let mut network = Network::new(spec);

    let stats = network.run(&mut ScriptedWorkload::new(vec![(
        50,
        MessageSpec::unicast(5, 0, MessageClass::Data),
    )]));
    assert!(stats.is_healthy(), "repair should beat the watchdog: {:?}", stats.health);
    assert_eq!(stats.completed_messages, 1);
    assert_eq!(stats.repairs, 1);
}

/// `Network::try_new` refuses a fault plan with the typed error
/// `FaultPlan::validated` gives the same events: a repair before any
/// failure (of a link, of a transmitter), a shortcut repair tuned to its
/// own router, and a glitch from a router to itself.
#[test]
fn try_new_refuses_the_plans_validated_refuses() {
    let dims = GridDims::new(4, 4);
    let fabric = FabricSpec::mesh(dims);
    let cases = [
        (
            vec![(10, FaultEvent::MeshLinkUp { a: 0, b: 1 })],
            ConfigError::FaultRepairBeforeFail { cycle: 10 },
        ),
        (
            vec![(10, FaultEvent::ShortcutUp { src: 0, dst: 15 })],
            ConfigError::FaultRepairBeforeFail { cycle: 10 },
        ),
        (
            vec![
                (5, FaultEvent::ShortcutDown { src: 0 }),
                (10, FaultEvent::ShortcutUp { src: 0, dst: 0 }),
            ],
            ConfigError::FaultSelfLoop { router: 0 },
        ),
        (
            vec![(10, FaultEvent::LinkGlitch { a: 3, b: 3 })],
            ConfigError::FaultSelfLoop { router: 3 },
        ),
    ];
    for (events, refusal) in cases {
        let validated = FaultPlan::validated(events.clone(), &fabric);
        assert_eq!(validated, Err(refusal), "{events:?}");
        let spec = NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 15)])
            .with_fault_plan(FaultPlan::new(events.clone()));
        assert_eq!(Network::try_new(spec).err(), Some(SimError::Config(refusal)), "{events:?}");
    }
}

/// Every plan the two generators draw, over seeds, rates, repair delays,
/// storm intensities and loads, for the paper's 10×10 mesh and an 8×8
/// ring-mesh with 4×4 tiles, passes the check `Network::try_new` makes.
#[test]
fn generated_fault_plans_pass_the_plan_check() {
    let fabrics = [
        (
            FabricSpec::mesh(GridDims::new(10, 10)),
            vec![Shortcut::new(0, 99), Shortcut::new(9, 90), Shortcut::new(44, 55)],
        ),
        (
            FabricSpec::ring_mesh(GridDims::new(8, 8), 4),
            vec![Shortcut::new(0, 63), Shortcut::new(7, 56), Shortcut::new(27, 36)],
        ),
    ];
    for (fabric, shortcuts) in &fabrics {
        for seed in 0..16 {
            for repair_after in [None, Some(0), Some(700)] {
                let rates = FaultRates {
                    shortcut_failures: 2.0,
                    mesh_link_failures: 4.0,
                    glitches: 6.0,
                    repair_after,
                };
                let plan = FaultPlan::random(seed, fabric, shortcuts, rates, 0..5_000);
                assert!(!plan.is_empty());
                assert_eq!(plan.validate(fabric), Ok(()), "{fabric} random seed {seed}");
            }
            for (intensity, load) in [(0.5, 0.5), (1.0, 1.0), (2.0, 1.5), (3.0, 2.0)] {
                let plan =
                    FaultPlan::correlated(seed, fabric, shortcuts, intensity, load, 0..20_000);
                assert!(!plan.is_empty());
                let at = format!("{fabric} correlated seed {seed} intensity {intensity}");
                assert_eq!(plan.validate(fabric), Ok(()), "{at}");
            }
        }
    }
}
