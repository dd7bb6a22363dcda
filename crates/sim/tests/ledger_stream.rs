//! Integration tests of the run ledger: inertness (identical statistics
//! with the ledger on or off, serial and sharded, through fault storms),
//! heartbeat tiling and monotonicity, shard-metric reconciliation against
//! the engine's active-router visits, and timeline-event mirroring. (The
//! records' JSONL form is tested with its writer, in `rfnoc::ledger`.)

#[path = "common/synthetic.rs"]
mod synthetic;

use rfnoc_sim::{
    FaultEvent, FaultPlan, LedgerConfig, LedgerRecord, Network, NetworkSpec, RunStats, SimConfig,
    TelemetryConfig, TimelineEventKind,
};
use rfnoc_topology::{GridDims, Shortcut};
use synthetic::SyntheticWorkload;

fn base_config(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_500;
    cfg.drain_cycles = 8_000;
    cfg.threads = threads;
    cfg
}

fn shortcuts(dims: GridDims) -> Vec<Shortcut> {
    let n = dims.nodes();
    vec![Shortcut::new(0, n - 1), Shortcut::new(n - 1, 0)]
}

/// Runs the standard 6×6 mesh workload with the given config.
fn run_mesh(cfg: SimConfig) -> RunStats {
    let dims = GridDims::new(6, 6);
    let horizon = cfg.warmup_cycles + cfg.measure_cycles;
    let mut w = SyntheticWorkload::new(0x1ed6e4, dims.nodes(), 24, 0, horizon);
    Network::new(NetworkSpec::mesh_baseline(dims, cfg)).run(&mut w)
}

/// Runs an RF-shortcut fault-storm configuration with the given config.
fn run_fault_storm(cfg: SimConfig) -> RunStats {
    let dims = GridDims::new(6, 6);
    let n = dims.nodes();
    let horizon = cfg.warmup_cycles + cfg.measure_cycles;
    let plan = FaultPlan::new(vec![
        (300, FaultEvent::ShortcutDown { src: 0 }),
        (500, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
        (700, FaultEvent::LinkGlitch { a: 8, b: 14 }),
        (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
        (1_100, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
    ]);
    let spec =
        NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims)).with_fault_plan(plan);
    let mut w = SyntheticWorkload::new(0x1ed6e5, n, 24, 0, horizon);
    Network::new(spec).run(&mut w)
}

/// Strips the observer reports so two [`RunStats`] can be compared for
/// simulation equality regardless of instrumentation.
fn strip_observers(mut s: RunStats) -> RunStats {
    s.ledger = None;
    s.telemetry = None;
    s
}

/// The inertness contract: every simulated statistic is bit-identical
/// with the ledger on or off — serial, sharded, and through a fault
/// storm on the sharded engine.
#[test]
fn ledger_never_perturbs_the_simulation() {
    for threads in [1usize, 4] {
        let off = run_mesh(base_config(threads));
        let mut on_cfg = base_config(threads);
        on_cfg.ledger = Some(LedgerConfig::every(400));
        let on = run_mesh(on_cfg);
        assert!(on.ledger.is_some(), "ledger report missing at {threads} threads");
        assert_eq!(
            strip_observers(on),
            strip_observers(off),
            "ledger perturbed the mesh run at {threads} threads"
        );

        let off = run_fault_storm(base_config(threads));
        let mut on_cfg = base_config(threads);
        on_cfg.ledger = Some(LedgerConfig::every(400));
        let on = run_fault_storm(on_cfg);
        assert_eq!(
            strip_observers(on),
            strip_observers(off),
            "ledger perturbed the fault storm at {threads} threads"
        );
    }
}

/// Heartbeats tile the run exactly: the first span starts at 0, spans
/// abut, full spans cover the configured interval, and the last ends at
/// the run's end cycle.
#[test]
fn heartbeats_tile_the_run() {
    let mut cfg = base_config(1);
    cfg.ledger = Some(LedgerConfig::every(400));
    let stats = run_mesh(cfg);
    let report = stats.ledger.as_ref().expect("ledger enabled");
    assert_eq!(report.interval, 400);
    assert_eq!(report.shards, 1);

    let hbs: Vec<(u64, u64)> = report
        .heartbeats()
        .map(|r| match r {
            LedgerRecord::Heartbeat { cycle, cycles, .. } => (*cycle, *cycles),
            other => panic!("heartbeats() yielded {other:?}"),
        })
        .collect();
    assert!(hbs.len() >= 3, "run spans several intervals: {hbs:?}");
    let mut expected_start = 0;
    for (i, &(cycle, cycles)) in hbs.iter().enumerate() {
        assert_eq!(cycle - cycles, expected_start, "heartbeat {i} abuts the previous");
        assert!(cycle > expected_start, "heartbeat {i} advances");
        if i + 1 < hbs.len() {
            assert_eq!(cycles, 400, "heartbeat {i} covers a full interval");
        } else {
            assert!(cycles <= 400, "final heartbeat is at most one interval");
        }
        expected_start = cycle;
    }
    assert_eq!(expected_start, stats.end_cycle, "heartbeats tile the whole run");
    // Serial engine: no shard records.
    assert!(
        !report.records.iter().any(|r| matches!(r, LedgerRecord::Shard { .. })),
        "serial run must not emit shard records"
    );
    assert!(report.active_visits > 0, "active visits counted on the serial path too");
}

/// Sharded runs emit one shard record per shard per heartbeat, stamped
/// with the owning heartbeat's cycle, and the per-shard swept-router
/// counts reconcile exactly with the engine's total active-router visits.
#[test]
fn shard_records_reconcile_with_active_visits() {
    let threads = 4;
    let mut cfg = base_config(threads);
    cfg.ledger = Some(LedgerConfig::every(400));
    let stats = run_mesh(cfg);
    let report = stats.ledger.as_ref().expect("ledger enabled");
    assert_eq!(report.shards, threads as u32);

    let mut hb_cycles = Vec::new();
    let mut shard_cycles: Vec<(u64, u32)> = Vec::new();
    for r in &report.records {
        match r {
            LedgerRecord::Heartbeat { cycle, .. } => hb_cycles.push(*cycle),
            LedgerRecord::Shard { cycle, shard, .. } => shard_cycles.push((*cycle, *shard)),
            LedgerRecord::Event { .. } => {}
        }
    }
    assert_eq!(
        shard_cycles.len(),
        hb_cycles.len() * threads,
        "one shard record per shard per heartbeat"
    );
    for &hb in &hb_cycles {
        for shard in 0..threads as u32 {
            assert!(
                shard_cycles.contains(&(hb, shard)),
                "missing shard {shard} record for heartbeat at cycle {hb}"
            );
        }
    }
    assert_eq!(
        report.shard_swept_total(),
        report.active_visits,
        "per-shard swept counts must reconcile with total active visits"
    );
    assert!(report.active_visits > 0);
    // Sweep timing is live on the instrumented sharded engine.
    let timed: f64 = report
        .records
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Shard { sweep_ms, .. } => Some(*sweep_ms),
            _ => None,
        })
        .sum();
    assert!(timed > 0.0, "sharded sweeps must report wall time");
}

/// `replay_ops` counts what the main thread replays for a shard after the
/// barrier. A shard applies the link traffic between its own routers
/// itself, so with the observers off that is the flits and credits that
/// crossed the shard boundary plus one entry per completed message: on a
/// 16×16 mesh cut into two shards of eight rows, about a twentieth of the
/// run's flit grants per shard (when every link event went through the
/// outbox, a shard listed about as many operations as the run has grants).
/// Telemetry adds only its order-dependent span operations; its counters
/// are summed like the statistics, so the shard stays below an eighth of
/// the grants (when every grant and stall was an operation, a shard
/// replayed more operations than the run has grants).
#[test]
fn replay_ops_count_boundary_traffic_only() {
    let dims = GridDims::new(16, 16);
    for (telemetry, per_grant) in [(None, 10), (Some(TelemetryConfig::every(400)), 8)] {
        let mut cfg = base_config(2);
        cfg.warmup_cycles = 0; // count every grant
        cfg.ledger = Some(LedgerConfig::every(400));
        cfg.telemetry = telemetry;
        let mut w = SyntheticWorkload::new(0x1ed6e6, dims.nodes(), 6, 0, cfg.measure_cycles);
        let stats = Network::new(NetworkSpec::mesh_baseline(dims, cfg)).run(&mut w);
        assert!(!stats.saturated);
        let grants: u64 = stats.port_flits.iter().sum();
        let report = stats.ledger.as_ref().expect("ledger enabled");
        let mut replayed = [0u64; 2];
        for r in &report.records {
            if let LedgerRecord::Shard { shard, replay_ops, .. } = r {
                replayed[*shard as usize] += replay_ops;
            }
        }
        for (shard, &ops) in replayed.iter().enumerate() {
            assert!(ops > 0, "shard {shard} replayed nothing across the boundary");
            assert!(
                ops * per_grant < grants,
                "shard {shard} (telemetry {telemetry:?}): {ops} replayed operations for \
                 {grants} flit grants — in-shard traffic or telemetry counts are being listed"
            );
        }
    }
}

/// Timeline events (faults, retunes) are mirrored onto the ledger stream
/// with their cycle stamps.
#[test]
fn events_mirror_onto_the_stream() {
    let mut cfg = base_config(2);
    cfg.ledger = Some(LedgerConfig::every(500));
    let stats = run_fault_storm(cfg);
    let report = stats.ledger.as_ref().expect("ledger enabled");

    let fault_cycles: Vec<u64> = report
        .records
        .iter()
        .filter_map(|r| match r {
            LedgerRecord::Event { cycle, kind: TimelineEventKind::Fault(_) } => Some(*cycle),
            _ => None,
        })
        .collect();
    assert!(
        fault_cycles.len() >= 3,
        "fault-plan events must be mirrored: {fault_cycles:?}"
    );
    for &c in &fault_cycles {
        assert!(c <= stats.end_cycle);
    }
}

/// `run` moves the accumulated stream out into the returned stats: a
/// second `run` on the same network (which, with the cycle clock already
/// past the horizon, simulates nothing — phased experiments build a
/// fresh network per phase) yields a fresh, empty report rather than a
/// duplicate of the first stream.
#[test]
fn ledger_stream_is_moved_out_per_run() {
    let dims = GridDims::new(4, 4);
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 300;
    cfg.drain_cycles = 2_000;
    cfg.ledger = Some(LedgerConfig::every(100));
    let mut network = Network::new(NetworkSpec::mesh_baseline(dims, cfg));
    let mut w1 = SyntheticWorkload::new(0xaaaa, dims.nodes(), 8, 0, 300);
    let first = network.run(&mut w1);
    let first_report = first.ledger.as_ref().expect("first run ledger");
    assert!(first_report.active_visits > 0);
    assert!(first_report.heartbeats().count() >= 3);
    let mut w2 = SyntheticWorkload::new(0xbbbb, dims.nodes(), 8, 0, 300);
    let second = network.run(&mut w2);
    let second_report = second.ledger.as_ref().expect("second run ledger");
    assert!(
        second_report.records.is_empty() && second_report.active_visits == 0,
        "second run must not replay the first stream: {second_report:?}"
    );
}
