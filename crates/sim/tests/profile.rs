//! Integration tests of the delay-attribution profiler: hop-chain shape,
//! exact reconciliation of the latency decomposition against end-to-end
//! latency across mesh-only, RF-static, and RF-multicast configurations,
//! contention-blame accounting, and inertness of the profile hooks.

use rfnoc_sim::{
    DestSet, HopRecord, McConfig, MessageClass, MessageSpec, MulticastMode,
    Network, NetworkSpec, RunStats, ScriptedWorkload, SimConfig, TelemetryConfig,
    HOP_ROUTE_CYCLES, HOP_SWITCH_CYCLES,
};
use rfnoc_topology::{GridDims, Shortcut};

/// Local/ejection port index (N,S,E,W,Local,RF — mirrors the router).
const PORT_LOCAL: u8 = 4;
const PORT_RF: u8 = 5;

fn profiled_config() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1_500;
    cfg.drain_cycles = 30_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(250));
    cfg
}

/// A deterministic all-to-all-ish unicast stream.
fn stream(n: usize, count: u64, period: u64) -> Vec<(u64, MessageSpec)> {
    (0..count)
        .map(|i| {
            let src = (i as usize * 7) % n;
            let dst = (i as usize * 11 + 1) % n;
            let dst = if dst == src { (dst + 1) % n } else { dst };
            (i * period, MessageSpec::unicast(src, dst, MessageClass::Data))
        })
        .collect()
}

fn run(spec: NetworkSpec, events: Vec<(u64, MessageSpec)>) -> RunStats {
    let mut network = Network::new(spec);
    network.run(&mut ScriptedWorkload::new(events))
}

/// Asserts the structural invariants of one hop chain and returns the
/// packet's reconciled attribution.
fn check_chain(chain: &[HopRecord]) {
    assert_eq!(chain[0].port_in, PORT_LOCAL, "chain starts at the source's local port");
    assert_eq!(
        chain.last().unwrap().port_out,
        PORT_LOCAL,
        "chain ends at the destination's ejection port"
    );
    for pair in chain.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.packet, b.packet);
        assert!(
            b.arrived_at >= a.granted_at + 2,
            "next hop arrives after the link traversal: {a:?} -> {b:?}"
        );
    }
    for h in chain {
        assert!(
            h.va_done_at >= h.arrived_at + HOP_ROUTE_CYCLES,
            "VA respects the route-compute pipeline: {h:?}"
        );
        assert!(
            h.granted_at >= h.va_done_at + HOP_SWITCH_CYCLES,
            "SA respects the switch-traversal pipeline: {h:?}"
        );
        assert!(
            u64::from(h.credit_waits) <= h.sa_wait(),
            "credit waits are a subset of the SA wait: {h:?}"
        );
    }
}

/// Every profiled packet's components must sum to its end-to-end latency;
/// returns how many packets were reconciled.
fn assert_reconciles(stats: &RunStats) -> usize {
    let tel = stats.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(tel.dropped_hops, 0, "hop cap must not truncate this run");
    let mut reconciled = 0;
    for span in tel.spans.iter().filter(|s| s.is_complete()) {
        let chain = tel.hops_of(span.packet);
        if chain.is_empty() {
            continue; // tree-multicast packets carry no hop chain
        }
        check_chain(chain);
        let b = tel
            .attribution(span.packet)
            .expect("complete span with a full chain attributes");
        assert_eq!(
            b.component_sum(),
            b.total,
            "attribution components must partition the latency: {b:?}"
        );
        assert_eq!(b.total, span.latency().unwrap());
        assert_eq!(b.hops, span.hops + 1, "chain length matches the span hop count");
        assert_eq!(b.took_rf, span.took_rf);
        reconciled += 1;
    }
    reconciled
}

#[test]
fn mesh_only_attribution_reconciles() {
    let dims = GridDims::new(6, 6);
    let stats = run(NetworkSpec::mesh_baseline(dims, profiled_config()), stream(36, 300, 2));
    let tel = stats.telemetry.as_ref().unwrap();
    let reconciled = assert_reconciles(&stats);
    assert!(reconciled as u64 >= stats.completed_messages / 2, "most packets profiled");
    assert!(tel.hops.iter().all(|h| h.port_out != PORT_RF), "mesh-only run has no RF hops");
    // Every completed unicast span must attribute on a mesh-only run.
    for span in tel.spans.iter().filter(|s| s.is_complete()) {
        assert!(tel.attribution(span.packet).is_some());
    }
}

#[test]
fn rf_static_attribution_reconciles_and_marks_rf_hops() {
    let dims = GridDims::new(6, 6);
    let n = dims.nodes();
    let shortcuts = vec![Shortcut::new(0, n - 1), Shortcut::new(n - 1, 0)];
    let spec = NetworkSpec::with_shortcuts(dims, profiled_config(), shortcuts);
    // Corner-to-corner traffic rides the shortcuts.
    let mut events = stream(36, 150, 3);
    for i in 0..60u64 {
        events.push((i * 5, MessageSpec::unicast(0, n - 1, MessageClass::Data)));
    }
    events.sort_by_key(|&(t, _)| t);
    let stats = run(spec, events);
    let reconciled = assert_reconciles(&stats);
    assert!(reconciled > 0);
    let tel = stats.telemetry.as_ref().unwrap();
    let rf_hops = tel.hops.iter().filter(|h| h.port_out == PORT_RF).count();
    assert!(rf_hops > 0, "corner traffic must take the shortcut");
    // A packet with an RF hop is marked took_rf and vice versa.
    for span in tel.spans.iter().filter(|s| s.is_complete()) {
        let chain = tel.hops_of(span.packet);
        if !chain.is_empty() {
            assert_eq!(span.took_rf, chain.iter().any(|h| h.port_out == PORT_RF));
        }
    }
}

#[test]
fn rf_multicast_attribution_reconciles_for_unicast_chains() {
    let dims = GridDims::new(6, 6);
    let receivers: Vec<usize> = (0..dims.nodes()).filter(|i| i % 2 == 0).collect();
    let serving = McConfig::serving_map(dims, &receivers);
    let transmitters = vec![7, 10, 25, 28];
    let mut cluster_of = vec![None; dims.nodes()];
    for (cluster, &tx) in transmitters.iter().enumerate() {
        cluster_of[tx] = Some(cluster);
        cluster_of[tx + 1] = Some(cluster);
    }
    let mc = McConfig {
        transmitters,
        cluster_of,
        receivers,
        serving,
        epoch_cycles: 500,
        rf_flit_bytes: 16,
    };
    let mut spec = NetworkSpec::mesh_baseline(dims, profiled_config());
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    let mut events = stream(36, 150, 3);
    for i in 0..30u64 {
        // Multicasts from a cluster member (8) and a plain core (13).
        let src = if i % 2 == 0 { 8 } else { 13 };
        let set = DestSet::from_nodes([2, 4, 20, 30]);
        events.push((i * 11, MessageSpec::multicast(src, set)));
    }
    events.sort_by_key(|&(t, _)| t);
    let stats = run(spec, events);
    let reconciled = assert_reconciles(&stats);
    assert!(reconciled > 0, "unicast chains reconcile alongside RF multicast traffic");
}

/// Contention blame conserves stall cycles: summing blame over every
/// output port equals summing VA+SA waits over every recorded hop.
#[test]
fn contention_blame_conserves_stall_cycles() {
    let dims = GridDims::new(6, 6);
    // A hot destination so VA/SA contention actually appears.
    let events: Vec<(u64, MessageSpec)> = (0..400u64)
        .map(|i| {
            let src = (i as usize * 5 + 1) % 36;
            let src = if src == 14 { 15 } else { src };
            (i, MessageSpec::unicast(src, 14, MessageClass::Data))
        })
        .collect();
    let stats = run(NetworkSpec::mesh_baseline(dims, profiled_config()), events);
    let tel = stats.telemetry.as_ref().unwrap();
    let blame = tel.contention_blame();
    assert_eq!(blame.len(), tel.routers * 6);
    let from_hops: u64 = tel.hops.iter().map(|h| h.va_wait() + h.sa_wait()).sum();
    assert_eq!(blame.iter().sum::<u64>(), from_hops, "each stall cycle blamed exactly once");
    assert!(from_hops > 0, "a hotspot run must show contention");
    // The hotspot's ejection port carries blame.
    assert!(blame[14 * 6 + PORT_LOCAL as usize] > 0);
}

/// The profile observes without disturbing: aggregate results are
/// bit-identical with profiling on, off, and with telemetry absent.
#[test]
fn profiling_is_inert() {
    let dims = GridDims::new(6, 6);
    let runs: Vec<RunStats> = [None, Some(TelemetryConfig::every(250)), Some(TelemetryConfig::profiling(250))]
        .into_iter()
        .map(|tel| {
            let mut cfg = profiled_config();
            cfg.telemetry = tel;
            run(NetworkSpec::mesh_baseline(dims, cfg), stream(36, 300, 2))
        })
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.completed_messages, runs[0].completed_messages);
        assert_eq!(r.message_latency_sum, runs[0].message_latency_sum);
        assert_eq!(r.flit_latency_sum, runs[0].flit_latency_sum);
        assert_eq!(r.port_flits, runs[0].port_flits);
        assert_eq!(r.end_cycle, runs[0].end_cycle);
    }
    // The standard run records no hops; the profiling run does.
    let plain = runs[1].telemetry.as_ref().unwrap();
    assert!(plain.hops.is_empty());
    assert!(!plain.profile);
    let profiled = runs[2].telemetry.as_ref().unwrap();
    assert!(!profiled.hops.is_empty());
    assert!(profiled.profile);
}

/// The hop cap truncates visibly, never silently.
#[test]
fn hop_cap_counts_dropped_hops() {
    let dims = GridDims::new(4, 4);
    let mut cfg = profiled_config();
    cfg.telemetry = Some(TelemetryConfig {
        hop_limit: 4,
        ..TelemetryConfig::profiling(250)
    });
    let stats = run(NetworkSpec::mesh_baseline(dims, cfg), stream(16, 40, 3));
    let tel = stats.telemetry.as_ref().unwrap();
    assert_eq!(tel.hops.len(), 4, "cap respected");
    assert!(tel.dropped_hops > 0, "overflow counted");
}
