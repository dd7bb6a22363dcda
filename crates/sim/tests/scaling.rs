//! End-to-end scaling: the degree-generic engine runs fabrics far beyond
//! the paper's 10x10 under an RF overlay. Windows are tier-1-sized (these
//! run in debug CI); throughput and build-time envelopes are measured by
//! the release-mode `mesh_scaling` bench instead.

#[path = "common/synthetic.rs"]
mod synthetic;

use rfnoc_sim::{MessageClass, MessageSpec, Network, NetworkSpec, SimConfig};
use rfnoc_topology::{FabricSpec, GridDims, Shortcut};
use synthetic::SyntheticWorkload;

/// Corner-diagonal RF overlay legal on any rectangular fabric.
fn corner_shortcuts(fabric: FabricSpec) -> Vec<Shortcut> {
    let dims = fabric.dims();
    let n = dims.nodes();
    vec![
        Shortcut::new(0, n - 1),
        Shortcut::new(n - 1, 0),
        Shortcut::new(dims.width() - 1, n - dims.width()),
        Shortcut::new(n - dims.width(), dims.width() - 1),
    ]
}

fn short_config() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 50;
    cfg.measure_cycles = 300;
    cfg.drain_cycles = 5_000;
    cfg
}

/// Runs `fabric` under the corner RF overlay end-to-end and sanity-checks
/// the traffic actually crossed the network.
fn run_overlay(fabric: FabricSpec, load_256: u64) {
    let cfg = short_config();
    let horizon = cfg.warmup_cycles + cfg.measure_cycles;
    let nodes = fabric.dims().nodes();
    let spec = NetworkSpec::with_fabric(fabric, cfg, corner_shortcuts(fabric));
    let mut w = SyntheticWorkload::new(0x5eed_5ca1e, nodes, load_256, 0, horizon);
    let stats = Network::new(spec).run(&mut w);
    assert!(stats.completed_messages > 100, "{}: only {} completions", fabric.name(), stats.completed_messages);
    assert!(!stats.saturated, "{}: saturated at low load", fabric.name());
    assert!(stats.avg_hops() >= 1.0, "{}: degenerate hop count", fabric.name());
    assert!(stats.activity.rf_bytes > 0, "{}: RF overlay never used", fabric.name());
}

#[test]
fn mesh_64x64_runs_under_rf_overlay() {
    // 4096 nodes at ~2 messages/cycle total: measures that construction,
    // routing tables, and the cycle engine all scale, not throughput.
    run_overlay(FabricSpec::mesh(GridDims::new(64, 64)), 1);
}

#[test]
fn ringmesh_32x32_runs_under_rf_overlay() {
    run_overlay(FabricSpec::ring_mesh(GridDims::new(32, 32), 4), 2);
}

/// A single corner-to-corner message on each large fabric arrives with
/// exactly the fabric's base-route hop count when no shortcut helps.
#[test]
fn zero_load_hop_counts_match_fabric_routes() {
    for fabric in [
        FabricSpec::mesh(GridDims::new(64, 64)),
        FabricSpec::ring_mesh(GridDims::new(32, 32), 4),
    ] {
        let n = fabric.dims().nodes();
        let (src, dst) = (1, n - 2);
        let mut cfg = short_config();
        cfg.warmup_cycles = 0;
        let spec = NetworkSpec::with_fabric(fabric, cfg, Vec::new());
        let mut w = rfnoc_sim::ScriptedWorkload::new(vec![(
            0,
            MessageSpec::unicast(src, dst, MessageClass::Request),
        )]);
        let stats = Network::new(spec).run(&mut w);
        assert_eq!(stats.completed_messages, 1, "{}", fabric.name());
        assert_eq!(
            stats.hops_sum,
            u64::from(fabric.base_route_len(src, dst)),
            "{}: hop count diverges from the fabric's base route",
            fabric.name()
        );
    }
}
