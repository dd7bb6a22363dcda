//! Golden-stats determinism suite: pins [`RunStats::fingerprint`] and a
//! hash of the per-node counters for representative configurations,
//! proving that engine optimizations (active-router scheduling, zero-alloc
//! steady state) are bit-identical to the seed cycle engine. Any change to
//! these pins means the optimized engine no longer simulates the same
//! network.
//!
//! The pins are in `tests/pins/golden_stats.txt`: `<case>` is the
//! fingerprint, `<case>.per_node` the hash of `per_source` and `per_dest`.
//! Re-bless after an *intentional* behavioural change (never for a pure
//! performance change) with
//!
//! ```text
//! PIN_BLESS=1 cargo test -p rfnoc-sim --test golden_stats
//! ```

mod common;

use common::{rf_multicast, shortcuts, SyntheticWorkload};
use rfnoc_pins::{hex, Pins};
use rfnoc_power::LinkWidth;
use rfnoc_sim::{
    FaultEvent, FaultPlan, LedgerConfig, MulticastMode, Network, NetworkSpec, RunStats, SimConfig,
    VctConfig,
};
use rfnoc_topology::{FabricSpec, Fnv, GridDims, Shortcut};

/// The cases' engine config; `ledger` instruments the run with the run
/// ledger, which every case must ignore.
fn golden_config(threads: usize, ledger: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_500;
    cfg.drain_cycles = 8_000;
    cfg.threads = threads;
    cfg.ledger = ledger.then(|| LedgerConfig::every(400));
    cfg
}

/// The pinned configurations, run by [`run_case`]. Pinned from the seed
/// (pre-optimization) engine; the optimized engine must match every one
/// bit-for-bit.
const CASES: [&str; 19] = [
    "mesh_xy_low_load",
    "mesh_xy_saturating",
    "rf_static",
    "rf_adaptive_detour",
    "wire_shortcuts",
    "mc_as_unicasts",
    "mc_vct_tree",
    "mc_rf_broadcast",
    "faults_and_glitches",
    "reconfigure_live",
    // Ring-mesh fabric cases (8x8, tile 4): pinned when the degree-generic
    // router landed, guarding the heterogeneous-degree port layout.
    "ringmesh_base_low_load",
    "ringmesh_rf_adaptive",
    "ringmesh_faults",
    // VC-count / buffer-depth / link-width shapes other than the paper's
    // 4+8 VCs x 4 flits x 16B: pinned on the nested-Vec engine before the
    // flat router block replaced it, guarding everything the block layout
    // is sized by (mask widths, ring wrap-around, class boundaries).
    "shape_1p1_depth1",
    "shape_2p4_depth2_b4_rf",
    "shape_4p12_depth8_rf_faults",
    "shape_2p2_depth2_vct",
    "shape_ringmesh_1p2_depth3_b8",
    // Shortcuts with adaptive routing under saturating load, through an RF
    // teardown, a mesh-link detour and both repairs (two retunes mid-run):
    // every head waits for VCs while routes, tables and RF admission change.
    "rf_adaptive_saturating_faults",
];

fn run_case(name: &str, threads: usize, ledger: bool) -> RunStats {
    let dims = GridDims::new(6, 6);
    let n = dims.nodes();
    // The 8x8 fabric of the `ringmesh_*` cases.
    let ring_fabric = FabricSpec::ring_mesh(GridDims::new(8, 8), 4);
    let mesh = |cfg| NetworkSpec::mesh_baseline(dims, cfg);
    let rf = |cfg| NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims));
    let ring = |cfg, overlay| NetworkSpec::with_fabric(ring_fabric, cfg, overlay);
    let ring_rf = |cfg| ring(cfg, shortcuts(ring_fabric.dims()));
    let vct_tree = MulticastMode::Vct(VctConfig::default());
    let vct = |cfg| NetworkSpec { multicast: vct_tree.clone(), ..mesh(cfg) };
    let golden = || golden_config(threads, ledger);
    let saturating = || SimConfig { drain_cycles: 2_000, watchdog_cycles: 0, ..golden() };
    // A non-default VC / buffer / link-width shape.
    let shaped = |vcs_adaptive, vcs_escape, buffer_depth, width| SimConfig {
        vcs_adaptive,
        vcs_escape,
        buffer_depth,
        ..golden().with_link_width(width)
    };
    // The network, and the workload's seed, load (in 1/256ths) and
    // multicast share (one message in `mc_every`, 0 for none).
    let (spec, seed, load, mc_every) = match name {
        "mesh_xy_low_load" => (mesh(golden()), 0x5eed_0001, 4, 0),
        "mesh_xy_saturating" => (mesh(saturating()), 0x5eed_0002, 96, 0),
        "rf_static" => {
            let cfg = SimConfig { adaptive_shortcut_routing: false, ..golden() };
            (rf(cfg), 0x5eed_0003, 16, 0)
        }
        "rf_adaptive_detour" => (rf(golden()), 0x5eed_0004, 48, 0),
        "wire_shortcuts" => {
            let spec = NetworkSpec { wire_shortcut_cycles_per_hop: Some(0.8), ..rf(golden()) };
            (spec, 0x5eed_0005, 16, 0)
        }
        "mc_as_unicasts" => {
            (mesh(SimConfig { collect_pair_counts: true, ..golden() }), 0x5eed_0006, 12, 5)
        }
        "mc_vct_tree" => (vct(golden()), 0x5eed_0007, 12, 4),
        "mc_rf_broadcast" => {
            let spec = NetworkSpec {
                multicast: MulticastMode::Rf,
                mc: Some(rf_multicast(dims)),
                ..mesh(golden())
            };
            (spec, 0x5eed_0008, 12, 4)
        }
        "faults_and_glitches" => {
            let plan = FaultPlan::new(vec![
                (300, FaultEvent::ShortcutDown { src: 0 }),
                (500, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
                (700, FaultEvent::LinkGlitch { a: 8, b: 14 }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
                (1_100, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
            ]);
            (rf(golden()).with_fault_plan(plan), 0x5eed_0009, 24, 0)
        }
        "reconfigure_live" => {
            let mut net = Network::new(rf(golden()));
            net.reconfigure(vec![Shortcut::new(2, 33), Shortcut::new(33, 2)])
                .expect("legal retune");
            let until = net.dims().nodes() as u64 + 1_700;
            return net.run(&mut SyntheticWorkload::new(0x5eed_000a, n, 24, 0, until));
        }
        "ringmesh_base_low_load" => (ring(golden(), Vec::new()), 0x5eed_000b, 8, 0),
        "ringmesh_rf_adaptive" => (ring_rf(golden()), 0x5eed_000c, 32, 0),
        "ringmesh_faults" => {
            let rn = ring_fabric.dims().nodes();
            // A base link of router 0 picked from the fabric itself, so the
            // case stays valid whatever the tile's ring order is.
            let nb = ring_fabric.neighbors(0)[0];
            let plan = FaultPlan::new(vec![
                (300, FaultEvent::ShortcutDown { src: 0 }),
                (500, FaultEvent::MeshLinkDown { a: 0, b: nb }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: rn - 1 }),
                (1_100, FaultEvent::MeshLinkUp { a: 0, b: nb }),
            ]);
            (ring_rf(golden()).with_fault_plan(plan), 0x5eed_000d, 16, 0)
        }
        // One VC per class, one slot per VC: every flit waits for the
        // credit of the one before it.
        "shape_1p1_depth1" => (mesh(shaped(1, 1, 1, LinkWidth::B16)), 0x5eed_000e, 10, 0),
        // 4B links: packets of up to 33 flits wrap the two-slot rings many
        // times, and the 16B RF channel burst-drains four narrow flits a
        // cycle.
        "shape_2p4_depth2_b4_rf" => (rf(shaped(2, 4, 2, LinkWidth::B4)), 0x5eed_000f, 10, 0),
        "shape_4p12_depth8_rf_faults" => {
            // The widest shape in the repo (ablation_escape_vcs), under RF
            // teardown/repair, a mesh-link detour and a glitch.
            let cfg = shaped(4, 12, 8, LinkWidth::B8);
            let plan = FaultPlan::new(vec![
                (300, FaultEvent::ShortcutDown { src: 0 }),
                (500, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
                (700, FaultEvent::LinkGlitch { a: 8, b: 14 }),
                (750, FaultEvent::LinkGlitch { a: n - 1, b: 0 }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
                (1_100, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
            ]);
            (rf(cfg).with_fault_plan(plan), 0x5eed_0010, 40, 0)
        }
        // Tree multicast replication out of two-slot rings.
        "shape_2p2_depth2_vct" => (vct(shaped(2, 2, 2, LinkWidth::B8)), 0x5eed_0011, 8, 4),
        // Heterogeneous-degree routers (2/6 base ports) at a shape where
        // depth is not a power of two.
        "shape_ringmesh_1p2_depth3_b8" => {
            (ring_rf(shaped(1, 2, 3, LinkWidth::B8)), 0x5eed_0012, 6, 0)
        }
        "rf_adaptive_saturating_faults" => {
            let plan = FaultPlan::new(vec![
                (400, FaultEvent::ShortcutDown { src: 0 }),
                (600, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
                (1_200, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
            ]);
            (rf(saturating()).with_fault_plan(plan), 0x5eed_0013, 96, 0)
        }
        other => panic!("unknown golden case {other:?}"),
    };
    let horizon = spec.config.warmup_cycles + spec.config.measure_cycles;
    let mut w = SyntheticWorkload::new(seed, spec.dims().nodes(), load, mc_every, horizon);
    Network::new(spec).run(&mut w)
}

/// FNV-1a over the per-node counters: `per_source`, then `per_dest`.
fn per_node_hash(s: &RunStats) -> u64 {
    let mut h = Fnv::new();
    for counts in [&s.per_source, &s.per_dest] {
        h.u64(counts.len() as u64);
        counts.iter().for_each(|&c| h.u64(u64::from(c)));
    }
    h.finish()
}

/// Both pins of every case, run at `threads` engine threads (`ledger` as in
/// [`golden_config`]).
fn pins_at(threads: usize, ledger: bool) -> Vec<(String, String)> {
    let mut got = Vec::new();
    for case in CASES {
        let stats = run_case(case, threads, ledger);
        // Campaigns off: no recovery tracker was configured, so no records
        // may leak into the stats (and none are hashed).
        assert!(stats.recovery.is_empty(), "{case}: recovery records without a tracker");
        assert_eq!(stats.ledger.is_some(), ledger, "{case} @ {threads} threads: ledger report");
        got.push((case.to_string(), hex(stats.fingerprint())));
        got.push((format!("{case}.per_node"), hex(per_node_hash(&stats))));
    }
    got
}

fn pins() -> Pins {
    Pins::load(env!("CARGO_MANIFEST_DIR"), "golden_stats", &CASES)
}

/// Serial runs reproduce the pins. `golden_stats_reproduce_with_ledger_enabled`
/// runs every case serially again against the same pins, so the runs also
/// repeat.
#[test]
fn golden_stats_match_seed_engine() {
    pins().check(&pins_at(1, false));
}

/// The sharded engine must be bit-identical to the serial engine: every
/// golden pin reproduces at every thread count in `GOLDEN_THREADS` (default
/// 2, 3, 4, 8). The sweep covers mid-run reconfiguration
/// (`reconfigure_live`), fault storms (`faults_and_glitches`,
/// `ringmesh_faults`), and the VCT fallback to the serial path
/// (`mc_vct_tree`). Three threads is the uneven split: the 8×8 cases get
/// shards of 22, 21 and 21 routers, with the shard boundaries in the middle
/// of a row. Thread counts above the router count exercise the shard-clamp
/// path.
#[test]
fn golden_stats_reproduce_at_every_thread_count() {
    pins().check_threads(&rfnoc_pins::threads(&[2, 3, 4, 8]), |t| pins_at(t, false));
}

/// The run ledger is a pure observer: every golden pin reproduces with the
/// ledger streaming, serial and sharded. The pins cover the simulated
/// statistics only, so a ledger that perturbed arbitration, scheduling, or
/// fault handling anywhere in the pinned cases would show up as a mismatch.
#[test]
fn golden_stats_reproduce_with_ledger_enabled() {
    pins().check_threads(&[1, 4], |t| pins_at(t, true));
}
