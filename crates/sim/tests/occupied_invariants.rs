//! Single-stepped invariant checks for the flat router block's derived
//! state. After every cycle `Network::debug_validate` recomputes from
//! primary state and compares: each input port's occupied list (exactly
//! the claimed VCs, no duplicates, no stale entries), the VA/SA masks and
//! the header's port masks, every free-VC mask, the arrival FIFOs, "cold
//! multicast entry present ⇔ `mc_routed`", flit/credit conservation on
//! every link, active-set coverage (any router with pending work is
//! scheduled for the next visit) and parked heads (no lost wake-up: each
//! still could not allocate, and still waits on the ports its route names)
//! — across unicast, adaptive-RF, static-RF, multicast (tree and RF
//! broadcast), fault, and reconfiguration traffic, at the paper's router
//! shape and at others, serial and sharded.

use rfnoc_sim::{
    DestSet, FaultEvent, FaultPlan, McConfig, MessageClass, MessageSpec, MulticastMode, Network,
    NetworkSpec, SimConfig, VctConfig,
};
use rfnoc_power::LinkWidth;
use rfnoc_topology::{FabricSpec, GridDims, Shortcut};

const DIMS: (usize, usize) = (6, 6);

fn dims() -> GridDims {
    GridDims::new(DIMS.0, DIMS.1)
}

fn cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    // Irrelevant: we single-step. Any window the cycle range admits.
    cfg.measure_cycles = 1 << 30;
    cfg
}

fn shortcuts() -> Vec<Shortcut> {
    let d = dims();
    let n = d.nodes();
    vec![
        Shortcut::new(0, n - 1),
        Shortcut::new(n - 1, 0),
        Shortcut::new(d.width() - 1, n - d.width()),
        Shortcut::new(n - d.width(), d.width() - 1),
    ]
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Drives `net` for `cycles` cycles at roughly `load_256`/256 unicasts
/// per node per cycle (plus one multicast per `mc_every` messages when
/// non-zero), validating the bookkeeping after every single step, then
/// drains with validation until the network goes idle.
fn drive(net: Network, seed: u64, load_256: u64, cycles: u64, mc_every: u64) {
    drive_with(net, seed, load_256, cycles, mc_every, |_, _| {});
}

/// [`drive`], calling `before_step(net, cycle)` ahead of each loaded
/// cycle's step.
fn drive_with(
    mut net: Network,
    seed: u64,
    load_256: u64,
    cycles: u64,
    mc_every: u64,
    mut before_step: impl FnMut(&mut Network, u64),
) {
    let n = net.dims().nodes();
    let mut rng = Rng(seed);
    let mut emitted = 0u64;
    for cycle in 0..cycles {
        before_step(&mut net, cycle);
        for src in 0..n {
            if rng.next() % 256 >= load_256 {
                continue;
            }
            emitted += 1;
            if mc_every > 0 && emitted.is_multiple_of(mc_every) {
                let mut dests = DestSet::empty();
                while dests.len() < 4 {
                    let d = (rng.next() % n as u64) as usize;
                    if d != src {
                        dests.insert(d);
                    }
                }
                net.inject_message(MessageSpec::multicast(src, dests));
                continue;
            }
            let mut dst = (rng.next() % n as u64) as usize;
            if dst == src {
                dst = (dst + 1) % n;
            }
            let class = match rng.next() % 3 {
                0 => MessageClass::Request,
                1 => MessageClass::Data,
                _ => MessageClass::Memory,
            };
            net.inject_message(MessageSpec::unicast(src, dst, class));
        }
        net.step();
        net.debug_validate();
    }
    // Drain: with injection stopped every wormhole must retire, leaving
    // every VC released (checked by debug_validate each cycle) and no
    // injection backlog.
    for _ in 0..20_000 {
        net.step();
        net.debug_validate();
        if net.injection_backlog() == 0 {
            break;
        }
    }
    assert_eq!(net.injection_backlog(), 0, "network failed to drain");
}

#[test]
fn occupied_consistent_mesh_unicast() {
    let net = Network::new(NetworkSpec::mesh_baseline(dims(), cfg()));
    drive(net, 0x0cc_0001, 32, 600, 0);
}

#[test]
fn occupied_consistent_under_saturation() {
    let net = Network::new(NetworkSpec::mesh_baseline(dims(), cfg()));
    drive(net, 0x0cc_0002, 128, 400, 0);
}

#[test]
fn occupied_consistent_rf_adaptive() {
    let net = Network::new(NetworkSpec::with_shortcuts(dims(), cfg(), shortcuts()));
    drive(net, 0x0cc_0003, 48, 600, 0);
}

#[test]
fn occupied_consistent_vct_multicast() {
    let mut spec = NetworkSpec::mesh_baseline(dims(), cfg());
    spec.multicast = MulticastMode::Vct(VctConfig::default());
    // Multicast retire paths exercise release-under-fanout: a VC frees
    // only after the front flit reaches every branch.
    drive(Network::new(spec), 0x0cc_0004, 24, 600, 3);
}

#[test]
fn occupied_consistent_rf_broadcast() {
    let d = dims();
    let receivers: Vec<usize> = (0..d.nodes()).filter(|i| i % 3 == 0).collect();
    let serving = McConfig::serving_map(d, &receivers);
    let transmitters = vec![7usize, 10, 25, 28];
    let mut cluster_of = vec![None; d.nodes()];
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
    let mut spec = NetworkSpec::mesh_baseline(d, cfg());
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    drive(Network::new(spec), 0x0cc_0005, 24, 600, 3);
}

#[test]
fn occupied_consistent_through_faults() {
    let spec =
        NetworkSpec::with_shortcuts(dims(), cfg(), shortcuts()).with_fault_plan(fault_plan());
    drive(Network::new(spec), 0x0cc_0006, 32, 600, 0);
}

#[test]
fn occupied_consistent_through_reconfiguration() {
    let mut net = Network::new(NetworkSpec::with_shortcuts(dims(), cfg(), shortcuts()));
    net.reconfigure(vec![Shortcut::new(2, 33), Shortcut::new(33, 2)]).expect("legal retune");
    drive(net, 0x0cc_0007, 32, 600, 0);
}

/// Static shortcut routing parks heads on the RF ports; loaded retunes
/// then close and reopen them under parked heads. Every tenth cycle from
/// 50 on requests a retune to the other of two shortcut sets (refused
/// while one is in flight), so drains start at many points of the run.
/// From cycle 250 two shortcuts fail and are repaired in turn every 15
/// cycles, so faults also land inside a 40-cycle table rewrite and queue
/// the next drain behind it.
#[test]
fn parked_heads_follow_rf_admission_changes() {
    let mut cfg = cfg();
    cfg.adaptive_shortcut_routing = false;
    cfg.reconfig_cycles = 40;
    let n = dims().nodes();
    let plan = FaultPlan::new(
        (0..16u64)
            .map(|k| {
                let event = match k % 4 {
                    0 => FaultEvent::ShortcutDown { src: 0 },
                    1 => FaultEvent::ShortcutDown { src: 5 },
                    2 => FaultEvent::ShortcutUp { src: 0, dst: n - 1 },
                    _ => FaultEvent::ShortcutUp { src: 5, dst: n - 6 },
                };
                (250 + 15 * k, event)
            })
            .collect(),
    );
    let net = Network::new(
        NetworkSpec::with_shortcuts(dims(), cfg, shortcuts()).with_fault_plan(plan),
    );
    let sets = [vec![Shortcut::new(2, 33), Shortcut::new(33, 2)], shortcuts()];
    let mut retunes = 0;
    drive_with(net, 0x0cc_0008, 96, 500, 0, |net, cycle| {
        if cycle >= 50 && cycle % 10 == 0 && net.reconfigure(sets[retunes % 2].clone()).is_ok() {
            retunes += 1;
        }
    });
    assert!(retunes >= 2, "only {retunes} retunes requested");
}

/// `(adaptive VCs, escape VCs, buffer depth, link width)` shapes away from
/// the paper's 4+8 x 4 x 16B: the narrowest, a long-packet one whose rings
/// wrap many times per packet, the widest in the repo, and the widest the
/// VC masks hold (bit 31 in use).
const SHAPES: [(usize, usize, usize, LinkWidth); 4] = [
    (1, 1, 1, LinkWidth::B16),
    (2, 4, 2, LinkWidth::B4),
    (4, 12, 8, LinkWidth::B8),
    (16, 16, 3, LinkWidth::B16),
];

fn shaped(adaptive: usize, escape: usize, depth: usize, width: LinkWidth) -> SimConfig {
    let mut cfg = cfg().with_link_width(width);
    cfg.vcs_adaptive = adaptive;
    cfg.vcs_escape = escape;
    cfg.buffer_depth = depth;
    cfg
}

fn fault_plan() -> FaultPlan {
    let n = dims().nodes();
    FaultPlan::new(vec![
        (100, FaultEvent::ShortcutDown { src: 0 }),
        (180, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
        (260, FaultEvent::LinkGlitch { a: 8, b: 14 }),
        (340, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
        (420, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
    ])
}

#[test]
fn invariants_hold_at_other_router_shapes() {
    for (i, &(adaptive, escape, depth, width)) in SHAPES.iter().enumerate() {
        let mut spec = NetworkSpec::with_shortcuts(
            dims(),
            shaped(adaptive, escape, depth, width),
            shortcuts(),
        );
        // With a lone escape VC the detour routes around a failed mesh
        // link deadlock (they are not dimension-ordered; the nested-Vec
        // engine hung identically), so the narrowest shape runs fault-free.
        if escape > 1 {
            spec = spec.with_fault_plan(fault_plan());
        }
        drive(Network::new(spec), 0x0cc_0100 + i as u64, 20, 500, 0);
    }
}

#[test]
fn invariants_hold_for_tree_multicast_at_other_router_shapes() {
    // Tree replication holds several output VCs at once and deadlocks with
    // one VC per class (the nested-Vec engine hung identically), so that
    // shape is skipped.
    for (i, &(adaptive, escape, depth, width)) in SHAPES.iter().enumerate().skip(1) {
        let mut spec = NetworkSpec::mesh_baseline(dims(), shaped(adaptive, escape, depth, width));
        spec.multicast = MulticastMode::Vct(VctConfig::default());
        drive(Network::new(spec), 0x0cc_0200 + i as u64, 10, 400, 3);
    }
}

#[test]
fn invariants_hold_on_the_sharded_engine() {
    // 3 → 6 keeps both ends inside shard 0 at every thread count below;
    // the four corner shortcuts each span two shards. Three threads is the
    // uneven split, and the ring-mesh adds gateway routers with more ports
    // than their ring neighbours.
    let mut shortcuts = shortcuts();
    shortcuts.push(Shortcut::new(3, 6));
    let ring = FabricSpec::ring_mesh(dims(), 3);
    let n = dims().nodes();
    // Base links picked from the fabric itself, so the plan stays valid
    // whatever the tile's ring order is.
    let (nb0, nb20) = (ring.neighbors(0)[0], ring.neighbors(20)[0]);
    let ring_plan = FaultPlan::new(vec![
        (100, FaultEvent::ShortcutDown { src: 0 }),
        (180, FaultEvent::MeshLinkDown { a: 0, b: nb0 }),
        (260, FaultEvent::LinkGlitch { a: 20, b: nb20 }),
        (340, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
        (420, FaultEvent::MeshLinkUp { a: 0, b: nb0 }),
    ]);
    for threads in [1, 2, 3, 4] {
        let cfg = cfg().with_threads(threads);
        let on_mesh = NetworkSpec::with_shortcuts(dims(), cfg.clone(), shortcuts.clone())
            .with_fault_plan(fault_plan());
        drive(Network::new(on_mesh), 0x0cc_0300, 32, 500, 0);
        let on_ring = NetworkSpec::with_fabric(ring, cfg, shortcuts.clone())
            .with_fault_plan(ring_plan.clone());
        drive(Network::new(on_ring), 0x0cc_0301, 24, 500, 0);
    }
}
