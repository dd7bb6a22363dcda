//! Golden-stats determinism suite: pins a hash of the full [`RunStats`]
//! for representative configurations, proving that engine optimizations
//! (active-router scheduling, zero-alloc steady state) are bit-identical
//! to the seed cycle engine. Any change to these hashes means the
//! optimized engine no longer simulates the same network.
//!
//! To re-bless after an *intentional* behavioural change (never for a
//! pure performance change), run:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p rfnoc-sim --test golden_stats -- --nocapture
//! ```
//!
//! and copy the printed table over `GOLDEN`.

use rfnoc_sim::{
    DestSet, FaultEvent, FaultPlan, LedgerConfig, McConfig, MessageClass, MessageSpec,
    MulticastMode, Network, NetworkSpec, RunStats, SimConfig, VctConfig, Workload,
};
use rfnoc_power::LinkWidth;
use rfnoc_topology::{FabricSpec, GridDims, Shortcut};
use std::cell::Cell;

/// FNV-1a over a canonical little-endian serialization.
#[derive(Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64s<'a>(&mut self, vs: impl IntoIterator<Item = &'a u64>) {
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Hashes every observable field of the run statistics.
fn hash_stats(s: &RunStats) -> u64 {
    let mut h = Fnv::new();
    h.u64(s.injected_messages);
    h.u64(s.completed_messages);
    h.u64(s.message_latency_sum);
    h.u64(s.message_latencies.len() as u64);
    for &l in &s.message_latencies {
        h.u64(l as u64);
    }
    h.u64(s.ejected_flits);
    h.u64(s.hops_sum);
    h.u64(s.hop_packets);
    h.u64(s.flit_latency_sum);
    h.u64s(&s.distance_histogram);
    h.u64(s.activity.cycles);
    h.u64s(&s.activity.router_bytes);
    h.u64(s.activity.link_byte_hops);
    h.u64(s.activity.rf_bytes);
    h.u64s(&s.port_flits);
    h.u64(s.pair_counts.len() as u64);
    for &c in &s.pair_counts {
        h.u64(c as u64);
    }
    h.u64(s.saturated as u64);
    h.u64(s.end_cycle);
    h.u64(s.shortcut_faults);
    h.u64(s.mesh_link_faults);
    h.u64(s.repairs);
    h.u64(s.retransmitted_flits);
    match &s.health {
        None => h.u64(0),
        Some(r) => {
            h.u64(1 + r.diagnosis as u64);
            h.u64(r.cycle);
            h.u64(r.outstanding);
            h.u64(r.stalled_for);
            h.u64(r.since_completion);
        }
    }
    h.0
}

/// A deterministic synthetic workload: xorshift-driven unicasts (and
/// optionally multicasts) at a fixed messages-per-cycle probability,
/// independent of any external RNG crate.
struct SyntheticWorkload {
    state: u64,
    nodes: usize,
    /// Injection probability per node per cycle, in 1/256ths.
    load_256: u64,
    /// One in `mc_every` messages is a multicast from `mc_srcs` (0 = none).
    mc_every: u64,
    mc_srcs: Vec<usize>,
    emitted: u64,
    until: u64,
}

impl SyntheticWorkload {
    fn unicast(seed: u64, nodes: usize, load_256: u64, until: u64) -> Self {
        Self { state: seed, nodes, load_256, mc_every: 0, mc_srcs: Vec::new(), emitted: 0, until }
    }

    fn with_multicast(mut self, every: u64, srcs: Vec<usize>) -> Self {
        self.mc_every = every;
        self.mc_srcs = srcs;
        self
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl Workload for SyntheticWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        if cycle >= self.until {
            return;
        }
        for src in 0..self.nodes {
            if self.next() % 256 >= self.load_256 {
                continue;
            }
            self.emitted += 1;
            if self.mc_every > 0 && self.emitted.is_multiple_of(self.mc_every) {
                let pick = (self.next() % self.mc_srcs.len() as u64) as usize;
                let tx = self.mc_srcs[pick];
                let mut dests = DestSet::empty();
                while dests.len() < 4 {
                    let d = (self.next() % self.nodes as u64) as usize;
                    if d != tx {
                        dests.insert(d);
                    }
                }
                out.push(MessageSpec::multicast(tx, dests));
                continue;
            }
            let mut dst = (self.next() % self.nodes as u64) as usize;
            if dst == src {
                dst = (dst + 1) % self.nodes;
            }
            let class = match self.next() % 3 {
                0 => MessageClass::Request,
                1 => MessageClass::Data,
                _ => MessageClass::Memory,
            };
            out.push(MessageSpec::unicast(src, dst, class));
        }
    }
}

thread_local! {
    /// When set, [`golden_config`] instruments the run with the ledger —
    /// the golden-with-ledger test flips this to re-run every pinned case
    /// observed, without touching the `run_case` arms. A
    /// thread-local (not an env var) keeps the parallel test harness
    /// race-free.
    static LEDGER_ON: Cell<bool> = const { Cell::new(false) };
}

fn golden_config(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_500;
    cfg.drain_cycles = 8_000;
    cfg.threads = threads;
    if LEDGER_ON.with(Cell::get) {
        cfg.ledger = Some(LedgerConfig::every(400));
    }
    cfg
}

/// [`golden_config`] at a non-default VC / buffer / link-width shape.
fn shaped_config(
    threads: usize,
    adaptive: usize,
    escape: usize,
    depth: usize,
    width: LinkWidth,
) -> SimConfig {
    let mut cfg = golden_config(threads).with_link_width(width);
    cfg.vcs_adaptive = adaptive;
    cfg.vcs_escape = escape;
    cfg.buffer_depth = depth;
    cfg
}

/// Staggered diagonal shortcut set obeying the one-in/one-out constraint.
fn shortcuts(dims: GridDims) -> Vec<Shortcut> {
    let n = dims.nodes();
    vec![
        Shortcut::new(0, n - 1),
        Shortcut::new(n - 1, 0),
        Shortcut::new(dims.width() - 1, n - dims.width()),
        Shortcut::new(n - dims.width(), dims.width() - 1),
    ]
}

fn rf_mc_spec(dims: GridDims, cfg: SimConfig) -> NetworkSpec {
    let receivers: Vec<usize> = (0..dims.nodes()).filter(|i| i % 3 == 0).collect();
    let serving = McConfig::serving_map(dims, &receivers);
    let mut cluster_of = vec![None; dims.nodes()];
    for (cluster, &tx) in [7usize, 10, 25, 28].iter().enumerate() {
        cluster_of[tx] = Some(cluster);
        cluster_of[tx + 1] = Some(cluster);
    }
    let mc = McConfig {
        transmitters: vec![7, 10, 25, 28],
        cluster_of,
        receivers,
        serving,
        epoch_cycles: 500,
        rf_flit_bytes: 16,
    };
    let mut spec = NetworkSpec::mesh_baseline(dims, cfg);
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    spec
}

/// The pinned configurations: `(name, hash of RunStats)`. Produced from
/// the seed (pre-optimization) engine; the optimized engine must match
/// every one bit-for-bit.
const GOLDEN: &[(&str, u64)] = &[
    ("mesh_xy_low_load", 0xef383ad486c84f90),
    ("mesh_xy_saturating", 0x60280cdeac6fe8cf),
    ("rf_static", 0xb3ab4d1b2b448cdb),
    ("rf_adaptive_detour", 0x8a653a45f680e33c),
    ("wire_shortcuts", 0x32b19fc93b2fabd9),
    ("mc_as_unicasts", 0xab134fb463122f42),
    ("mc_vct_tree", 0x3aff70747d1d5ecc),
    ("mc_rf_broadcast", 0x4bee21face551716),
    ("faults_and_glitches", 0x55babe268b18ef6d),
    ("reconfigure_live", 0x42e818c4a140779d),
    // Ring-mesh fabric cases (8x8, tile 4): pinned when the degree-generic
    // router landed, guarding the heterogeneous-degree port layout.
    ("ringmesh_base_low_load", 0xf7ccf1ddaa383cdb),
    ("ringmesh_rf_adaptive", 0x66d62b210993d2c2),
    ("ringmesh_faults", 0x1d525d4c6f8ea398),
    // VC-count / buffer-depth / link-width shapes other than the paper's
    // 4+8 VCs x 4 flits x 16B: pinned on the nested-Vec engine before the
    // flat router block replaced it, guarding everything the block layout
    // is sized by (mask widths, ring wrap-around, class boundaries).
    ("shape_1p1_depth1", 0xc9f11234133b2a7d),
    ("shape_2p4_depth2_b4_rf", 0x32184c7fc53fbe26),
    ("shape_4p12_depth8_rf_faults", 0x857c9d89b565c81d),
    ("shape_2p2_depth2_vct", 0x45d151d91c98698f),
    ("shape_ringmesh_1p2_depth3_b8", 0xf0a89bd7c99a4cc2),
    // Shortcuts with adaptive routing under saturating load, through an RF
    // teardown, a mesh-link detour and both repairs (two retunes mid-run):
    // every head waits for VCs while routes, tables and RF admission change.
    ("rf_adaptive_saturating_faults", 0xf6a7009d1e039a58),
];

/// The ring-mesh fabric the `ringmesh_*` golden cases run on.
fn ring_fabric() -> FabricSpec {
    FabricSpec::ring_mesh(GridDims::new(8, 8), 4)
}

fn run_case(name: &str, threads: usize) -> RunStats {
    let dims = GridDims::new(6, 6);
    let n = dims.nodes();
    let horizon = |cfg: &SimConfig| cfg.warmup_cycles + cfg.measure_cycles;
    match name {
        "mesh_xy_low_load" => {
            let cfg = golden_config(threads);
            let mut w = SyntheticWorkload::unicast(0x5eed_0001, n, 4, horizon(&cfg));
            Network::new(NetworkSpec::mesh_baseline(dims, cfg)).run(&mut w)
        }
        "mesh_xy_saturating" => {
            let mut cfg = golden_config(threads);
            cfg.drain_cycles = 2_000;
            cfg.watchdog_cycles = 0;
            let mut w = SyntheticWorkload::unicast(0x5eed_0002, n, 96, horizon(&cfg));
            Network::new(NetworkSpec::mesh_baseline(dims, cfg)).run(&mut w)
        }
        "rf_static" => {
            let mut cfg = golden_config(threads);
            cfg.adaptive_shortcut_routing = false;
            let mut w = SyntheticWorkload::unicast(0x5eed_0003, n, 16, horizon(&cfg));
            Network::new(NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims))).run(&mut w)
        }
        "rf_adaptive_detour" => {
            let cfg = golden_config(threads);
            let mut w = SyntheticWorkload::unicast(0x5eed_0004, n, 48, horizon(&cfg));
            Network::new(NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims))).run(&mut w)
        }
        "wire_shortcuts" => {
            let cfg = golden_config(threads);
            let mut spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims));
            spec.wire_shortcut_cycles_per_hop = Some(0.8);
            let mut w = SyntheticWorkload::unicast(0x5eed_0005, n, 16, horizon(&spec.config));
            Network::new(spec).run(&mut w)
        }
        "mc_as_unicasts" => {
            let mut cfg = golden_config(threads);
            cfg.collect_pair_counts = true;
            let mut w = SyntheticWorkload::unicast(0x5eed_0006, n, 12, horizon(&cfg))
                .with_multicast(5, vec![7, 10, 25, 28]);
            Network::new(NetworkSpec::mesh_baseline(dims, cfg)).run(&mut w)
        }
        "mc_vct_tree" => {
            let cfg = golden_config(threads);
            let mut spec = NetworkSpec::mesh_baseline(dims, cfg);
            spec.multicast = MulticastMode::Vct(VctConfig::default());
            let mut w = SyntheticWorkload::unicast(0x5eed_0007, n, 12, horizon(&spec.config))
                .with_multicast(4, vec![7, 10, 25, 28]);
            Network::new(spec).run(&mut w)
        }
        "mc_rf_broadcast" => {
            let cfg = golden_config(threads);
            let spec = rf_mc_spec(dims, cfg);
            let mut w = SyntheticWorkload::unicast(0x5eed_0008, n, 12, horizon(&spec.config))
                .with_multicast(4, vec![7, 10, 25, 28]);
            Network::new(spec).run(&mut w)
        }
        "faults_and_glitches" => {
            let cfg = golden_config(threads);
            let plan = FaultPlan::new(vec![
                (300, FaultEvent::ShortcutDown { src: 0 }),
                (500, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
                (700, FaultEvent::LinkGlitch { a: 8, b: 14 }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
                (1_100, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
            ]);
            let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims))
                .with_fault_plan(plan);
            let mut w = SyntheticWorkload::unicast(0x5eed_0009, n, 24, horizon(&spec.config));
            Network::new(spec).run(&mut w)
        }
        "reconfigure_live" => {
            let cfg = golden_config(threads);
            let mut net = Network::new(NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims)));
            net.reconfigure(vec![Shortcut::new(2, 33), Shortcut::new(33, 2)])
                .expect("legal retune");
            let mut w =
                SyntheticWorkload::unicast(0x5eed_000a, n, 24, net.dims().nodes() as u64 + 1_700);
            net.run(&mut w)
        }
        "ringmesh_base_low_load" => {
            let fabric = ring_fabric();
            let cfg = golden_config(threads);
            let mut w =
                SyntheticWorkload::unicast(0x5eed_000b, fabric.dims().nodes(), 8, horizon(&cfg));
            Network::new(NetworkSpec::with_fabric(fabric, cfg, Vec::new())).run(&mut w)
        }
        "ringmesh_rf_adaptive" => {
            let fabric = ring_fabric();
            let cfg = golden_config(threads);
            let rn = fabric.dims().nodes();
            let mut w = SyntheticWorkload::unicast(0x5eed_000c, rn, 32, horizon(&cfg));
            Network::new(NetworkSpec::with_fabric(fabric, cfg, shortcuts(fabric.dims())))
                .run(&mut w)
        }
        "ringmesh_faults" => {
            let fabric = ring_fabric();
            let cfg = golden_config(threads);
            let rn = fabric.dims().nodes();
            // A base link of router 0 picked from the fabric itself, so the
            // case stays valid whatever the tile's ring order is.
            let nb = fabric.neighbors(0)[0];
            let plan = FaultPlan::new(vec![
                (300, FaultEvent::ShortcutDown { src: 0 }),
                (500, FaultEvent::MeshLinkDown { a: 0, b: nb }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: rn - 1 }),
                (1_100, FaultEvent::MeshLinkUp { a: 0, b: nb }),
            ]);
            let spec = NetworkSpec::with_fabric(fabric, cfg, shortcuts(fabric.dims()))
                .with_fault_plan(plan);
            let mut w = SyntheticWorkload::unicast(0x5eed_000d, rn, 16, horizon(&spec.config));
            Network::new(spec).run(&mut w)
        }
        "shape_1p1_depth1" => {
            // One VC per class, one slot per VC: every flit waits for the
            // credit of the one before it.
            let cfg = shaped_config(threads, 1, 1, 1, LinkWidth::B16);
            let mut w = SyntheticWorkload::unicast(0x5eed_000e, n, 10, horizon(&cfg));
            Network::new(NetworkSpec::mesh_baseline(dims, cfg)).run(&mut w)
        }
        "shape_2p4_depth2_b4_rf" => {
            // 4B links: packets of up to 33 flits wrap the two-slot rings
            // many times, and the 16B RF channel burst-drains four narrow
            // flits a cycle.
            let cfg = shaped_config(threads, 2, 4, 2, LinkWidth::B4);
            let mut w = SyntheticWorkload::unicast(0x5eed_000f, n, 10, horizon(&cfg));
            Network::new(NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims))).run(&mut w)
        }
        "shape_4p12_depth8_rf_faults" => {
            // The widest shape in the repo (ablation_escape_vcs), under RF
            // teardown/repair, a mesh-link detour and a glitch.
            let cfg = shaped_config(threads, 4, 12, 8, LinkWidth::B8);
            let plan = FaultPlan::new(vec![
                (300, FaultEvent::ShortcutDown { src: 0 }),
                (500, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
                (700, FaultEvent::LinkGlitch { a: 8, b: 14 }),
                (750, FaultEvent::LinkGlitch { a: n - 1, b: 0 }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
                (1_100, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
            ]);
            let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims))
                .with_fault_plan(plan);
            let mut w = SyntheticWorkload::unicast(0x5eed_0010, n, 40, horizon(&spec.config));
            Network::new(spec).run(&mut w)
        }
        "shape_2p2_depth2_vct" => {
            // Tree multicast replication out of two-slot rings.
            let cfg = shaped_config(threads, 2, 2, 2, LinkWidth::B8);
            let mut spec = NetworkSpec::mesh_baseline(dims, cfg);
            spec.multicast = MulticastMode::Vct(VctConfig::default());
            let mut w = SyntheticWorkload::unicast(0x5eed_0011, n, 8, horizon(&spec.config))
                .with_multicast(4, vec![7, 10, 25, 28]);
            Network::new(spec).run(&mut w)
        }
        "shape_ringmesh_1p2_depth3_b8" => {
            // Heterogeneous-degree routers (2/6 base ports) at a shape
            // where depth is not a power of two.
            let fabric = ring_fabric();
            let cfg = shaped_config(threads, 1, 2, 3, LinkWidth::B8);
            let rn = fabric.dims().nodes();
            let mut w = SyntheticWorkload::unicast(0x5eed_0012, rn, 6, horizon(&cfg));
            Network::new(NetworkSpec::with_fabric(fabric, cfg, shortcuts(fabric.dims())))
                .run(&mut w)
        }
        "rf_adaptive_saturating_faults" => {
            let mut cfg = golden_config(threads);
            cfg.drain_cycles = 2_000;
            cfg.watchdog_cycles = 0;
            let plan = FaultPlan::new(vec![
                (400, FaultEvent::ShortcutDown { src: 0 }),
                (600, FaultEvent::MeshLinkDown { a: 14, b: 15 }),
                (900, FaultEvent::ShortcutUp { src: 0, dst: n - 1 }),
                (1_200, FaultEvent::MeshLinkUp { a: 14, b: 15 }),
            ]);
            let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims))
                .with_fault_plan(plan);
            let mut w = SyntheticWorkload::unicast(0x5eed_0013, n, 96, horizon(&spec.config));
            Network::new(spec).run(&mut w)
        }
        other => panic!("unknown golden case {other:?}"),
    }
}

#[test]
fn golden_stats_match_seed_engine() {
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    let mut failures = Vec::new();
    for &(name, expected) in GOLDEN {
        let stats = run_case(name, 1);
        // Campaigns off: no recovery tracker was configured, so no records
        // may leak into the stats (and none are hashed above).
        assert!(stats.recovery.is_empty(), "{name}: recovery records without a tracker");
        let actual = hash_stats(&stats);
        if bless {
            println!("    (\"{name}\", {actual:#018x}),");
        } else if actual != expected {
            failures.push(format!("{name}: expected {expected:#018x}, got {actual:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "RunStats diverged from the seed engine:\n  {}\n\
         The optimized engine must be bit-identical; if the change is an\n\
         intentional behavioural fix, re-bless with GOLDEN_BLESS=1.",
        failures.join("\n  ")
    );
}

/// The golden runs must themselves be deterministic: two executions of
/// the same case produce identical statistics.
#[test]
fn golden_cases_repeat_identically() {
    for &(name, _) in GOLDEN {
        let a = hash_stats(&run_case(name, 1));
        let b = hash_stats(&run_case(name, 1));
        assert_eq!(a, b, "case {name} is non-deterministic");
    }
}

/// The sharded engine must be bit-identical to the serial engine: every
/// golden hash reproduces at every thread count, against the *same*
/// pinned constants (never re-blessed per thread count). The sweep covers
/// mid-run reconfiguration (`reconfigure_live`), fault storms
/// (`faults_and_glitches`, `ringmesh_faults`), and the VCT fallback to
/// the serial path (`mc_vct_tree`). Three threads is the uneven split:
/// the 8×8 cases get shards of 22, 21 and 21 routers, with the shard
/// boundaries in the middle of a row. Thread counts above the router
/// count exercise the shard-clamp path.
#[test]
fn golden_stats_reproduce_at_every_thread_count() {
    let threads_env = std::env::var("GOLDEN_THREADS").ok();
    let sweep: Vec<usize> = match &threads_env {
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("GOLDEN_THREADS is a comma-separated list"))
            .collect(),
        None => vec![2, 3, 4, 8],
    };
    let mut failures = Vec::new();
    for &threads in &sweep {
        for &(name, expected) in GOLDEN {
            let actual = hash_stats(&run_case(name, threads));
            if actual != expected {
                failures.push(format!(
                    "{name} @ {threads} threads: expected {expected:#018x}, got {actual:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "sharded engine diverged from the serial engine:\n  {}",
        failures.join("\n  ")
    );
}

/// The run ledger is a pure observer: every golden hash reproduces with
/// the ledger streaming, serial and sharded, against the *same* pinned
/// constants. The hash covers the simulated statistics only, so a ledger
/// that perturbed arbitration, scheduling, or fault handling anywhere in
/// the pinned cases would show up as a hash mismatch.
#[test]
fn golden_stats_reproduce_with_ledger_enabled() {
    LEDGER_ON.with(|l| l.set(true));
    let mut failures = Vec::new();
    for &threads in &[1usize, 4] {
        for &(name, expected) in GOLDEN {
            let stats = run_case(name, threads);
            assert!(
                stats.ledger.is_some(),
                "{name} @ {threads} threads: ledger report missing"
            );
            let actual = hash_stats(&stats);
            if actual != expected {
                failures.push(format!(
                    "{name} @ {threads} threads: expected {expected:#018x}, got {actual:#018x}"
                ));
            }
        }
    }
    LEDGER_ON.with(|l| l.set(false));
    assert!(
        failures.is_empty(),
        "ledger instrumentation perturbed the engine:\n  {}",
        failures.join("\n  ")
    );
}
