//! Sharded-engine properties: the shard partition covers every router of
//! any fabric exactly once, and the parallel engine is bit-identical to
//! the serial one — on random fabrics, shortcut sets and loads with every
//! observer on, and under a correlated fault storm, the adversarial case
//! for cross-shard event ordering (mid-run table rewrites, glitch
//! retransmissions, and RF-band teardown all land at cycle boundaries
//! shared by every shard).

#[path = "common/synthetic.rs"]
mod synthetic;

use proptest::prelude::*;
use rfnoc_sim::{shard_ranges, FaultPlan, Network, NetworkSpec, SimConfig, TelemetryConfig};
use rfnoc_topology::{FabricSpec, GridDims, Shortcut};
use synthetic::SyntheticWorkload;

/// A mesh over `dims`, or — when `tile_sel` is non-zero and some tile size
/// divides both sides — a ring-mesh with one of the dividing tiles.
fn pick_fabric(dims: GridDims, tile_sel: usize) -> FabricSpec {
    let (w, h) = (dims.width(), dims.height());
    let tiles: Vec<usize> = (2..=w.min(h)).filter(|t| w % t == 0 && h % t == 0).collect();
    if tiles.is_empty() || tile_sel == 0 {
        FabricSpec::mesh(dims)
    } else {
        FabricSpec::ring_mesh(dims, tiles[tile_sel % tiles.len()])
    }
}

/// A legal shortcut set over `ranges` (at least two shards of at least two
/// routers each): one shortcut with both ends inside a single shard, one
/// spanning two shards, and up to `extra` more drawn anywhere. A draw that
/// would give a router a second transmitter or receiver is dropped.
fn shard_aware_shortcuts(ranges: &[(usize, usize)], seed: u64, extra: usize) -> Vec<Shortcut> {
    let n = ranges.last().expect("at least one shard").1;
    let mut state = seed | 1;
    let mut below = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let len = |s: usize| ranges[s].1 - ranges[s].0;
    let (mut tx, mut rx) = (vec![false; n], vec![false; n]);
    let mut out = Vec::new();
    let mut add = |src: usize, dst: usize| {
        let legal = src != dst && !tx[src] && !rx[dst];
        if legal {
            tx[src] = true;
            rx[dst] = true;
            out.push(Shortcut::new(src, dst));
        }
        legal
    };
    // Intra-shard: two distinct routers of one shard.
    let s = below(ranges.len());
    let a = below(len(s));
    let b = (a + 1 + below(len(s) - 1)) % len(s);
    add(ranges[s].0 + a, ranges[s].0 + b);
    // Spanning: one router in each of two different shards, redrawn until
    // it shares no transmitter or receiver with the first.
    loop {
        let s0 = below(ranges.len());
        let s1 = (s0 + 1 + below(ranges.len() - 1)) % ranges.len();
        if add(ranges[s0].0 + below(len(s0)), ranges[s1].0 + below(len(s1))) {
            break;
        }
    }
    for _ in 0..extra {
        add(below(n), below(n));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial and sharded runs are equal in everything a run reports: the
    /// whole `RunStats` with telemetry and the per-hop profile on
    /// (interval samples, packet spans, hop chains, timeline events —
    /// order included), on random meshes and
    /// ring-meshes up to 12×12, even and uneven shard splits, shortcut sets
    /// with an intra-shard and a shard-spanning shortcut, random load, and
    /// a correlated fault storm on half the cases.
    #[test]
    fn sharded_run_equals_serial_run_on_random_fabrics(
        w in 4usize..13,
        h in 4usize..13,
        tile_sel in 0usize..3,
        threads in 2usize..5,
        seed in any::<u64>(),
        load_256 in 2u64..36,
        extra_shortcuts in 0usize..5,
        storm in any::<bool>(),
    ) {
        let dims = GridDims::new(w, h);
        let fabric = pick_fabric(dims, tile_sel);
        let n = fabric.nodes();
        let ranges = shard_ranges(n, threads);
        let shortcuts = shard_aware_shortcuts(&ranges, seed, extra_shortcuts);
        let shard_of = |r: usize| ranges.iter().position(|&(s, e)| s <= r && r < e).unwrap();
        prop_assert!(shortcuts.len() >= 2);
        prop_assert_eq!(shard_of(shortcuts[0].src), shard_of(shortcuts[0].dst));
        prop_assert_ne!(shard_of(shortcuts[1].src), shard_of(shortcuts[1].dst));

        let run = |threads: usize| {
            let mut cfg = SimConfig::paper_baseline().with_threads(threads);
            cfg.warmup_cycles = 200;
            cfg.measure_cycles = 1_200;
            cfg.drain_cycles = 6_000;
            cfg.telemetry = Some(TelemetryConfig::profiling(100));
            let mut spec = NetworkSpec::with_fabric(fabric, cfg, shortcuts.clone());
            if storm {
                let plan = FaultPlan::correlated(
                    seed,
                    &fabric,
                    &shortcuts,
                    2.0,
                    load_256 as f64 / 16.0,
                    200..1_400,
                );
                spec = spec.with_fault_plan(plan);
            }
            let mut workload = SyntheticWorkload::new(seed | 1, n, load_256, 0, 1_400);
            Network::new(spec).run(&mut workload)
        };
        let serial = run(1);
        let sharded = run(threads);
        prop_assert!(serial.completed_messages > 0);
        prop_assert!(serial.telemetry.as_ref().is_some_and(|t| !t.hops.is_empty()));
        prop_assert!(
            serial == sharded,
            "{fabric:?} with {shortcuts:?}, load {load_256}/256, storm {storm}: \
             statistics diverged between 1 and {threads} engine threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shard_ranges` partitions any fabric's routers: every router falls
    /// in exactly one contiguous shard, shards are ordered, and no shard
    /// is empty. Thread counts above the router count must clamp rather
    /// than emit empty shards.
    #[test]
    fn shard_partition_covers_every_router_exactly_once(
        w in 2usize..10,
        h in 2usize..10,
        tile_sel in 0usize..3,
        threads in 1usize..33,
    ) {
        let fabric = pick_fabric(GridDims::new(w, h), tile_sel);
        let n = fabric.nodes();
        let ranges = shard_ranges(n, threads);

        prop_assert!(!ranges.is_empty());
        prop_assert!(ranges.len() <= threads.min(n));
        let mut next = 0usize;
        for &(start, end) in &ranges {
            prop_assert_eq!(start, next, "shards must be contiguous and ordered");
            prop_assert!(end > start, "no empty shards");
            next = end;
        }
        prop_assert_eq!(next, n, "every router covered exactly once");
        // Balanced: shard sizes differ by at most one router.
        let sizes: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced shards: {:?}", sizes);
    }
}

/// A correlated fault storm — regional link failures, a glitch burst, and
/// the band-down-during-retune race — produces bit-identical statistics
/// at 1, 2, 4, and 8 engine threads. (The golden-stats thread sweep
/// covers the pinned scripted cases including mid-run `reconfigure`; this
/// covers the storm generator end to end.)
#[test]
fn fault_storm_stats_identical_across_thread_counts() {
    let dims = GridDims::new(8, 8);
    let fabric = FabricSpec::mesh(dims);
    let shortcuts = vec![Shortcut::new(0, 63), Shortcut::new(56, 7), Shortcut::new(7, 56)];
    let run = |threads: usize| {
        let mut cfg = SimConfig::paper_baseline().with_threads(threads);
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 6_000;
        cfg.drain_cycles = 20_000;
        let plan =
            FaultPlan::correlated(11, &fabric, &shortcuts, 2.0, 1.0, 500..6_500);
        assert!(!plan.is_empty());
        let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts.clone())
            .with_fault_plan(plan);
        let mut w = SyntheticWorkload::new(0x5701_4a11, dims.nodes(), 20, 0, 6_500);
        Network::new(spec).run(&mut w)
    };
    let serial = run(1);
    for threads in [2usize, 4, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial, parallel,
            "storm run diverged between 1 and {threads} engine threads"
        );
    }
}
