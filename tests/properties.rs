//! Property-based tests over the core data structures and invariants,
//! spanning the topology, traffic, and simulator crates.

use proptest::prelude::*;
use rfnoc_power::LinkWidth;
use rfnoc_sim::{
    DestSet, MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload, SimConfig,
};
use rfnoc_topology::routing::{xy_route, RoutingTables};
use rfnoc_topology::select::{check_constraints, select_max_cost, SelectionConstraints};
use rfnoc_topology::{FabricSpec, GridDims, GridGraph, PairWeights, Shortcut};

fn quick_config() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 2_000;
    cfg.drain_cycles = 30_000;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// APSP distances on a pure mesh equal Manhattan distance.
    #[test]
    fn mesh_distances_are_manhattan(w in 2usize..8, h in 2usize..8) {
        let dims = GridDims::new(w, h);
        let dist = GridGraph::mesh(dims).distances();
        for a in 0..dims.nodes() {
            for b in 0..dims.nodes() {
                prop_assert_eq!(dist.get(a, b), dims.manhattan(a, b));
            }
        }
    }

    /// Adding any set of legal shortcuts never increases any pairwise
    /// distance, and after every single addition the pruned in-place
    /// update agrees with a full recomputation — on the mesh and on the
    /// ring-mesh.
    #[test]
    fn shortcuts_never_hurt(
        w in 1usize..5,
        h in 1usize..5,
        tile in 0usize..4,
        edges in proptest::collection::vec((0usize..400, 0usize..400), 0..6),
    ) {
        // `tile` 0 and 1 stand for the mesh; 2 and 3 tile a ring-mesh.
        let fabric = if tile < 2 {
            FabricSpec::mesh(GridDims::new(w + 2, h + 2))
        } else {
            FabricSpec::ring_mesh(GridDims::new(w * tile, h * tile), tile)
        };
        let n = fabric.nodes();
        let mut g = GridGraph::from_fabric(&fabric, &[]);
        let base = g.distances();
        let mut dist = base.clone();
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a == b || g.shortcuts().contains(&Shortcut::new(a, b)) {
                continue;
            }
            g.add_shortcut(Shortcut::new(a, b));
            dist.apply_edge(a, b);
            prop_assert_eq!(&dist, &g.distances(), "{} after {} -> {}", fabric, a, b);
        }
        for a in 0..n {
            for b in 0..n {
                prop_assert!(dist.get(a, b) <= base.get(a, b));
            }
        }
    }

    /// Shortest-path routing tables produce loop-free routes whose length
    /// equals the APSP distance, for arbitrary legal shortcut sets.
    #[test]
    fn routing_tables_are_shortest(
        seed_edges in proptest::collection::vec((0usize..36, 0usize..36), 0..5),
    ) {
        let dims = GridDims::new(6, 6);
        let mut g = GridGraph::mesh(dims);
        let mut used_src = [false; 36];
        let mut used_dst = [false; 36];
        for (a, b) in seed_edges {
            if a != b && !used_src[a] && !used_dst[b] {
                g.add_shortcut(Shortcut::new(a, b));
                used_src[a] = true;
                used_dst[b] = true;
            }
        }
        let dist = g.distances();
        let tables = RoutingTables::shortest_path(&g);
        for src in 0..36 {
            for dst in 0..36 {
                let route = tables.route(src, dst);
                prop_assert_eq!(route.len() as u32 - 1, dist.get(src, dst));
            }
        }
    }

    /// XY routes only ever move through adjacent routers and have
    /// Manhattan length.
    #[test]
    fn xy_routes_are_minimal(src in 0usize..100, dst in 0usize..100) {
        let dims = GridDims::new(10, 10);
        let route = xy_route(dims, src, dst);
        prop_assert_eq!(route.len() as u32 - 1, dims.manhattan(src, dst));
        for pair in route.windows(2) {
            prop_assert_eq!(dims.manhattan(pair[0], pair[1]), 1);
        }
    }

    /// The max-cost selection never violates its constraints for random
    /// eligibility sets and budgets.
    #[test]
    fn selection_respects_random_constraints(
        budget in 1usize..20,
        eligible in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let dims = GridDims::new(8, 8);
        let g = GridGraph::mesh(dims);
        let weights = PairWeights::uniform(64);
        let constraints = SelectionConstraints {
            budget,
            eligible,
            max_out_per_node: 1,
            max_in_per_node: 1,
        };
        let picked = select_max_cost(&g, &weights, &constraints);
        prop_assert!(check_constraints(&g, &picked, &constraints).is_ok());
    }

    /// Every injected message is delivered exactly once (flit conservation)
    /// on arbitrary message schedules, at every link width.
    #[test]
    fn all_messages_delivered(
        msgs in proptest::collection::vec((0usize..36, 0usize..36, 0u8..3), 1..60),
        width_idx in 0usize..3,
    ) {
        let dims = GridDims::new(6, 6);
        let width = LinkWidth::all()[width_idx];
        let events: Vec<(u64, MessageSpec)> = msgs
            .iter()
            .enumerate()
            .filter(|(_, (s, d, _))| s != d)
            .map(|(i, (s, d, c))| {
                let class = match c {
                    0 => MessageClass::Request,
                    1 => MessageClass::Data,
                    _ => MessageClass::Memory,
                };
                ((i / 4) as u64, MessageSpec::unicast(*s, *d, class))
            })
            .collect();
        let expected: u64 = events.len() as u64;
        let expected_flits: u64 =
            events.iter().map(|(_, m)| width.flits_for(m.bytes()) as u64).sum();
        let cfg = quick_config().with_link_width(width);
        let mut network = Network::new(NetworkSpec::mesh_baseline(dims, cfg));
        let stats = network.run(&mut ScriptedWorkload::new(events));
        prop_assert_eq!(stats.completed_messages, expected);
        prop_assert_eq!(stats.ejected_flits, expected_flits);
        prop_assert!(!stats.saturated);
    }

    /// Multicast messages complete exactly once regardless of destination
    /// set, including sets containing the source.
    #[test]
    fn multicasts_complete_once(
        src in 0usize..36,
        dests in proptest::collection::hash_set(0usize..36, 1..10),
    ) {
        let dims = GridDims::new(6, 6);
        let set = DestSet::from_nodes(dests.iter().copied());
        let mut network =
            Network::new(NetworkSpec::mesh_baseline(dims, quick_config()));
        let stats = network.run(&mut ScriptedWorkload::new(vec![(
            0,
            MessageSpec::multicast(src, set),
        )]));
        prop_assert_eq!(stats.completed_messages, 1);
        prop_assert!(!stats.saturated);
    }
}
