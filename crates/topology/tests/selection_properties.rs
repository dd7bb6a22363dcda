//! Property-based tests for graph algorithms and shortcut selection.

use proptest::prelude::*;
use rfnoc_topology::regions::{all_regions, best_region_pair, region_cost, Region};
use rfnoc_topology::routing::RoutingTables;
use rfnoc_topology::select::{
    check_constraints, select_application_specific, select_exhaustive_greedy, select_max_cost,
    SelectionConstraints,
};
use rfnoc_topology::{
    BaseRoutes, DistanceMatrix, DistanceOracle, FabricSpec, GridDims, GridGraph, PairWeights,
    Shortcut,
};

fn objective(dims: GridDims, set: &[Shortcut], weights: &PairWeights) -> f64 {
    let g = GridGraph::with_shortcuts(dims, set);
    GridGraph::total_cost(&g.distances(), weights)
}

/// The edges of `edges` (taken modulo `n`) that keep every router at one
/// outbound and one inbound shortcut, in order.
fn legal_shortcuts(n: usize, edges: &[(usize, usize)]) -> Vec<Shortcut> {
    let mut used_out = vec![false; n];
    let mut used_in = vec![false; n];
    let mut legal = Vec::new();
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a != b && !used_out[a] && !used_in[b] {
            used_out[a] = true;
            used_in[b] = true;
            legal.push(Shortcut::new(a, b));
        }
    }
    legal
}

/// What `best_region_pair` is defined to return: the non-overlapping
/// ordered region pair of maximum `region_cost`, earlier pairs winning
/// ties within `1e-9`.
fn region_cost_argmax(
    dims: GridDims,
    dist: &DistanceMatrix,
    weights: &PairWeights,
) -> Option<(Region, Region)> {
    let regions = all_regions(dims);
    let mut best: Option<(f64, usize, usize)> = None;
    for (ia, a) in regions.iter().enumerate() {
        for (ib, b) in regions.iter().enumerate() {
            if ia == ib || a.overlaps(b) {
                continue;
            }
            let cost = region_cost(a, b, dist, weights);
            if cost > 0.0 && best.is_none_or(|(bc, _, _)| cost > bc + 1e-9) {
                best = Some((cost, ia, ib));
            }
        }
    }
    best.map(|(_, ia, ib)| (regions[ia].clone(), regions[ib].clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The region-pick kernel returns the argmax of `region_cost` under the
    /// same tie-break on any grid with room for a region, square or not,
    /// for sparse integer and non-integer weights over distances some
    /// shortcuts have shortened. (That each cost it compares `==`
    /// `region_cost` is a unit test beside the kernel.)
    #[test]
    fn best_region_pair_is_the_region_cost_argmax(
        width in 3usize..=12,
        height in 3usize..=12,
        integer in 0usize..2,
        pairs in proptest::collection::vec((0usize..144, 0usize..144, 0.5f64..50.0), 0..200),
        edges in proptest::collection::vec((0usize..144, 0usize..144), 0..6),
    ) {
        let dims = GridDims::new(width, height);
        let n = dims.nodes();
        let dist = GridGraph::with_shortcuts(dims, &legal_shortcuts(n, &edges)).distances();
        let mut w = PairWeights::zero(n);
        for (a, b, f) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b {
                w.add(a, b, if integer == 1 { f.round() } else { f });
            }
        }
        prop_assert_eq!(
            best_region_pair(dims, &dist, &w),
            region_cost_argmax(dims, &dist, &w),
            "{}x{}", width, height
        );
        prop_assert_eq!(best_region_pair(dims, &dist, &PairWeights::zero(n)), None);
    }

    /// A grid under three routers wide or tall has no region to pick.
    #[test]
    fn no_region_pair_on_a_narrow_grid(narrow in 1usize..3, long in 1usize..13, tall in 0usize..2) {
        let dims = if tall == 1 { GridDims::new(narrow, long) } else { GridDims::new(long, narrow) };
        let dist = GridGraph::mesh(dims).distances();
        prop_assert_eq!(best_region_pair(dims, &dist, &PairWeights::uniform(dims.nodes())), None);
    }

    /// For a single edge the exhaustive greedy picks the true optimum, so
    /// it can never lose to max-cost at budget 1. Over multiple steps both
    /// are greedy (and can each win — the paper found them "comparably
    /// well"), so we only require parity within a few percent.
    #[test]
    fn exhaustive_competitive_with_max_cost(side in 4usize..7, budget in 1usize..5) {
        let dims = GridDims::new(side, side);
        let g = GridGraph::mesh(dims);
        let n = dims.nodes();
        let w = PairWeights::uniform(n);
        let c = SelectionConstraints::allowing_all(n, budget);
        let ex = select_exhaustive_greedy(&g, &w, &c);
        let mc = select_max_cost(&g, &w, &c);
        prop_assert!(check_constraints(&g, &ex, &c).is_ok());
        prop_assert!(check_constraints(&g, &mc, &c).is_ok());
        let (obj_ex, obj_mc) = (objective(dims, &ex, &w), objective(dims, &mc, &w));
        if budget == 1 {
            prop_assert!(obj_ex <= obj_mc + 1e-6, "budget 1: {obj_ex} vs {obj_mc}");
        } else {
            prop_assert!(
                obj_ex <= obj_mc * 1.05,
                "comparably well violated: exhaustive {obj_ex} vs max-cost {obj_mc}"
            );
        }
    }

    /// Every heuristic only ever improves (or preserves) the objective as
    /// its budget grows.
    #[test]
    fn objective_monotone_in_budget(budget in 1usize..8) {
        let dims = GridDims::new(6, 6);
        let g = GridGraph::mesh(dims);
        let w = PairWeights::uniform(36);
        let smaller = select_max_cost(
            &g, &w, &SelectionConstraints::allowing_all(36, budget));
        let larger = select_max_cost(
            &g, &w, &SelectionConstraints::allowing_all(36, budget + 1));
        prop_assert!(
            objective(dims, &larger, &w) <= objective(dims, &smaller, &w) + 1e-6
        );
    }

    /// Application-specific selection respects constraints for arbitrary
    /// sparse traffic profiles.
    #[test]
    fn app_specific_respects_constraints(
        pairs in proptest::collection::vec((0usize..64, 0usize..64, 1.0f64..100.0), 1..30),
        budget in 1usize..10,
    ) {
        let dims = GridDims::new(8, 8);
        let g = GridGraph::mesh(dims);
        let mut w = PairWeights::zero(64);
        for (a, b, f) in pairs {
            if a != b {
                w.add(a, b, f);
            }
        }
        let c = SelectionConstraints::allowing_all(64, budget).excluding_corners(&g);
        let picked = select_application_specific(&g, &w, &c);
        prop_assert!(check_constraints(&g, &picked, &c).is_ok());
    }

    /// Routing tables over any legal shortcut set deliver every pair in
    /// exactly the shortest-path hop count, and routes never revisit a
    /// node.
    #[test]
    fn routes_are_simple_paths(
        edges in proptest::collection::vec((0usize..25, 0usize..25), 0..4),
    ) {
        let dims = GridDims::new(5, 5);
        let g = GridGraph::with_shortcuts(dims, &legal_shortcuts(25, &edges));
        let tables = RoutingTables::shortest_path(&g);
        let dist = g.distances();
        for src in 0..25 {
            for dst in 0..25 {
                let route = tables.route(src, dst);
                prop_assert_eq!(route.len() as u32 - 1, dist.get(src, dst));
                let mut seen = std::collections::HashSet::new();
                for &node in &route {
                    prop_assert!(seen.insert(node), "route revisits node {}", node);
                }
            }
        }
    }

    /// Every table entry is a neighbour one hop closer to the destination;
    /// among those a shortcut target wins, and otherwise the lowest node id.
    #[test]
    fn next_hop_is_the_preferred_shortest_neighbour(
        tiles in 1usize..4,
        ring in 0usize..2,
        edges in proptest::collection::vec((0usize..144, 0usize..144), 0..6),
    ) {
        let dims = GridDims::new(4 * tiles, 4 * tiles);
        let fabric = if ring == 1 { FabricSpec::ring_mesh(dims, 4) } else { FabricSpec::mesh(dims) };
        let g = GridGraph::from_fabric(&fabric, &legal_shortcuts(dims.nodes(), &edges));
        let dist = g.distances();
        let tables = RoutingTables::from_distances(&g, &dist);
        for r in 0..dims.nodes() {
            let base_degree = fabric.degree(r);
            for d in 0..dims.nodes() {
                let hop = tables.next_hop(r, d);
                if r == d {
                    prop_assert_eq!(hop, r);
                    continue;
                }
                // (not a shortcut, node id): the smallest is the preferred one.
                let preferred = g
                    .neighbors(r)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &nb)| dist.get(nb, d) + 1 == dist.get(r, d))
                    .map(|(k, &nb)| (k < base_degree, nb))
                    .min();
                prop_assert_eq!(Some(hop), preferred.map(|(_, nb)| nb), "{} -> {}", r, d);
            }
        }
    }

    /// The base route of every pair, on meshes and ring-meshes of tiles 2
    /// to 4, leaves by a linked slot toward a router whose base route is
    /// one hop shorter, so following it reaches the destination in
    /// `base_route_len` hops; that length is never below the fabric
    /// distance, and `BaseRoutes` gives the same slot and length.
    #[test]
    fn base_route_descends_along_fabric_edges(
        tile in 2usize..5,
        tiles_x in 1usize..4,
        tiles_y in 1usize..4,
        ring in 0usize..2,
    ) {
        let dims = GridDims::new(tile * tiles_x, tile * tiles_y);
        let fabric = if ring == 1 { FabricSpec::ring_mesh(dims, tile) } else { FabricSpec::mesh(dims) };
        prop_assert!(fabric.validate().is_ok());
        let routes = BaseRoutes::of(&fabric);
        for r in 0..dims.nodes() {
            for d in (0..dims.nodes()).filter(|&d| d != r) {
                let (slot, len) = (fabric.base_port(r, d), fabric.base_route_len(r, d));
                let next = fabric.port_neighbor(r, slot);
                prop_assert!(next.is_some(), "{}: {} -> {} by slot {}", fabric, r, d, slot);
                let onward = fabric.base_route_len(next.unwrap(), d);
                prop_assert_eq!(onward + 1, len, "{}: {} -> {}", fabric, r, d);
                prop_assert!(len >= fabric.distance(r, d), "{}: {} -> {}", fabric, r, d);
                let closed_form = (routes.port(r, d), routes.hops(r, d));
                prop_assert_eq!(closed_form, (slot, len), "{}: {} -> {}", fabric, r, d);
            }
        }
    }

    /// The distance oracle prices and routes every pair as the all-pairs
    /// search and the dense routing tables do, on meshes and ring-meshes
    /// up to 16×16 with up to 16 shortcuts, adjacent routers included.
    #[test]
    fn distance_oracle_matches_the_dense_tables(
        side_x in 2usize..17,
        side_y in 2usize..17,
        tile in 2usize..5,
        ring in 0usize..2,
        edges in proptest::collection::vec((0usize..256, 0usize..256), 0..17),
    ) {
        let fabric = if ring == 1 {
            // Whole tiles: each side rounded down to a multiple of the
            // tile, and never below one tile.
            let tiles = |side: usize| tile * (side / tile).max(1);
            FabricSpec::ring_mesh(GridDims::new(tiles(side_x), tiles(side_y)), tile)
        } else {
            FabricSpec::mesh(GridDims::new(side_x, side_y))
        };
        let dims = fabric.dims();
        prop_assert!(fabric.validate().is_ok());
        let n = dims.nodes();
        let shortcuts = legal_shortcuts(n, &edges);
        let g = GridGraph::from_fabric(&fabric, &shortcuts);
        let dist = g.distances();
        let tables = RoutingTables::from_distances(&g, &dist);
        let oracle = DistanceOracle::new(&fabric, &shortcuts);
        prop_assert_eq!(oracle.node_count(), n);
        for r in 0..n {
            let local = fabric.base_slot_count(r) as u8;
            for d in 0..n {
                prop_assert_eq!(oracle.distance(r, d), dist.get(r, d), "{}: {} -> {}", fabric, r, d);
                let port = if r == d {
                    local
                } else {
                    let next = tables.next_hop(r, d);
                    fabric.port_between(r, next).unwrap_or(local + 1)
                };
                prop_assert_eq!(oracle.route_port(r, d), port, "{}: {} -> {}", fabric, r, d);
            }
        }
    }

    /// Uniform weights hold no matrix, yet read, sum, rank, cost and select
    /// exactly as the dense all-ones matrix does.
    #[test]
    fn uniform_weights_behave_as_dense_ones(
        side in 4usize..9,
        ring in 0usize..2,
        budget in 1usize..6,
    ) {
        let dims = GridDims::new(side, side);
        let fabric = if ring == 1 && side % 4 == 0 {
            FabricSpec::ring_mesh(dims, 4)
        } else {
            FabricSpec::mesh(dims)
        };
        let n = dims.nodes();
        let uniform = PairWeights::uniform(n);
        let mut ones = PairWeights::zero(n);
        for a in 0..n {
            for b in 0..n {
                ones.add(a, b, 1.0);
                prop_assert_eq!(uniform.get(a, b), 1.0);
            }
        }
        prop_assert_eq!(uniform.node_count(), n);
        prop_assert_eq!(uniform.total(), ones.total());
        prop_assert_eq!(uniform.top_pairs(2 * n), ones.top_pairs(2 * n));
        let g = GridGraph::from_fabric(&fabric, &[]);
        let dist = g.distances();
        prop_assert_eq!(GridGraph::total_cost(&dist, &uniform), GridGraph::total_cost(&dist, &ones));
        prop_assert_eq!(
            dist.improvement_if_added(0, n - 1, &uniform),
            dist.improvement_if_added(0, n - 1, &ones)
        );
        let c = SelectionConstraints::allowing_all(n, budget).excluding_corners(&g);
        for select in [select_max_cost, select_application_specific] {
            prop_assert_eq!(select(&g, &uniform, &c), select(&g, &ones, &c));
        }
        let c = SelectionConstraints::allowing_all(n, 1);
        prop_assert_eq!(
            select_exhaustive_greedy(&g, &uniform, &c),
            select_exhaustive_greedy(&g, &ones, &c)
        );
        // Adding to uniform weights starts from the ones they stand for.
        let mut bumped = uniform.clone();
        bumped.add(1, 2, 0.5);
        prop_assert_eq!(bumped.get(1, 2), 1.5);
        prop_assert_eq!(bumped.get(2, 1), 1.0);
    }

    /// `improvement_if_added` is exact for arbitrary weighted graphs.
    #[test]
    fn improvement_prediction_is_exact(
        i in 0usize..36,
        j in 0usize..36,
        pairs in proptest::collection::vec((0usize..36, 0usize..36, 0.5f64..10.0), 0..15),
    ) {
        prop_assume!(i != j);
        let dims = GridDims::new(6, 6);
        let g = GridGraph::mesh(dims);
        let mut w = PairWeights::zero(36);
        for (a, b, f) in pairs {
            if a != b {
                w.add(a, b, f);
            }
        }
        let d = g.distances();
        let predicted = d.improvement_if_added(i, j, &w);
        let before = GridGraph::total_cost(&d, &w);
        let mut g2 = g.clone();
        g2.add_shortcut(Shortcut::new(i, j));
        let after = GridGraph::total_cost(&g2.distances(), &w);
        prop_assert!((before - after - predicted).abs() < 1e-6);
    }
}
