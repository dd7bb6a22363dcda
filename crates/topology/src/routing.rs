//! Next-hop routing tables over the shortcut-augmented grid.
//!
//! When the mesh is extended with RF-I shortcuts the paper switches from XY
//! routing to shortest-path routing (§3.2); routes are programmed into
//! per-router tables (99 network cycles to update all 100 routers, one write
//! port each). This module computes those tables and provides the XY
//! baseline used by the escape virtual channels.

use crate::dist::{DistanceMatrix, UNREACHABLE};
use crate::geom::GridDims;
use crate::graph::{GridGraph, NodeId};

/// Per-router next-hop tables: `next_hop(router, dest)` is the neighbour
/// (mesh or shortcut) to forward to on a shortest path.
///
/// Tie-breaking is deterministic: a shortcut edge is preferred over a mesh
/// edge of equal progress (shortcuts are single-cycle express channels),
/// then the lowest node index wins.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    n: usize,
    /// `table[router * n + dest]` = next node, or `router` itself when
    /// `dest == router`.
    table: Vec<NodeId>,
}

impl RoutingTables {
    /// Builds shortest-path next-hop tables for `graph`.
    pub fn shortest_path(graph: &GridGraph) -> Self {
        let dist = graph.distances();
        Self::from_distances(graph, &dist)
    }

    /// Builds the tables from a pre-computed distance matrix for `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not match the graph, or if any pair is
    /// unreachable (cannot happen for a connected mesh).
    pub fn from_distances(graph: &GridGraph, dist: &DistanceMatrix) -> Self {
        let n = graph.node_count();
        assert_eq!(dist.node_count(), n, "distance matrix mismatch");
        let mut table = vec![0usize; n * n];
        for router in 0..n {
            let neighbors = graph.neighbors(router);
            let mesh_degree = mesh_degree(graph, router);
            for dest in 0..n {
                if router == dest {
                    table[router * n + dest] = router;
                    continue;
                }
                let d = dist.get(router, dest);
                assert_ne!(d, UNREACHABLE, "mesh must be connected");
                // Choose the neighbour strictly decreasing distance; prefer
                // shortcut neighbours (listed after the ≤4 mesh neighbours).
                let mut chosen: Option<(bool, NodeId)> = None;
                for (idx, &nb) in neighbors.iter().enumerate() {
                    if dist.get(nb, dest) + 1 == d {
                        let is_shortcut = idx >= mesh_degree;
                        let better = match chosen {
                            None => true,
                            Some((cs, cn)) => {
                                (is_shortcut && !cs) || (is_shortcut == cs && nb < cn)
                            }
                        };
                        if better {
                            chosen = Some((is_shortcut, nb));
                        }
                    }
                }
                table[router * n + dest] =
                    chosen.expect("some neighbour must lie on a shortest path").1;
            }
        }
        Self { n, table }
    }

    /// Number of routers covered by the tables.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The next node on the route from `router` toward `dest` (`router`
    /// itself when already at the destination).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn next_hop(&self, router: NodeId, dest: NodeId) -> NodeId {
        assert!(router < self.n && dest < self.n, "node index out of range");
        self.table[router * self.n + dest]
    }

    /// The full route from `src` to `dst` (inclusive of both endpoints).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            path.push(cur);
            assert!(path.len() <= self.n, "routing loop detected");
        }
        path
    }
}

fn mesh_degree(graph: &GridGraph, router: NodeId) -> usize {
    graph.neighbors(router).len() - graph.shortcuts().iter().filter(|s| s.src == router).count()
}

/// The XY (dimension-order) next hop on a pure mesh: route in X first, then
/// Y. Deadlock-free; used by the escape virtual channels.
///
/// Returns `dest` itself when `router == dest`.
///
/// # Panics
///
/// Panics if an index is out of range for `dims`.
pub fn xy_next_hop(dims: GridDims, router: NodeId, dest: NodeId) -> NodeId {
    let rc = dims.coord_of(router);
    let dc = dims.coord_of(dest);
    if rc.x < dc.x {
        dims.index_of((rc.x + 1, rc.y).into())
    } else if rc.x > dc.x {
        dims.index_of((rc.x - 1, rc.y).into())
    } else if rc.y < dc.y {
        dims.index_of((rc.x, rc.y + 1).into())
    } else if rc.y > dc.y {
        dims.index_of((rc.x, rc.y - 1).into())
    } else {
        dest
    }
}

/// The full XY route from `src` to `dst` (inclusive of both endpoints).
pub fn xy_route(dims: GridDims, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        cur = xy_next_hop(dims, cur, dst);
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Shortcut;

    #[test]
    fn xy_route_length_is_manhattan() {
        let dims = GridDims::new(10, 10);
        for (a, b) in [(0, 99), (5, 87), (33, 33), (90, 9)] {
            let route = xy_route(dims, a, b);
            assert_eq!(route.len() as u32 - 1, dims.manhattan(a, b));
        }
    }

    #[test]
    fn xy_goes_x_first() {
        let dims = GridDims::new(10, 10);
        let route = xy_route(dims, 0, 22);
        assert_eq!(route, vec![0, 1, 2, 12, 22]);
    }

    #[test]
    fn shortest_path_tables_match_distances() {
        let dims = GridDims::new(8, 8);
        let mut g = GridGraph::mesh(dims);
        g.add_shortcut(Shortcut::new(0, 63));
        g.add_shortcut(Shortcut::new(56, 7));
        let dist = g.distances();
        let tables = RoutingTables::shortest_path(&g);
        for src in 0..64 {
            for dst in 0..64 {
                let route = tables.route(src, dst);
                assert_eq!(route.len() as u32 - 1, dist.get(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn route_uses_shortcut_when_profitable() {
        let dims = GridDims::new(10, 10);
        let mut g = GridGraph::mesh(dims);
        g.add_shortcut(Shortcut::new(11, 88));
        let tables = RoutingTables::shortest_path(&g);
        let route = tables.route(11, 88);
        assert_eq!(route, vec![11, 88]);
        // A neighbour of 11 routes through the shortcut too.
        let route2 = tables.route(1, 88);
        assert!(route2.windows(2).any(|w| w == [11, 88]));
    }

    #[test]
    fn shortcut_preferred_on_tie() {
        let dims = GridDims::new(10, 10);
        let mut g = GridGraph::mesh(dims);
        // shortcut of length equal to one mesh hop progress: from 0 to 2 is
        // distance 2; a shortcut 0->2 makes next_hop(0,2) the shortcut.
        g.add_shortcut(Shortcut::new(0, 2));
        let tables = RoutingTables::shortest_path(&g);
        assert_eq!(tables.next_hop(0, 2), 2);
    }

    #[test]
    fn next_hop_self_is_identity() {
        let g = GridGraph::mesh(GridDims::new(4, 4));
        let tables = RoutingTables::shortest_path(&g);
        for i in 0..16 {
            assert_eq!(tables.next_hop(i, i), i);
        }
    }
}
