//! Next-hop routing tables over the shortcut-augmented grid.
//!
//! When the mesh is extended with RF-I shortcuts the paper switches from XY
//! routing to shortest-path routing (§3.2); routes are programmed into
//! per-router tables (99 network cycles to update all 100 routers, one write
//! port each). This module computes those tables and provides the XY
//! baseline used by the escape virtual channels.

use crate::dist::DistanceMatrix;
use crate::geom::GridDims;
use crate::graph::{GridGraph, NodeId};

/// Per-router next-hop tables: `next_hop(router, dest)` is the neighbour
/// (mesh or shortcut) to forward to on a shortest path.
///
/// Tie-breaking is deterministic: a shortcut edge is preferred over a mesh
/// edge of equal progress (shortcuts are single-cycle express channels),
/// then the lowest node index wins.
///
/// A table entry is one byte: the position of the chosen neighbour in
/// [`GridGraph::neighbors`] of its router.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    n: usize,
    /// `index[router * n + dest]` = position of the next node among
    /// `router`'s neighbours, or [`RoutingTables::SELF`] on the diagonal.
    index: Vec<u8>,
    /// Every router's neighbour list, flattened; `starts[router]` is where
    /// its own begins.
    neighbors: Vec<NodeId>,
    starts: Vec<usize>,
}

impl RoutingTables {
    /// The neighbour index stored where `dest == router`.
    pub const SELF: u8 = u8::MAX;

    /// Builds shortest-path next-hop tables for `graph`.
    pub fn shortest_path(graph: &GridGraph) -> Self {
        let dist = graph.distances();
        Self::from_distances(graph, &dist)
    }

    /// Builds the tables from a pre-computed distance matrix for `graph`.
    ///
    /// Each router's row is one streaming pass per neighbour over that
    /// neighbour's distance row and the router's own.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not match the graph, if a router has more
    /// than 255 neighbours, or if any pair is unreachable (cannot happen
    /// for a connected mesh).
    pub fn from_distances(graph: &GridGraph, dist: &DistanceMatrix) -> Self {
        let n = graph.node_count();
        assert_eq!(dist.node_count(), n, "distance matrix mismatch");
        let mut neighbors = Vec::new();
        let mut starts = Vec::with_capacity(n);
        let mut index = vec![Self::SELF; n * n];
        // (shortcut?, node, position) of each neighbour, least preferred
        // first, so the write of the most preferred one lands last.
        let mut order: Vec<(bool, NodeId, u8)> = Vec::new();
        for (router, out) in index.chunks_exact_mut(n).enumerate() {
            let own = graph.neighbors(router);
            assert!(own.len() < usize::from(Self::SELF), "router {router} has too many neighbours");
            starts.push(neighbors.len());
            neighbors.extend_from_slice(own);
            // Shortcut targets are listed after the base-fabric neighbours.
            let base_degree =
                own.len() - graph.shortcuts().iter().filter(|s| s.src == router).count();
            order.clear();
            order.extend(own.iter().enumerate().map(|(k, &nb)| (k >= base_degree, nb, k as u8)));
            order.sort_unstable_by_key(|&(shortcut, nb, _)| (shortcut, std::cmp::Reverse(nb)));
            let to_dest = dist.row(router);
            for &(_, nb, k) in &order {
                for ((slot, &via), &direct) in out.iter_mut().zip(dist.row(nb)).zip(to_dest) {
                    // An unreachable `via` wraps to 0, which only the
                    // diagonal's `direct` equals; the diagonal is reset below.
                    *slot = if via.wrapping_add(1) == direct { k } else { *slot };
                }
            }
            out[router] = Self::SELF;
            assert_eq!(
                out.iter().filter(|&&k| k == Self::SELF).count(),
                1,
                "mesh must be connected: no neighbour of {router} lies on a shortest path"
            );
        }
        Self { n, index, neighbors, starts }
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
        match self.index[router * self.n + dest] {
            Self::SELF => router,
            k => self.neighbors[self.starts[router] + usize::from(k)],
        }
    }

    /// The flattened table (`router * V + dest`) of neighbour positions,
    /// moved out: each entry indexes [`GridGraph::neighbors`] of its router,
    /// with [`RoutingTables::SELF`] on the diagonal.
    pub fn into_neighbor_indices(self) -> Vec<u8> {
        self.index
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
