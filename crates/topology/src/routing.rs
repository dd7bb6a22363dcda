//! Next-hop routing tables over the shortcut-augmented grid.
//!
//! When the mesh is extended with RF-I shortcuts the paper switches from XY
//! routing to shortest-path routing (§3.2); routes are programmed into
//! per-router tables (99 network cycles to update all 100 routers, one write
//! port each). This module computes those tables, the [`DistanceOracle`]
//! that answers the same questions pair by pair without them, and the XY
//! baseline used by the escape virtual channels.

use crate::dist::DistanceMatrix;
use crate::fabric::{FabricSpec, Spot, Spots};
use crate::geom::GridDims;
use crate::graph::{GridGraph, NodeId, Shortcut};

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

/// Shortest-path distances and next hops over an intact base fabric plus a
/// few shortcuts, pair by pair, from tables that grow with the router count
/// and not with its square.
///
/// Take a shortest path from `x` to `d` that uses a shortcut, and let
/// `a_i → b_i` be the first one it takes. The part before it uses no
/// shortcut, so it is no longer than the fabric's own closed-form distance
/// `base` ([`FabricSpec::distance`]), and the part after it is no longer
/// than the distance `E[i][d]` from `b_i` to `d`:
///
/// `dist(x, d) = min(base(x, d), min_i base(x, a_i) + 1 + E[i][d])`
///
/// `E` is `k × n` two-byte distances, built in `O(n·k²)` (128 KB for the
/// paper's 16 shortcuts on a 64×64 mesh); `base(x, a_i)` is kept beside it
/// as another `k × n`, so that pricing a pair is one pass over two rows.
///
/// [`DistanceOracle::route_port`] breaks ties as
/// [`RoutingTables::from_distances`] does, so the two route every pair
/// alike: a shortcut out of the router if one lies on a shortest path (the
/// lowest target among several), else the lowest-id base neighbour that
/// does.
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    /// [`FabricSpec::ring_len`] of the fabric.
    ring_len: u16,
    /// Every router's place in the closed form.
    spots: Vec<Spot>,
    /// Every router's next hops as `(router, out slot)`, in the order
    /// they win ties: its shortcuts' targets, then its base neighbours,
    /// each by ascending id. `starts[r]..starts[r + 1]` are `r`'s.
    next_hops: Vec<(u32, u8)>,
    starts: Vec<u32>,
    /// [`FabricSpec::base_slot_count`] of every router.
    base_slots: Vec<u8>,
    /// The number of shortcuts, `k`.
    k: usize,
    /// `entries[x * k + i]`: the base distance from `x` to shortcut `i`'s
    /// source.
    entries: Vec<u16>,
    /// `E` by destination: `exits[d * k + i]` is the distance from
    /// shortcut `i`'s target to `d`.
    exits: Vec<u16>,
}

impl DistanceOracle {
    /// The oracle of `fabric` (validated) overlaid with `shortcuts`.
    ///
    /// # Panics
    ///
    /// Panics if a shortcut endpoint is out of range or a shortcut is a
    /// self-loop.
    pub fn new(fabric: &FabricSpec, shortcuts: &[Shortcut]) -> Self {
        let n = fabric.nodes();
        for s in shortcuts {
            assert!(s.src < n && s.dst < n, "shortcut {s} endpoint out of range");
            assert_ne!(s.src, s.dst, "shortcut may not be a self-loop");
        }
        let ring_len = fabric.ring_len();
        let spots: Vec<Spot> = (0..n).map(|r| fabric.spot(r)).collect();
        let base_slots: Vec<u8> = (0..n).map(|r| fabric.base_slot_count(r) as u8).collect();
        let mut next_hops = Vec::with_capacity(n * fabric.max_base_slots() + shortcuts.len());
        let mut starts = Vec::with_capacity(n + 1);
        for (r, &slots) in base_slots.iter().enumerate() {
            starts.push(next_hops.len() as u32);
            let mut targets: Vec<NodeId> =
                shortcuts.iter().filter(|s| s.src == r).map(|s| s.dst).collect();
            let mut base: Vec<NodeId> =
                (0..slots).filter_map(|slot| fabric.port_neighbor(r, slot)).collect();
            targets.sort_unstable();
            base.sort_unstable();
            // A shortcut to a base neighbour leaves by that neighbour's slot.
            next_hops.extend(targets.iter().chain(&base).map(|&to| {
                (to as u32, fabric.port_between(r, to).unwrap_or(slots + 1))
            }));
        }
        starts.push(next_hops.len() as u32);
        let sources = Spots::of(fabric, shortcuts.iter().map(|s| s.src));
        let landings = Spots::of(fabric, shortcuts.iter().map(|s| s.dst));
        // Distances are symmetric on the base fabric.
        let entries: Vec<u16> =
            spots.iter().flat_map(|&x| sources.hops_from(x, ring_len)).collect();
        // `chain[i * k + j]`: the fewest hops from `b_i` to `b_j` that end
        // on shortcut `j` (none from `b_i` to itself) — a Floyd–Warshall
        // pass over the `k` targets, whose direct steps are a base path to
        // `a_j` and the shortcut.
        let k = shortcuts.len();
        let mut chain: Vec<u32> = shortcuts
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                let hops = entries[s.dst * k..(s.dst + 1) * k].iter();
                hops.enumerate().map(move |(j, &h)| if i == j { 0 } else { u32::from(h) + 1 })
            })
            .collect();
        for m in 0..k {
            for i in 0..k {
                for j in 0..k {
                    chain[i * k + j] = chain[i * k + j].min(chain[i * k + m] + chain[m * k + j]);
                }
            }
        }
        // The last shortcut a path from `b_i` to `d` takes is some `b_j`,
        // and a base path follows it. The result is no longer than a base
        // path, which is at most `n − 1` hops on a validated fabric.
        let mut exits = Vec::with_capacity(n * k);
        let mut onward = Vec::with_capacity(k);
        for &to in &spots {
            onward.clear();
            onward.extend(landings.hops_from(to, ring_len).map(u32::from));
            exits.extend((0..k).map(|i| {
                let best = (0..k).map(|j| chain[i * k + j] + onward[j]).min();
                best.expect("one term per shortcut") as u16
            }));
        }
        Self { ring_len, spots, next_hops, starts, base_slots, k, entries, exits }
    }

    /// Number of routers.
    pub fn node_count(&self) -> usize {
        self.spots.len()
    }

    /// Shortest-path distance in hops from `x` to `d` over the fabric plus
    /// the shortcuts.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn distance(&self, x: NodeId, d: NodeId) -> u32 {
        let direct = u32::from(self.spots[x].hops_to(self.spots[d], self.ring_len));
        direct.min(self.via_shortcuts(x, self.exits_to(d)))
    }

    /// The out slot of the next hop from `r` toward `d`: a base slot of
    /// `r`, the slot after its base slots ([`FabricSpec::base_slot_count`])
    /// when `r == d`, and the one after that for the shortcut out of `r`. A
    /// shortcut to a base neighbour of `r` takes that neighbour's base slot.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn route_port(&self, r: NodeId, d: NodeId) -> u8 {
        if r == d {
            return self.base_slots[r];
        }
        let (to, exits) = (self.spots[d], self.exits_to(d));
        let via = self.via_shortcuts(r, exits);
        let dist = u32::from(self.spots[r].hops_to(to, self.ring_len)).min(via);
        // A base neighbour's distance to any router is within a hop of
        // `r`'s, so unless a shortcut path from `r` is a shortest one, none
        // is a hop nearer `d` through a shortcut (and neither is the target
        // of `r`'s own shortcut, which is then no nearer at all).
        let tight = via == dist;
        // No next hop is nearer than `dist − 1`, so the first at it wins.
        let next_hops = &self.next_hops[self.starts[r] as usize..self.starts[r + 1] as usize];
        next_hops
            .iter()
            .find(|&&(at, _)| {
                let at = at as usize;
                u32::from(self.spots[at].hops_to(to, self.ring_len)) + 1 == dist
                    || (tight && self.via_shortcuts(at, exits) + 1 == dist)
            })
            .map(|&(_, slot)| slot)
            .expect("a connected fabric has a neighbour on every shortest path")
    }

    /// Row `d` of `E`: the distance from every shortcut's target to `d`.
    #[inline]
    fn exits_to(&self, d: NodeId) -> &[u16] {
        &self.exits[d * self.k..(d + 1) * self.k]
    }

    /// The fewest hops from `x` that take a shortcut to the destination
    /// whose row of `E` is `exits` (`u16::MAX` without shortcuts). A sum
    /// that saturates is no distance, and loses to the direct one.
    #[inline]
    fn via_shortcuts(&self, x: NodeId, exits: &[u16]) -> u32 {
        let via = self.entries[x * self.k..(x + 1) * self.k].iter().zip(exits);
        u32::from(via.map(|(&h, &exit)| h.saturating_add(exit + 1)).fold(u16::MAX, u16::min))
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
