//! The directed grid graph: baseline mesh plus RF-I shortcut edges.

use crate::dist::DistanceMatrix;
use crate::fabric::FabricSpec;
use crate::geom::GridDims;
use crate::weights::PairWeights;
use std::fmt;

/// Index of a router node in the grid (row-major linearisation).
pub type NodeId = usize;

/// A unidirectional single-cycle RF-I shortcut between two routers.
///
/// The paper's RF-I transmission lines logically behave as a set of
/// unidirectional single-cycle shortcuts (§3.2), each occupying one frequency
/// band of the shared medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shortcut {
    /// Source (transmitting) router.
    pub src: NodeId,
    /// Destination (receiving) router.
    pub dst: NodeId,
}

impl Shortcut {
    /// Creates a shortcut from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Self { src, dst }
    }
}

impl fmt::Display for Shortcut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.src, self.dst)
    }
}

/// A directed grid graph `G`: the mesh of routers plus added shortcut edges.
///
/// Mesh edges are bidirectional (modelled as a pair of directed edges);
/// shortcuts are directed. All edges have unit hop cost, matching the paper's
/// cost function `W(x,y)` = length of the shortest path between routers `x`
/// and `y` (§3.2.1).
///
/// # Example
///
/// ```
/// use rfnoc_topology::{GridDims, GridGraph, Shortcut};
/// let mut g = GridGraph::mesh(GridDims::new(4, 4));
/// assert_eq!(g.distances().get(0, 15), 6);
/// g.add_shortcut(Shortcut::new(0, 15));
/// assert_eq!(g.distances().get(0, 15), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GridGraph {
    /// The base fabric the adjacency starts from.
    fabric: FabricSpec,
    shortcuts: Vec<Shortcut>,
    /// Out-neighbour adjacency: base-fabric neighbours first, then shortcut
    /// targets.
    adjacency: Vec<Vec<NodeId>>,
}

impl GridGraph {
    /// Creates a pure mesh (no shortcuts) of the given dimensions.
    pub fn mesh(dims: GridDims) -> Self {
        Self::from_fabric(&FabricSpec::mesh(dims), &[])
    }

    /// Creates a mesh and adds every shortcut in `shortcuts`.
    ///
    /// # Panics
    ///
    /// Panics if any shortcut endpoint is out of range or a self-loop.
    pub fn with_shortcuts(dims: GridDims, shortcuts: &[Shortcut]) -> Self {
        Self::from_fabric(&FabricSpec::mesh(dims), shortcuts)
    }

    /// Creates the base graph of `fabric` (neighbours in fabric slot order:
    /// N, S, E, W on the mesh, compacted at boundaries) and adds every
    /// shortcut in `shortcuts`.
    ///
    /// # Panics
    ///
    /// Panics if any shortcut endpoint is out of range or a self-loop; the
    /// fabric itself should be validated with [`FabricSpec::validate`]
    /// before use.
    pub fn from_fabric(fabric: &FabricSpec, shortcuts: &[Shortcut]) -> Self {
        let adjacency = (0..fabric.nodes()).map(|r| fabric.neighbors(r)).collect();
        let mut g = Self { fabric: *fabric, shortcuts: Vec::new(), adjacency };
        for &s in shortcuts {
            g.add_shortcut(s);
        }
        g
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.fabric.dims()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.fabric.nodes()
    }

    /// The shortcut edges added so far, in insertion order.
    pub fn shortcuts(&self) -> &[Shortcut] {
        &self.shortcuts
    }

    /// Out-neighbours of `node` (base-fabric neighbours then shortcut
    /// targets).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node]
    }

    /// Adds a directed shortcut edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the edge is a self-loop, or the
    /// identical shortcut is already present.
    pub fn add_shortcut(&mut self, s: Shortcut) {
        let n = self.node_count();
        assert!(s.src < n && s.dst < n, "shortcut {s} endpoint out of range");
        assert_ne!(s.src, s.dst, "shortcut may not be a self-loop");
        assert!(
            !self.shortcuts.contains(&s),
            "shortcut {s} already present"
        );
        self.adjacency[s.src].push(s.dst);
        self.shortcuts.push(s);
    }

    /// Computes all-pairs shortest-path distances (unit edge weights): in
    /// closed form on a base fabric without shortcuts, by BFS from every
    /// node once a shortcut is added.
    pub fn distances(&self) -> DistanceMatrix {
        match self.fabric {
            _ if !self.shortcuts.is_empty() => DistanceMatrix::from_graph(self),
            FabricSpec::Mesh { dims } => DistanceMatrix::mesh(dims),
            FabricSpec::RingMesh { dims, tile } => DistanceMatrix::ring_mesh(dims, tile),
        }
    }

    /// Total pairwise cost `Σ_{x≠y} weight(x,y) · d(x,y)` under the supplied
    /// distance matrix and per-pair weights.
    ///
    /// This is the objective the selection heuristics minimise (§3.2.1).
    ///
    /// # Panics
    ///
    /// Panics if `weights` covers a different node count.
    pub fn total_cost(dist: &DistanceMatrix, weights: &PairWeights) -> f64 {
        let n = dist.node_count();
        assert_eq!(weights.node_count(), n, "weights node count mismatch");
        let mut total = 0.0;
        for x in 0..n {
            let w_x = weights.row(x);
            for (y, &d) in dist.row(x).iter().enumerate() {
                if x != y {
                    total += w_x.map_or(1.0, |w| w[y]) * f64::from(d);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_degrees() {
        let g = GridGraph::mesh(GridDims::new(10, 10));
        let degs: Vec<usize> = (0..100).map(|i| g.neighbors(i).len()).collect();
        // corners have 2 neighbours, edges 3, interior 4
        assert_eq!(degs[0], 2);
        assert_eq!(degs[5], 3);
        assert_eq!(degs[55], 4);
        let total: usize = degs.iter().sum();
        // 2 * number of undirected mesh edges = 2 * (9*10 + 9*10)
        assert_eq!(total, 2 * 180);
    }

    #[test]
    fn shortcut_shortens_distance() {
        let mut g = GridGraph::mesh(GridDims::new(10, 10));
        let d0 = g.distances();
        assert_eq!(d0.get(0, 99), 18);
        g.add_shortcut(Shortcut::new(0, 99));
        let d1 = g.distances();
        assert_eq!(d1.get(0, 99), 1);
        // directed: reverse direction unchanged
        assert_eq!(d1.get(99, 0), 18);
    }

    #[test]
    fn shortcut_helps_neighbourhood() {
        let mut g = GridGraph::mesh(GridDims::new(10, 10));
        g.add_shortcut(Shortcut::new(0, 99));
        let d = g.distances();
        // node 1 can route through node 0's shortcut
        assert_eq!(d.get(1, 99), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        GridGraph::mesh(GridDims::new(4, 4)).add_shortcut(Shortcut::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_rejected() {
        let mut g = GridGraph::mesh(GridDims::new(4, 4));
        g.add_shortcut(Shortcut::new(0, 5));
        g.add_shortcut(Shortcut::new(0, 5));
    }

    #[test]
    fn total_cost_uniform_mesh() {
        let g = GridGraph::mesh(GridDims::new(2, 2));
        let d = g.distances();
        let w = PairWeights::uniform(4);
        // distances: each corner to the two adjacent = 1, diagonal = 2.
        // sum over ordered pairs = 4 nodes * (1+1+2) = 16
        assert_eq!(GridGraph::total_cost(&d, &w), 16.0);
    }
}
