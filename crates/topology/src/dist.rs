//! All-pairs shortest-path distances with incremental edge evaluation.

use crate::fabric::{FabricSpec, Spots};
use crate::geom::GridDims;
use crate::graph::{GridGraph, NodeId};
use crate::weights::PairWeights;

/// Distance value used to mark unreachable pairs. No finite distance comes
/// near it: a shortest path visits each of at most
/// [`FabricSpec::MAX_ROUTERS`] routers once, so it is at most 65,534 hops.
pub const UNREACHABLE: u16 = u16::MAX;

/// A dense `V×V` matrix of shortest-path hop distances, two bytes a pair.
///
/// Row index is the source node, column index the destination. Produced by
/// [`GridGraph::distances`] and consumed by the selection heuristics, which
/// use the `O(V²)` *would-be* distance update of
/// [`DistanceMatrix::improvement_if_added`] to evaluate candidate shortcut
/// edges without recomputing a full APSP per candidate — and, once every
/// pick is applied, by the routing tables of the network built from the
/// selection (`W(x,y)` is one quantity, §3.2 and §3.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u16>,
}

/// Refuses a matrix over more nodes than a `u16` distance can span.
fn check_size(n: usize) {
    assert!(
        n <= FabricSpec::MAX_ROUTERS,
        "a distance matrix covers at most {} nodes, not {n}",
        FabricSpec::MAX_ROUTERS
    );
}

impl DistanceMatrix {
    /// The distances of the full `dims` mesh in closed form,
    /// `|dx| + |dy|` ([`FabricSpec::distance`]).
    ///
    /// # Panics
    ///
    /// Panics if the grid has more than [`FabricSpec::MAX_ROUTERS`] nodes.
    pub fn mesh(dims: GridDims) -> Self {
        Self::closed_form(&FabricSpec::mesh(dims))
    }

    /// The distances of the `dims` ring-mesh with `tile×tile` tiles in
    /// closed form ([`FabricSpec::distance`]).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is below 2 or does not divide both sides, or if the
    /// grid has more than [`FabricSpec::MAX_ROUTERS`] nodes.
    pub fn ring_mesh(dims: GridDims, tile: usize) -> Self {
        assert!(
            tile >= 2 && dims.width().is_multiple_of(tile) && dims.height().is_multiple_of(tile),
            "{dims} does not divide into {tile}x{tile} ring tiles"
        );
        Self::closed_form(&FabricSpec::ring_mesh(dims, tile))
    }

    /// [`FabricSpec::distance`] for every ordered pair of `fabric`.
    fn closed_form(fabric: &FabricSpec) -> Self {
        let n = fabric.nodes();
        check_size(n);
        let ring_len = fabric.ring_len();
        let spots = Spots::of(fabric, 0..n);
        let mut d = vec![0u16; n * n];
        for (src, row) in d.chunks_exact_mut(n).enumerate() {
            let from = fabric.spot(src);
            for (cell, hops) in row.iter_mut().zip(spots.hops_from(from, ring_len)) {
                *cell = hops;
            }
        }
        Self { n, d }
    }

    /// Computes all-pairs shortest paths over `graph` by BFS from each
    /// node — any graph, and the reference [`DistanceMatrix::mesh`] is
    /// tested against.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than [`FabricSpec::MAX_ROUTERS`] nodes.
    pub fn from_graph(graph: &GridGraph) -> Self {
        let n = graph.node_count();
        check_size(n);
        // One flat `u32` adjacency and one array queue serve all `V`
        // searches: every node enters the queue at most once per source.
        let mut starts = Vec::with_capacity(n + 1);
        let mut targets: Vec<u32> = Vec::new();
        for u in 0..n {
            starts.push(targets.len());
            targets.extend(graph.neighbors(u).iter().map(|&v| v as u32));
        }
        starts.push(targets.len());
        let mut d = vec![UNREACHABLE; n * n];
        let mut queue = vec![0u32; n];
        for (src, row) in d.chunks_exact_mut(n).enumerate() {
            row[src] = 0;
            queue[0] = src as u32;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                let u = queue[head] as usize;
                head += 1;
                let via_u = row[u] + 1;
                for &v in &targets[starts[u]..starts[u + 1]] {
                    let dv = &mut row[v as usize];
                    if *dv == UNREACHABLE {
                        *dv = via_u;
                        queue[tail] = v;
                        tail += 1;
                    }
                }
            }
        }
        Self { n, d }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Shortest-path distance from `src` to `dst` in hops, widened
    /// (an unreachable pair reads as `65_535`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, src: NodeId, dst: NodeId) -> u32 {
        assert!(src < self.n && dst < self.n, "node index out of range");
        u32::from(self.d[src * self.n + dst])
    }

    /// The distances out of `src`, indexed by destination.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn row(&self, src: NodeId) -> &[u16] {
        &self.d[src * self.n..(src + 1) * self.n]
    }

    /// The flattened `V×V` matrix (`src * V + dst`).
    pub fn as_slice(&self) -> &[u16] {
        &self.d
    }

    /// The network diameter: the maximum finite pairwise distance.
    pub fn diameter(&self) -> u32 {
        self.d
            .iter()
            .copied()
            .filter(|&v| v != UNREACHABLE)
            .max()
            .map_or(0, u32::from)
    }

    /// Sum of all finite pairwise distances (the unweighted objective).
    pub fn total(&self) -> u64 {
        self.d
            .iter()
            .copied()
            .filter(|&v| v != UNREACHABLE)
            .map(u64::from)
            .sum()
    }

    /// Weighted objective reduction achieved by adding the directed unit edge
    /// `(i, j)`:
    ///
    /// `Σ_{x,y} w(x,y) · max(0, d(x,y) − (d(x,i) + 1 + d(j,y)))`
    ///
    /// This is the inner evaluation of the exhaustive greedy heuristic of
    /// Figure 3a — the cost of the *permutation graph* `G' = G + (i,j)`
    /// relative to `G` — computed in `O(V²)` instead of a fresh APSP.
    ///
    /// # Panics
    ///
    /// Panics if `weights` covers a different node count.
    pub fn improvement_if_added(&self, i: NodeId, j: NodeId, weights: &PairWeights) -> f64 {
        assert_eq!(weights.node_count(), self.n, "weights node count mismatch");
        let row_j = self.row(j);
        let mut gain = 0.0;
        for x in 0..self.n {
            let row_x = self.row(x);
            let dxi = row_x[i];
            if dxi == UNREACHABLE {
                continue;
            }
            let base = u64::from(dxi) + 1;
            let w_x = weights.row(x);
            for (y, (&dxy, &djy)) in row_x.iter().zip(row_j).enumerate() {
                if djy == UNREACHABLE || dxy == UNREACHABLE {
                    continue;
                }
                let (via, direct) = (base + u64::from(djy), u64::from(dxy));
                if via < direct {
                    gain += w_x.map_or(1.0, |w| w[y]) * (direct - via) as f64;
                }
            }
        }
        gain
    }

    /// Applies the addition of unit edge `(i, j)` in place:
    /// `d(x,y) ← min(d(x,y), d(x,i) + 1 + d(j,y))` for all pairs.
    ///
    /// After [`GridGraph::add_shortcut`] this is equivalent to a full APSP
    /// recomputation for a single added edge.
    pub fn apply_edge(&mut self, i: NodeId, j: NodeId) {
        self.apply_edge_with(i, j, |_, _| {});
    }

    /// [`DistanceMatrix::apply_edge`], calling `touched(x, row_x)` with the
    /// updated row of every source whose distances may have shrunk.
    ///
    /// Only rows with `d(x,i) + 1 < d(x,j)` are visited: anywhere else the
    /// triangle inequality gives `d(x,i) + 1 + d(j,y) ≥ d(x,j) + d(j,y) ≥
    /// d(x,y)`, so the new edge shortens nothing out of `x`. Row `j` is
    /// among the skipped ones, which lets every other row be updated
    /// against it in place.
    pub(crate) fn apply_edge_with(
        &mut self,
        i: NodeId,
        j: NodeId,
        mut touched: impl FnMut(NodeId, &[u16]),
    ) {
        let n = self.n;
        assert!(i < n && j < n, "node index out of range");
        let (before, rest) = self.d.split_at_mut(j * n);
        let (row_j, after) = rest.split_at_mut(n);
        let rows = before.chunks_exact_mut(n).chain(after.chunks_exact_mut(n));
        for (x, row_x) in (0..n).filter(|&x| x != j).zip(rows) {
            let dxi = row_x[i];
            if dxi == UNREACHABLE || dxi + 1 >= row_x[j] {
                continue;
            }
            // `d(j,y) ≤ UNREACHABLE`, so a saturated sum never wins; no
            // finite `d(x,i)` reaches it, so `dxi + 1` cannot overflow.
            let base = dxi + 1;
            for (dxy, &djy) in row_x.iter_mut().zip(&*row_j) {
                *dxy = (*dxy).min(base.saturating_add(djy));
            }
            touched(x, row_x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Shortcut;

    #[test]
    fn bfs_matches_manhattan_on_pure_mesh() {
        for width in 2..=12 {
            for height in 2..=12 {
                let dims = GridDims::new(width, height);
                let g = GridGraph::mesh(dims);
                let closed = DistanceMatrix::mesh(dims);
                assert_eq!(DistanceMatrix::from_graph(&g), closed, "{width}x{height}");
                assert_eq!(g.distances(), closed, "{width}x{height}");
                let far = dims.nodes() - 1;
                assert_eq!(closed.get(0, far), dims.manhattan(0, far));
            }
        }
    }

    /// A base fabric without shortcuts takes its closed form; a mesh or
    /// a ring-mesh with one shortcut keeps the BFS, and still equals it.
    #[test]
    fn other_graphs_keep_the_bfs() {
        use crate::fabric::FabricSpec;
        let dims = GridDims::new(8, 8);
        let ring = FabricSpec::ring_mesh(dims, 4);
        assert_ne!(DistanceMatrix::ring_mesh(dims, 4), DistanceMatrix::mesh(dims));
        for (mut g, closed) in [
            (GridGraph::mesh(dims), DistanceMatrix::mesh(dims)),
            (GridGraph::from_fabric(&ring, &[]), DistanceMatrix::ring_mesh(dims, 4)),
        ] {
            assert_eq!(g.distances(), closed);
            g.add_shortcut(Shortcut::new(9, 54));
            let searched = g.distances();
            assert_eq!(searched, DistanceMatrix::from_graph(&g));
            assert_ne!(searched, closed);
            assert_eq!(searched.get(9, 54), 1);
        }
    }

    /// The ring-mesh's closed form is its BFS on every grid from 2×2 to
    /// 16×16 that some tile side in 2..=4 divides — square or not, one
    /// tile row or one tile column included.
    #[test]
    fn ring_mesh_closed_form_matches_bfs() {
        use crate::fabric::FabricSpec;
        let mut cases = 0;
        for width in 2..=16 {
            for height in 2..=16 {
                for tile in (2..=4).filter(|t| width % t == 0 && height % t == 0) {
                    let dims = GridDims::new(width, height);
                    let g = GridGraph::from_fabric(&FabricSpec::ring_mesh(dims, tile), &[]);
                    assert_eq!(
                        DistanceMatrix::ring_mesh(dims, tile),
                        DistanceMatrix::from_graph(&g),
                        "{width}x{height} t{tile}"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 105);
    }

    /// The closed form at the size `rf64_build` elaborates. Too slow for
    /// the debug tier-1 run: `cargo test --release -p rfnoc-topology --
    /// --ignored`.
    #[test]
    #[ignore = "64x64 all-pairs search; run in release with --ignored"]
    fn ring_mesh_closed_form_matches_bfs_at_64x64() {
        use crate::fabric::FabricSpec;
        let dims = GridDims::new(64, 64);
        let g = GridGraph::from_fabric(&FabricSpec::ring_mesh(dims, 4), &[]);
        // Not `assert_eq!`: a failure would print 16.7 M distances twice.
        assert!(DistanceMatrix::ring_mesh(dims, 4) == DistanceMatrix::from_graph(&g));
    }

    #[test]
    fn incremental_apply_matches_full_recompute() {
        let dims = GridDims::new(8, 8);
        let mut g = GridGraph::mesh(dims);
        let mut d = g.distances();
        for &(i, j) in &[(0usize, 63usize), (7, 56), (20, 43), (5, 58)] {
            g.add_shortcut(Shortcut::new(i, j));
            d.apply_edge(i, j);
            assert_eq!(d, g.distances(), "after adding ({i},{j})");
        }
    }

    #[test]
    fn improvement_matches_recomputed_cost_delta() {
        let dims = GridDims::new(7, 7);
        let g = GridGraph::mesh(dims);
        let d = g.distances();
        let n = dims.nodes();
        let weights = PairWeights::uniform(n);
        let before = GridGraph::total_cost(&d, &weights);
        for &(i, j) in &[(0usize, 48usize), (6, 42), (10, 38)] {
            let predicted = d.improvement_if_added(i, j, &weights);
            let mut g2 = g.clone();
            g2.add_shortcut(Shortcut::new(i, j));
            let after = GridGraph::total_cost(&g2.distances(), &weights);
            assert!(
                (before - after - predicted).abs() < 1e-6,
                "predicted {predicted}, actual {}",
                before - after
            );
        }
    }

    #[test]
    fn diameter_of_mesh() {
        let d = GridGraph::mesh(GridDims::new(10, 10)).distances();
        assert_eq!(d.diameter(), 18);
    }

    #[test]
    fn total_is_symmetric_sum() {
        let d = GridGraph::mesh(GridDims::new(3, 3)).distances();
        // 3x3 mesh: known APSP sum.
        let mut expected = 0u64;
        let dims = GridDims::new(3, 3);
        for a in 0..9 {
            for b in 0..9 {
                expected += dims.manhattan(a, b) as u64;
            }
        }
        assert_eq!(d.total(), expected);
    }
}
