//! 3×3 sub-mesh regions for hotspot-aware shortcut selection (paper §3.2.2).
//!
//! The application-specific heuristic places edges between
//! *source/destination region pairs*, where regions are non-overlapping 3×3
//! sub-meshes of frequently-communicating and/or distant routers. The
//! inter-region communication metric is
//! `C_Region(A,B) = Σ_{x∈A, y∈B} F(x,y) · W(x,y)`.

use crate::dist::DistanceMatrix;
use crate::geom::{Coord, GridDims};
use crate::graph::NodeId;
use crate::weights::PairWeights;

/// Side length of a region sub-mesh (the paper uses 3×3 regions).
pub const REGION_SIDE: usize = 3;

/// An axis-aligned square sub-mesh of the grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    dims: GridDims,
    origin: Coord,
    side: usize,
}

impl Region {
    /// Creates the `side`×`side` region whose top-left corner is `origin`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit inside the grid.
    pub fn new(dims: GridDims, origin: Coord, side: usize) -> Self {
        assert!(
            origin.x as usize + side <= dims.width() && origin.y as usize + side <= dims.height(),
            "region at {origin} with side {side} exceeds {dims}"
        );
        Self { dims, origin, side }
    }

    /// Top-left corner of the region.
    pub fn origin(&self) -> Coord {
        self.origin
    }

    /// Whether linear node index `node` lies inside the region.
    pub fn contains_node(&self, node: NodeId) -> bool {
        let c = self.dims.coord_of(node);
        c.x >= self.origin.x
            && (c.x as usize) < self.origin.x as usize + self.side
            && c.y >= self.origin.y
            && (c.y as usize) < self.origin.y as usize + self.side
    }

    /// Linear node indices of all routers in the region.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.side * self.side);
        for dy in 0..self.side {
            for dx in 0..self.side {
                out.push(self.dims.index_of(Coord::new(
                    self.origin.x + dx as u16,
                    self.origin.y + dy as u16,
                )));
            }
        }
        out
    }

    /// Whether two regions share any router.
    pub fn overlaps(&self, other: &Region) -> bool {
        let (ax0, ay0) = (self.origin.x as usize, self.origin.y as usize);
        let (bx0, by0) = (other.origin.x as usize, other.origin.y as usize);
        ax0 < bx0 + other.side
            && bx0 < ax0 + self.side
            && ay0 < by0 + other.side
            && by0 < ay0 + self.side
    }
}

/// All 3×3 regions that fit in the grid (every possible origin).
pub fn all_regions(dims: GridDims) -> Vec<Region> {
    let side = REGION_SIDE;
    let mut out = Vec::new();
    if dims.width() < side || dims.height() < side {
        return out;
    }
    for y in 0..=(dims.height() - side) {
        for x in 0..=(dims.width() - side) {
            out.push(Region::new(dims, Coord::new(x as u16, y as u16), side));
        }
    }
    out
}

/// `C_Region(A,B) = Σ_{x∈A, y∈B} F(x,y) · W(x,y)` (paper §3.2.2).
pub fn region_cost(
    a: &Region,
    b: &Region,
    dist: &DistanceMatrix,
    weights: &PairWeights,
) -> f64 {
    let mut total = 0.0;
    for x in a.nodes() {
        for y in b.nodes() {
            if x != y {
                total += weights.get(x, y) * f64::from(dist.get(x, y));
            }
        }
    }
    total
}

/// The non-overlapping region pair `(I,J)` maximising `C_Region(I,J)`, or
/// `None` if no pair has positive cost (e.g. all-zero weights).
///
/// Source region `I` is the *sender* side and `J` the *receiver* side of the
/// metric, matching the directed shortcut that will be placed between them.
pub fn best_region_pair(
    dims: GridDims,
    dist: &DistanceMatrix,
    weights: &PairWeights,
) -> Option<(Region, Region)> {
    let set = RegionSet::new(dims);
    let (ia, ib) = set.best_pair(dist, weights)?;
    Some((set.regions[ia].clone(), set.regions[ib].clone()))
}

/// Every region of a grid with its router ids, built once per selection.
pub(crate) struct RegionSet {
    regions: Vec<Region>,
    /// `nodes[r]` is `regions[r].nodes()`: row-major, which is also
    /// ascending id.
    nodes: Vec<[NodeId; REGION_SIDE * REGION_SIDE]>,
}

impl RegionSet {
    pub(crate) fn new(dims: GridDims) -> Self {
        let regions = all_regions(dims);
        let nodes = regions
            .iter()
            .map(|r| r.nodes().try_into().expect("every region is REGION_SIDE square"))
            .collect();
        Self { regions, nodes }
    }

    /// Router ids of region `r`, ascending.
    pub(crate) fn nodes(&self, r: usize) -> &[NodeId] {
        &self.nodes[r]
    }

    /// `costs[b] = C_Region(a, b)` for every region `b`.
    ///
    /// Each cost adds the terms of [`region_cost`] in that function's order
    /// — sources of `a` row-major, destinations of `b` row-major, one
    /// running `f64` sum — so it is the same number bit for bit. The sums
    /// are filled source by source, which keeps that order within each and
    /// lets the sums of different regions proceed side by side. Regions
    /// overlapping `a` are summed too (a test per pair costs more than
    /// their share of the terms) without `region_cost`'s `x != y`, which
    /// only matters for them: their entries are not `C_Region`.
    fn costs_from(
        &self,
        a: usize,
        dist: &DistanceMatrix,
        weights: &PairWeights,
        costs: &mut [f64],
    ) {
        costs.fill(0.0);
        for &x in &self.nodes[a] {
            let (d_x, w_x) = (dist.row(x), weights.row(x));
            for (cost, ys) in costs.iter_mut().zip(&self.nodes) {
                for &y in ys {
                    *cost += w_x.map_or(1.0, |w| w[y]) * f64::from(d_x[y]);
                }
            }
        }
    }

    /// Indices of the pair [`best_region_pair`] returns. One pick costs
    /// `R² × 81` multiply-adds over `R` regions.
    pub(crate) fn best_pair(
        &self,
        dist: &DistanceMatrix,
        weights: &PairWeights,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        let mut costs = vec![0.0; self.regions.len()];
        for (ia, a) in self.regions.iter().enumerate() {
            self.costs_from(ia, dist, weights, &mut costs);
            for (ib, (b, &cost)) in self.regions.iter().zip(&costs).enumerate() {
                if ia == ib || a.overlaps(b) || cost <= 0.0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bc, bia, bib)) => {
                        cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && (ia, ib) < (bia, bib))
                    }
                };
                if better {
                    best = Some((cost, ia, ib));
                }
            }
        }
        best.map(|(_, ia, ib)| (ia, ib))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GridGraph;

    #[test]
    fn region_count_on_10x10() {
        assert_eq!(all_regions(GridDims::new(10, 10)).len(), 64);
    }

    #[test]
    fn region_nodes_and_containment() {
        let dims = GridDims::new(10, 10);
        let r = Region::new(dims, Coord::new(7, 0), 3);
        let nodes = r.nodes();
        assert_eq!(nodes.len(), 9);
        for n in &nodes {
            assert!(r.contains_node(*n));
        }
        assert!(!r.contains_node(0));
        assert!(nodes.contains(&9)); // (9,0)
        assert!(nodes.contains(&27)); // (7,2)
    }

    #[test]
    fn overlap_detection() {
        let dims = GridDims::new(10, 10);
        let a = Region::new(dims, Coord::new(0, 0), 3);
        let b = Region::new(dims, Coord::new(2, 2), 3);
        let c = Region::new(dims, Coord::new(3, 0), 3);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn best_pair_targets_hotspot() {
        let dims = GridDims::new(10, 10);
        let g = GridGraph::mesh(dims);
        let dist = g.distances();
        let mut w = PairWeights::zero(100);
        // traffic from the top-right corner area into router (1,8) = 81
        for src in [9, 19, 8, 18] {
            w.add(src, 81, 50.0);
        }
        let (src_region, dst_region) = best_region_pair(dims, &dist, &w).unwrap();
        assert!(src_region.contains_node(9) || src_region.contains_node(19));
        assert!(dst_region.contains_node(81));
        assert!(!src_region.overlaps(&dst_region));
    }

    #[test]
    fn no_pair_for_zero_weights() {
        let dims = GridDims::new(10, 10);
        let dist = GridGraph::mesh(dims).distances();
        assert!(best_region_pair(dims, &dist, &PairWeights::zero(100)).is_none());
    }

    /// The kernel's cost of every competing pair is `region_cost`'s, bit
    /// for bit, under non-integer weights and shortcut-shortened distances.
    #[test]
    fn kernel_costs_equal_region_cost() {
        use crate::graph::Shortcut;
        for (width, height) in [(10, 10), (7, 4), (3, 9)] {
            let dims = GridDims::new(width, height);
            let n = dims.nodes();
            let mut g = GridGraph::mesh(dims);
            g.add_shortcut(Shortcut::new(0, n - 1));
            g.add_shortcut(Shortcut::new(n - 2, 1));
            let dist = g.distances();
            let mut dense = PairWeights::zero(n);
            for x in 0..n {
                for y in 0..n {
                    if (x * 7 + y * 3) % 4 != 0 {
                        dense.add(x, y, ((x * 31 + y * 17) % 23) as f64 / 7.0 + 0.1);
                    }
                }
            }
            for weights in [dense, PairWeights::uniform(n)] {
                let set = RegionSet::new(dims);
                let mut costs = vec![0.0; set.regions.len()];
                for (ia, a) in set.regions.iter().enumerate() {
                    set.costs_from(ia, &dist, &weights, &mut costs);
                    for (b, &cost) in set.regions.iter().zip(&costs) {
                        if !a.overlaps(b) {
                            assert_eq!(cost, region_cost(a, b, &dist, &weights));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_grid_has_no_regions() {
        assert!(all_regions(GridDims::new(2, 2)).is_empty());
    }
}
