//! Shortcut-selection heuristics (paper Figure 3 and §3.2.1–§3.2.2).
//!
//! All heuristics add directed unit-cost edges to a [`GridGraph`] subject to
//! [`SelectionConstraints`]:
//!
//! * [`select_exhaustive_greedy`] — Figure 3a: for every candidate edge,
//!   build the permutation graph `G' = G + (i,j)` and keep the candidate with
//!   the best total-cost improvement (naively `O(B·V⁵)`; here `O(B·V⁴)` via
//!   the incremental evaluation of
//!   [`DistanceMatrix::improvement_if_added`]).
//! * [`select_max_cost`] — Figure 3b: repeatedly connect the pair with the
//!   maximum current cost `w(i,j)·d(i,j)` (`O(B·V³)`), the variant the paper
//!   adopts ("we have tried both heuristics and found the resulting set of
//!   shortcuts to perform comparably well").
//! * [`select_application_specific`] — §3.2.2: the region-based variant that
//!   alternates router-pair placement with region-pair placement over 3×3
//!   sub-meshes, allowing multiple shortcuts to serve one hotspot.

use crate::dist::DistanceMatrix;
use crate::graph::{GridGraph, NodeId, Shortcut};
use crate::regions::RegionSet;
use crate::weights::PairWeights;

/// Constraints on shortcut placement.
///
/// The paper restricts routers to at most 6 ports — hence at most one inbound
/// and one outbound shortcut per router — and forbids shortcuts at the four
/// corner (memory-interface) routers (§3.2.1). Only *RF-enabled* routers may
/// source or sink shortcuts (§3.2, §5.1.1).
#[derive(Debug, Clone)]
pub struct SelectionConstraints {
    /// Number of shortcuts to select (the paper's budget `B = 16`).
    pub budget: usize,
    /// Routers eligible to source or sink a shortcut (RF-enabled, non-corner).
    pub eligible: Vec<bool>,
    /// Maximum outbound shortcuts per router (paper: 1).
    pub max_out_per_node: usize,
    /// Maximum inbound shortcuts per router (paper: 1).
    pub max_in_per_node: usize,
}

impl SelectionConstraints {
    /// Constraints allowing every router, with the paper's per-router port
    /// caps (one in, one out).
    pub fn allowing_all(nodes: usize, budget: usize) -> Self {
        Self {
            budget,
            eligible: vec![true; nodes],
            max_out_per_node: 1,
            max_in_per_node: 1,
        }
    }

    /// Constraints allowing exactly the routers in `enabled`, with the
    /// paper's per-router port caps.
    ///
    /// # Panics
    ///
    /// Panics if any enabled index is `>= nodes`.
    pub fn for_enabled(nodes: usize, budget: usize, enabled: &[NodeId]) -> Self {
        let mut eligible = vec![false; nodes];
        for &e in enabled {
            assert!(e < nodes, "enabled router {e} out of range");
            eligible[e] = true;
        }
        Self {
            budget,
            eligible,
            max_out_per_node: 1,
            max_in_per_node: 1,
        }
    }

    /// Marks the four corner routers ineligible (memory interfaces, §3.2.1).
    #[must_use]
    pub fn excluding_corners(mut self, graph: &GridGraph) -> Self {
        for i in 0..graph.node_count() {
            if graph.dims().is_corner(i) {
                self.eligible[i] = false;
            }
        }
        self
    }

    fn validate(&self, nodes: usize) {
        assert_eq!(self.eligible.len(), nodes, "eligibility vector must cover all nodes");
        assert!(self.max_out_per_node >= 1 && self.max_in_per_node >= 1);
    }
}

/// A selected shortcut set together with the distances it leaves behind.
///
/// The max-cost and application-specific selectors update one all-pairs
/// matrix after every pick, the last included, so when they return it *is*
/// `W(x,y)` over the input graph plus [`Selection::shortcuts`]. A network
/// needs only the shortcuts: it prices pairs one at a time with a
/// [`crate::DistanceOracle`], so callers that keep the selection for a
/// network may drop the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The selected shortcuts, in selection order.
    pub shortcuts: Vec<Shortcut>,
    /// Hop distances over the input graph plus `shortcuts`: what
    /// [`GridGraph::distances`] returns once every one of them is added.
    pub distances: DistanceMatrix,
}

/// Bookkeeping of per-node shortcut port usage during selection.
#[derive(Debug, Clone)]
struct PortUsage {
    out_used: Vec<usize>,
    in_used: Vec<usize>,
}

impl PortUsage {
    fn new(nodes: usize) -> Self {
        Self { out_used: vec![0; nodes], in_used: vec![0; nodes] }
    }

    fn can_place(&self, c: &SelectionConstraints, i: NodeId, j: NodeId) -> bool {
        i != j
            && c.eligible[i]
            && c.eligible[j]
            && self.out_used[i] < c.max_out_per_node
            && self.in_used[j] < c.max_in_per_node
    }

    fn place(&mut self, i: NodeId, j: NodeId) {
        self.out_used[i] += 1;
        self.in_used[j] += 1;
    }
}

/// Figure 3a: exhaustive greedy over permutation graphs.
///
/// Each round evaluates every feasible candidate edge `(i,j)` by the total
/// weighted-cost improvement it would give, adds the best strictly-improving
/// candidate, and repeats until the budget is exhausted or no candidate
/// improves the objective.
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_exhaustive_greedy(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let mut g = graph.clone();
    let mut dist = g.distances();
    let mut usage = PortUsage::new(n);
    let mut selected = Vec::with_capacity(constraints.budget);
    for _ in 0..constraints.budget {
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for i in 0..n {
            if !constraints.eligible[i] || usage.out_used[i] >= constraints.max_out_per_node {
                continue;
            }
            for j in 0..n {
                if !usage.can_place(constraints, i, j) || dist.get(i, j) <= 1 {
                    continue;
                }
                let gain = dist.improvement_if_added(i, j, weights);
                let better = match best {
                    None => gain > 0.0,
                    Some((bg, bi, bj)) => {
                        gain > bg + 1e-9
                            || ((gain - bg).abs() <= 1e-9 && (i, j) < (bi, bj))
                    }
                };
                if better {
                    best = Some((gain, i, j));
                }
            }
        }
        let Some((_, i, j)) = best else { break };
        g.add_shortcut(Shortcut::new(i, j));
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
    }
    selected
}

/// Figure 3b: max-cost greedy.
///
/// Each round connects the feasible pair `(i,j)` with the maximum current
/// cost `w(i,j)·d(i,j)` — for uniform weights this reduces the graph
/// diameter; for frequency weights it accelerates the hottest distant pairs.
///
/// Distances are updated incrementally after each addition, and so is the
/// max-cost pair itself: per-source row maxima are cached, and a round
/// re-examines only the rows the distance update touched instead of
/// rescanning all `V²` candidates. The selected set is identical to that of
/// a reference that rescans every candidate each round, which the unit
/// tests hold it to.
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_max_cost(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    max_cost_selection(graph, weights, constraints).shortcuts
}

/// [`select_max_cost`], keeping the distance matrix the selection ends with.
///
/// # Panics
///
/// As [`select_max_cost`].
pub fn max_cost_selection(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Selection {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let mut dist = graph.distances();
    let mut rows = MaxCostRows::new(weights, constraints);
    for x in 0..n {
        rows.rescan(x, dist.row(x));
    }
    let mut selected = Vec::with_capacity(constraints.budget);
    for _ in 0..constraints.budget {
        let Some((i, j)) = rows.best_pair() else { break };
        rows.place(i, j);
        dist.apply_edge_with(i, j, |x, row| rows.revalidate(x, row));
        rows.rescan_port_users(i, j, &dist);
        selected.push(Shortcut::new(i, j));
    }
    Selection { shortcuts: selected, distances: dist }
}

/// The pre-refactor rescanning implementation of [`select_max_cost`]: every
/// round re-evaluates all `V²` candidates with [`max_cost_pair`]. Kept as
/// the reference the incremental selector is property-tested against.
#[cfg(test)]
fn select_max_cost_rescan(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let mut dist = graph.distances();
    let mut usage = PortUsage::new(n);
    let mut selected = Vec::with_capacity(constraints.budget);
    for _ in 0..constraints.budget {
        let Some((i, j)) = max_cost_pair(
            &dist,
            weights,
            constraints,
            &usage,
            0..n,
            0..n,
            PairScore::WeightedDistance,
        ) else {
            break;
        };
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
    }
    selected
}

/// Per-source cached maxima for the incremental max-cost selector.
///
/// `rows[x]` caches the feasible destination maximising
/// `w(x,y)·d(x,y)` (with [`max_cost_pair`]'s exact tie-breaking), or `None`
/// when row `x` currently has no feasible positive-cost candidate.
///
/// The cache stays sound because every per-round change is monotone:
/// [`DistanceMatrix::apply_edge`] only *decreases* distances (so costs only
/// decrease) and [`PortUsage`] only *shrinks* feasibility. A cached row
/// maximum therefore remains the row maximum until the cached entry itself
/// is touched — its cost drops, its distance collapses to ≤ 1, or an
/// endpoint port fills up — at which point the row is rescanned. Distances
/// move only in the rows the update visits, so those are the only rows
/// whose cached entry is compared against the matrix again.
struct MaxCostRows<'a> {
    weights: &'a PairWeights,
    constraints: &'a SelectionConstraints,
    usage: PortUsage,
    /// All ones where a destination is eligible with a free in-port, zero
    /// elsewhere: `d(x,y) & dst_open[y]` is the distance of a placeable
    /// destination or 0.
    dst_open: Vec<u16>,
    rows: Vec<Option<(f64, NodeId)>>,
}

impl<'a> MaxCostRows<'a> {
    fn new(weights: &'a PairWeights, constraints: &'a SelectionConstraints) -> Self {
        let n = constraints.eligible.len();
        Self {
            weights,
            constraints,
            usage: PortUsage::new(n),
            dst_open: constraints.eligible.iter().map(|&e| if e { u16::MAX } else { 0 }).collect(),
            rows: vec![None; n],
        }
    }

    /// Records the placement of `(i, j)` in the port bookkeeping.
    fn place(&mut self, i: NodeId, j: NodeId) {
        self.usage.place(i, j);
        if self.usage.in_used[j] >= self.constraints.max_in_per_node {
            self.dst_open[j] = 0;
        }
    }

    /// Recomputes row `x` from its distance row `dist_x`, mirroring
    /// [`max_cost_pair`]'s inner loop (ascending `y`, so among costs within
    /// its epsilon of each other the first one stands).
    fn rescan(&mut self, x: NodeId, dist_x: &[u16]) {
        self.rows[x] = None;
        if !self.constraints.eligible[x]
            || self.usage.out_used[x] >= self.constraints.max_out_per_node
        {
            return;
        }
        // `d(x,x) = 0` keeps `x` itself out, like every other `d ≤ 1`.
        let open = dist_x.iter().zip(&self.dst_open).map(|(&d, &m)| d & m);
        self.rows[x] = match self.weights.row(x) {
            // Costs are the distances themselves: take the first maximum.
            None => {
                let far = open.clone().max().unwrap_or(0);
                let first = || open.clone().position(|d| d == far).expect("the maximum is in the row");
                (far > 1).then(|| (f64::from(far), first()))
            }
            Some(w_x) => {
                let mut best: Option<(f64, NodeId)> = None;
                for (y, (d, &w)) in open.zip(w_x).enumerate() {
                    let cost = w * f64::from(d);
                    if d > 1 && cost > best.map_or(0.0, |(bc, _)| bc + 1e-9) {
                        best = Some((cost, y));
                    }
                }
                best
            }
        };
    }

    /// The feasible pair maximising the cached costs, with
    /// [`max_cost_pair`]'s cross-row tie-break (ascending source index).
    fn best_pair(&self) -> Option<(NodeId, NodeId)> {
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for (x, row) in self.rows.iter().enumerate() {
            let Some((cost, y)) = *row else { continue };
            let better = match best {
                None => true,
                Some((bc, bi, bj)) => {
                    cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && (x, y) < (bi, bj))
                }
            };
            if better {
                best = Some((cost, x, y));
            }
        }
        best.map(|(_, i, j)| (i, j))
    }

    /// Row `x`'s distances just shrank to `dist_x`: rescan it if its cached
    /// entry's own cost or feasibility moved.
    fn revalidate(&mut self, x: NodeId, dist_x: &[u16]) {
        if let Some((cost, y)) = self.rows[x] {
            let d = dist_x[y];
            if d <= 1 || self.weights.get(x, y) * f64::from(d) != cost {
                self.rescan(x, dist_x);
            }
        }
    }

    /// After placing `(i, j)`: rescan the rows the placement itself made
    /// stale — the source's, whose out-ports may be exhausted, and those
    /// whose cached destination is `j` once its in-ports are.
    fn rescan_port_users(&mut self, i: NodeId, j: NodeId, dist: &DistanceMatrix) {
        self.rescan(i, dist.row(i));
        if self.dst_open[j] == 0 {
            for x in 0..self.rows.len() {
                if self.rows[x].is_some_and(|(_, y)| y == j) {
                    self.rescan(x, dist.row(x));
                }
            }
        }
    }
}

/// How candidate pairs are scored by [`max_cost_pair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairScore {
    /// `w(i,j) · d(i,j)` — requires positive weight.
    WeightedDistance,
    /// Plain hop distance `d(i,j)` — the uniform fallback.
    Distance,
}

/// Finds the feasible pair maximising the chosen score with the source
/// drawn from `sources` and the destination from `dests` (both ascending).
/// Ties break toward the lexicographically smallest pair.
fn max_cost_pair(
    dist: &DistanceMatrix,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
    usage: &PortUsage,
    sources: impl Iterator<Item = NodeId>,
    dests: impl Iterator<Item = NodeId> + Clone,
    score: PairScore,
) -> Option<(NodeId, NodeId)> {
    let mut best: Option<(f64, NodeId, NodeId)> = None;
    for i in sources {
        if !constraints.eligible[i] || usage.out_used[i] >= constraints.max_out_per_node {
            continue;
        }
        let (d_i, w_i) = (dist.row(i), weights.row(i));
        for j in dests.clone() {
            let d = d_i[j];
            if !usage.can_place(constraints, i, j) || d <= 1 {
                continue;
            }
            let cost = match score {
                PairScore::WeightedDistance => w_i.map_or(1.0, |w| w[j]) * f64::from(d),
                PairScore::Distance => f64::from(d),
            };
            if cost <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bc, bi, bj)) => {
                    cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && (i, j) < (bi, bj))
                }
            };
            if better {
                best = Some((cost, i, j));
            }
        }
    }
    best.map(|(_, i, j)| (i, j))
}

/// §3.2.2: application-specific selection with region-to-region placement.
///
/// Alternates between (a) placing the max-`F·W` router-pair shortcut and
/// (b) picking the pair of non-overlapping 3×3 regions `(I,J)` maximising
/// `C_Region(I,J) = Σ_{x∈I, y∈J} F(x,y)·W(x,y)` and placing a shortcut
/// `(i,j)` with `i∈I`, `j∈J`, `i ∉ UsedSrcs`, `j ∉ UsedDests`. This lets
/// several shortcuts crowd around a communication hotspot even though each
/// router accepts only one inbound and one outbound shortcut.
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_application_specific(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    application_specific_selection(graph, weights, constraints).shortcuts
}

/// [`select_application_specific`], keeping the distance matrix the
/// selection ends with.
///
/// # Panics
///
/// As [`select_application_specific`].
pub fn application_specific_selection(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Selection {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let regions = RegionSet::new(graph.dims());
    let mut dist = graph.distances();
    let mut usage = PortUsage::new(n);
    let mut selected = Vec::with_capacity(constraints.budget);
    let mut region_turn = false;
    while selected.len() < constraints.budget {
        let region_pick = || {
            let (region_i, region_j) = regions.best_pair(&dist, weights)?;
            // Within the hottest region pair, prefer the hottest remaining
            // router pair; if the hot routers' ports are already used, still
            // place a shortcut between the regions (the distance fallback) —
            // this is what lets shortcuts crowd around a hotspot (§3.2.2).
            let between = |score| {
                max_cost_pair(
                    &dist,
                    weights,
                    constraints,
                    &usage,
                    regions.nodes(region_i).iter().copied(),
                    regions.nodes(region_j).iter().copied(),
                    score,
                )
            };
            between(PairScore::WeightedDistance).or_else(|| between(PairScore::Distance))
        };
        let pair_pick = || {
            max_cost_pair(
                &dist,
                weights,
                constraints,
                &usage,
                0..n,
                0..n,
                PairScore::WeightedDistance,
            )
        };
        let pick = if region_turn {
            region_pick().or_else(pair_pick)
        } else {
            pair_pick().or_else(region_pick)
        };
        let Some((i, j)) = pick else { break };
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
        region_turn = !region_turn;
    }
    Selection { shortcuts: selected, distances: dist }
}

/// Verifies that a shortcut set satisfies `constraints` against `graph`.
///
/// Returns `Err` with a human-readable reason on the first violation. Useful
/// as a post-condition check and in property tests.
pub fn check_constraints(
    graph: &GridGraph,
    shortcuts: &[Shortcut],
    constraints: &SelectionConstraints,
) -> Result<(), String> {
    let n = graph.node_count();
    constraints.validate(n);
    if shortcuts.len() > constraints.budget {
        return Err(format!(
            "{} shortcuts exceed budget {}",
            shortcuts.len(),
            constraints.budget
        ));
    }
    let mut usage = PortUsage::new(n);
    for s in shortcuts {
        if s.src >= n || s.dst >= n {
            return Err(format!("shortcut {s} endpoint out of range"));
        }
        if !usage.can_place(constraints, s.src, s.dst) {
            return Err(format!("shortcut {s} violates eligibility or port caps"));
        }
        usage.place(s.src, s.dst);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::GridDims;

    fn mesh(n: usize) -> GridGraph {
        GridGraph::mesh(GridDims::new(n, n))
    }

    #[test]
    fn max_cost_respects_budget_and_ports() {
        let g = mesh(10);
        let w = PairWeights::uniform(100);
        let c = SelectionConstraints::allowing_all(100, 16).excluding_corners(&g);
        let s = select_max_cost(&g, &w, &c);
        assert_eq!(s.len(), 16);
        check_constraints(&g, &s, &c).unwrap();
    }

    #[test]
    fn max_cost_first_pick_is_diameter_pair() {
        let g = mesh(10);
        let w = PairWeights::uniform(100);
        let c = SelectionConstraints::allowing_all(100, 1).excluding_corners(&g);
        let s = select_max_cost(&g, &w, &c);
        assert_eq!(s.len(), 1);
        // With the four corners excluded the farthest eligible pair is at
        // distance 16 (corner-to-corner pairs at 18 and corner-adjacent
        // pairs at 17 all involve a corner).
        let d = g.distances();
        assert_eq!(d.get(s[0].src, s[0].dst), 16);
    }

    #[test]
    fn exhaustive_greedy_improves_at_least_as_much_per_edge() {
        let g = mesh(6);
        let n = g.node_count();
        let w = PairWeights::uniform(n);
        let c = SelectionConstraints::allowing_all(n, 4);
        let ex = select_exhaustive_greedy(&g, &w, &c);
        let mc = select_max_cost(&g, &w, &c);
        assert_eq!(ex.len(), 4);
        assert_eq!(mc.len(), 4);
        let cost = |set: &[Shortcut]| {
            let g2 = GridGraph::with_shortcuts(g.dims(), set);
            GridGraph::total_cost(&g2.distances(), &w)
        };
        // Both are greedy, so neither strictly dominates over multiple
        // steps; the paper found them "comparably well", which we bound at
        // a few percent.
        assert!(cost(&ex) <= cost(&mc) * 1.05, "{} vs {}", cost(&ex), cost(&mc));
    }

    #[test]
    fn shortcuts_reduce_total_cost() {
        let g = mesh(8);
        let n = g.node_count();
        let w = PairWeights::uniform(n);
        let c = SelectionConstraints::allowing_all(n, 8);
        let before = GridGraph::total_cost(&g.distances(), &w);
        for select in [select_max_cost, select_exhaustive_greedy, select_application_specific] {
            let s = select(&g, &w, &c);
            let g2 = GridGraph::with_shortcuts(g.dims(), &s);
            let after = GridGraph::total_cost(&g2.distances(), &w);
            assert!(after < before, "selection must reduce the objective");
        }
    }

    #[test]
    fn application_specific_clusters_on_hotspot() {
        // One hotspot at node 70 = (0,7) on a 10x10 grid; all traffic goes
        // to/from it from distant routers.
        let g = mesh(10);
        let n = g.node_count();
        let hot = 70;
        let mut w = PairWeights::zero(n);
        for other in [9, 19, 29, 8, 18, 28, 39, 49, 59] {
            w.add(other, hot, 100.0);
            w.add(hot, other, 100.0);
        }
        let c = SelectionConstraints::allowing_all(n, 6).excluding_corners(&g);
        let s = select_application_specific(&g, &w, &c);
        assert_eq!(s.len(), 6);
        let dims = g.dims();
        // The hot router itself accepts only one inbound and one outbound
        // shortcut, so region-based selection must crowd further shortcuts
        // at routers near the hotspot (within its 3×3 region, i.e. ≤4 hops).
        let near_hot = s
            .iter()
            .filter(|sc| dims.manhattan(sc.src, hot).min(dims.manhattan(sc.dst, hot)) <= 4)
            .count();
        assert!(near_hot >= 3, "expected clustering near hotspot, got {s:?}");
    }

    #[test]
    fn eligibility_is_respected() {
        let g = mesh(10);
        let n = g.node_count();
        let w = PairWeights::uniform(n);
        let enabled: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
        let c = SelectionConstraints::for_enabled(n, 16, &enabled).excluding_corners(&g);
        for select in [select_max_cost, select_application_specific] {
            let s = select(&g, &w, &c);
            for sc in &s {
                assert!(sc.src % 2 == 0 && sc.dst % 2 == 0);
                assert!(!g.dims().is_corner(sc.src) && !g.dims().is_corner(sc.dst));
            }
            check_constraints(&g, &s, &c).unwrap();
        }
    }

    #[test]
    fn incremental_matches_rescan_reference() {
        // Deterministic non-uniform weights: hash-like integer mixing keeps
        // costs well-separated so the epsilon tie-break never fires.
        for side in [4usize, 5, 7] {
            let g = mesh(side);
            let n = g.node_count();
            let mut w = PairWeights::zero(n);
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        w.add(a, b, ((a * 31 + b * 17) % 23) as f64);
                    }
                }
            }
            let c = SelectionConstraints::allowing_all(n, 12).excluding_corners(&g);
            assert_eq!(select_max_cost(&g, &w, &c), select_max_cost_rescan(&g, &w, &c), "side {side}");
        }
    }

    #[test]
    fn incremental_matches_rescan_on_ring_mesh_fabric() {
        use crate::fabric::FabricSpec;
        let fabric = FabricSpec::ring_mesh(GridDims::new(6, 6), 3);
        let g = GridGraph::from_fabric(&fabric, &[]);
        let n = g.node_count();
        let mut w = PairWeights::zero(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    w.add(a, b, ((a * 13 + b * 7) % 11) as f64);
                }
            }
        }
        let c = SelectionConstraints::allowing_all(n, 8);
        assert_eq!(select_max_cost(&g, &w, &c), select_max_cost_rescan(&g, &w, &c));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Walking two regions' routers in ascending id picks what the full
        /// scan filtered through `contains_node` picks, under either score
        /// and any port usage.
        #[test]
        fn region_restricted_pick_equals_filtered_full_scan(
            width in 3usize..11,
            height in 3usize..11,
            pairs in proptest::collection::vec((0usize..100, 0usize..100, 0.5f64..9.0), 0..80),
            placed in proptest::collection::vec((0usize..100, 0usize..100), 0..12),
            barred in proptest::collection::vec(0usize..100, 0..8),
            region_a in 0usize..64,
            region_b in 0usize..64,
        ) {
            let dims = GridDims::new(width, height);
            let n = dims.nodes();
            let mut dist = GridGraph::mesh(dims).distances();
            let mut weights = PairWeights::zero(n);
            for (a, b, f) in pairs {
                weights.add(a % n, b % n, f);
            }
            let mut constraints = SelectionConstraints::allowing_all(n, 16);
            for r in barred {
                constraints.eligible[r % n] = false;
            }
            let mut usage = PortUsage::new(n);
            for (i, j) in placed {
                if usage.can_place(&constraints, i % n, j % n) {
                    usage.place(i % n, j % n);
                    dist.apply_edge(i % n, j % n);
                }
            }
            let regions = RegionSet::new(dims);
            let all = crate::regions::all_regions(dims);
            let (a, b) = (region_a % all.len(), region_b % all.len());
            for score in [PairScore::WeightedDistance, PairScore::Distance] {
                let walked = max_cost_pair(
                    &dist, &weights, &constraints, &usage,
                    regions.nodes(a).iter().copied(),
                    regions.nodes(b).iter().copied(),
                    score,
                );
                let filtered = max_cost_pair(
                    &dist, &weights, &constraints, &usage,
                    (0..n).filter(|&i| all[a].contains_node(i)),
                    (0..n).filter(|&j| all[b].contains_node(j)),
                    score,
                );
                proptest::prop_assert_eq!(walked, filtered, "{:?} {} -> {}", score, a, b);
            }
        }

        /// The incremental max-cost selector (cached row maxima,
        /// revalidated) is an optimisation of the full-rescan reference,
        /// never a different algorithm: on any fabric — mesh or ring-mesh —
        /// and any sparse traffic profile, both pick the *identical*
        /// shortcut sequence.
        #[test]
        fn incremental_selection_matches_rescan(
            side in 4usize..9,
            ring in 0usize..2,
            budget in 1usize..6,
            pairs in proptest::collection::vec((0usize..64, 0usize..64, 0.5f64..50.0), 0..25),
        ) {
            let g = graph(side, ring == 1);
            let n = g.node_count();
            let mut w = PairWeights::zero(n);
            for (a, b, f) in pairs {
                if a != b && a < n && b < n {
                    w.add(a, b, f);
                }
            }
            let c = SelectionConstraints::allowing_all(n, budget);
            proptest::prop_assert_eq!(
                select_max_cost(&g, &w, &c),
                select_max_cost_rescan(&g, &w, &c),
                "selector divergence on {} side {}", g.dims(), side
            );
        }

        /// The rescanning reference reads uniform weights, which hold no
        /// matrix, exactly as the dense all-ones matrix.
        #[test]
        fn rescan_reads_uniform_weights_as_dense_ones(
            side in 4usize..9,
            ring in 0usize..2,
            budget in 1usize..6,
        ) {
            let g = graph(side, ring == 1);
            let n = g.node_count();
            let mut ones = PairWeights::zero(n);
            for a in 0..n {
                for b in 0..n {
                    ones.add(a, b, 1.0);
                }
            }
            let c = SelectionConstraints::allowing_all(n, budget).excluding_corners(&g);
            proptest::prop_assert_eq!(
                select_max_cost_rescan(&g, &PairWeights::uniform(n), &c),
                select_max_cost_rescan(&g, &ones, &c)
            );
        }
    }

    /// A `side`×`side` mesh, or a 4×4-tile ring-mesh where `ring` asks for
    /// one and the side divides into tiles.
    fn graph(side: usize, ring: bool) -> GridGraph {
        use crate::fabric::FabricSpec;
        let dims = GridDims::new(side, side);
        let fabric = if ring && side.is_multiple_of(4) {
            FabricSpec::ring_mesh(dims, 4)
        } else {
            FabricSpec::mesh(dims)
        };
        GridGraph::from_fabric(&fabric, &[])
    }

    /// What both selectors hand on is the all-pairs matrix of the graph
    /// they were given plus the shortcuts they picked, on either fabric.
    #[test]
    fn selections_end_with_the_distances_of_their_graph() {
        use crate::fabric::FabricSpec;
        let dims = GridDims::new(8, 8);
        for fabric in [FabricSpec::mesh(dims), FabricSpec::ring_mesh(dims, 4)] {
            let g = GridGraph::from_fabric(&fabric, &[]);
            let n = g.node_count();
            let mut w = PairWeights::zero(n);
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        w.add(a, b, ((a * 29 + b * 13) % 19) as f64);
                    }
                }
            }
            let c = SelectionConstraints::allowing_all(n, 10).excluding_corners(&g);
            for selection in
                [max_cost_selection(&g, &w, &c), application_specific_selection(&g, &w, &c)]
            {
                assert_eq!(selection.shortcuts.len(), 10);
                let with = GridGraph::from_fabric(&fabric, &selection.shortcuts);
                assert_eq!(selection.distances, DistanceMatrix::from_graph(&with), "{fabric}");
            }
        }
    }

    #[test]
    fn zero_weights_select_nothing() {
        let g = mesh(5);
        let w = PairWeights::zero(25);
        let c = SelectionConstraints::allowing_all(25, 4);
        assert!(select_max_cost(&g, &w, &c).is_empty());
        assert!(select_exhaustive_greedy(&g, &w, &c).is_empty());
    }

    #[test]
    fn check_constraints_detects_violations() {
        let g = mesh(4);
        let c = SelectionConstraints::allowing_all(16, 2);
        // duplicate source exceeds max_out_per_node = 1
        let bad = vec![Shortcut::new(0, 15), Shortcut::new(0, 12)];
        assert!(check_constraints(&g, &bad, &c).is_err());
        let over = vec![Shortcut::new(0, 15), Shortcut::new(1, 12), Shortcut::new(2, 13)];
        assert!(check_constraints(&g, &over, &c).is_err());
        let ok = vec![Shortcut::new(0, 15), Shortcut::new(1, 12)];
        assert!(check_constraints(&g, &ok, &c).is_ok());
    }
}
