//! Per-pair optimisation weights for shortcut selection.

use crate::graph::NodeId;

/// Non-negative per-pair weights over `V×V` ordered router pairs.
///
/// * Architecture-specific selection (paper §3.2.1) uses **uniform** weights,
///   so the objective `Σ w(x,y)·W(x,y)` reduces to the plain APSP sum.
///   Uniform weights hold no matrix: every pair reads `1.0`.
/// * Application-specific selection (paper §3.2.2) uses the inter-router
///   **communication frequency** `F(x,y)` — the number of messages sent from
///   router `x` to router `y` — so the objective becomes `Σ F(x,y)·W(x,y)`,
///   held as a dense `V×V` matrix.
///
/// # Example
///
/// ```
/// use rfnoc_topology::PairWeights;
/// let mut w = PairWeights::zero(4);
/// w.add(0, 3, 10.0);
/// assert_eq!(w.get(0, 3), 10.0);
/// assert_eq!(w.get(3, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PairWeights {
    n: usize,
    /// The dense `V×V` matrix (row = source); `None` while every pair
    /// weighs `1.0`.
    w: Option<Vec<f64>>,
}

impl PairWeights {
    /// Uniform unit weight for every ordered pair (architecture-specific
    /// selection).
    pub fn uniform(nodes: usize) -> Self {
        Self { n: nodes, w: None }
    }

    /// All-zero weights, to be filled by [`PairWeights::add`].
    pub fn zero(nodes: usize) -> Self {
        Self { n: nodes, w: Some(vec![0.0; nodes * nodes]) }
    }

    /// Builds frequency weights from an iterator of `(src, dst, count)`
    /// message records (e.g. event-counter profiles).
    ///
    /// # Panics
    ///
    /// Panics if any node index is out of range.
    pub fn from_messages<I>(nodes: usize, messages: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let mut s = Self::zero(nodes);
        for (src, dst, count) in messages {
            s.add(src, dst, count);
        }
        s
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The weight of ordered pair `(src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, src: NodeId, dst: NodeId) -> f64 {
        assert!(src < self.n && dst < self.n, "node index out of range");
        self.w.as_ref().map_or(1.0, |w| w[src * self.n + dst])
    }

    /// The weights out of `src`, indexed by destination; `None` when every
    /// pair weighs `1.0`.
    pub(crate) fn row(&self, src: NodeId) -> Option<&[f64]> {
        self.w.as_ref().map(|w| &w[src * self.n..(src + 1) * self.n])
    }

    /// Adds `amount` to the weight of ordered pair `(src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `amount` is negative.
    pub fn add(&mut self, src: NodeId, dst: NodeId, amount: f64) {
        assert!(src < self.n && dst < self.n, "node index out of range");
        assert!(amount >= 0.0, "weights must be non-negative");
        let n = self.n;
        self.w.get_or_insert_with(|| vec![1.0; n * n])[src * n + dst] += amount;
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        match &self.w {
            Some(w) => w.iter().sum(),
            None => (self.n * self.n) as f64,
        }
    }

    /// The `k` ordered pairs with the highest weight, descending (useful for
    /// inspecting profiled hotspots).
    pub fn top_pairs(&self, k: usize) -> Vec<(NodeId, NodeId, f64)> {
        let mut pairs: Vec<(NodeId, NodeId, f64)> = (0..self.n)
            .flat_map(|x| (0..self.n).map(move |y| (x, y)))
            .filter(|&(x, y)| x != y)
            .map(|(x, y)| (x, y, self.get(x, y)))
            .collect();
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap().then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        pairs.truncate(k);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_total() {
        let w = PairWeights::uniform(5);
        assert_eq!(w.total(), 25.0);
    }

    #[test]
    fn from_messages_accumulates() {
        let w = PairWeights::from_messages(4, vec![(0, 1, 2.0), (0, 1, 3.0), (2, 3, 1.0)]);
        assert_eq!(w.get(0, 1), 5.0);
        assert_eq!(w.get(2, 3), 1.0);
        assert_eq!(w.total(), 6.0);
    }

    #[test]
    fn top_pairs_sorted() {
        let w = PairWeights::from_messages(4, vec![(0, 1, 2.0), (1, 2, 9.0), (3, 0, 5.0)]);
        let top = w.top_pairs(2);
        assert_eq!(top[0], (1, 2, 9.0));
        assert_eq!(top[1], (3, 0, 5.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        PairWeights::zero(2).add(0, 1, -1.0);
    }
}
