//! Multicast traffic augmentation (paper §5.2).
//!
//! "To gauge the impact of multicast, we augment our probabilistic traces
//! with special multicast messages that originate at a cache in our
//! topology and are sent to some number of cores. ... we simulate multicast
//! destination reuse by ensuring that some percentage of these messages are
//! identical source-to-destinations pairs."
//!
//! In the 20% case, all multicast messages use `20% · M` distinct
//! source-to-destination pairs (high locality); in the 50% case, `50% · M`
//! (moderate locality).

use crate::arrivals::{Arrival, Arrivals, Scan, RATE_LIMIT};
use crate::placement::Placement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfnoc_sim::{DestSet, MessageSpec, Workload};
use rfnoc_topology::NodeId;
use std::fmt;

/// Configuration of the multicast generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastConfig {
    /// Mean multicast messages per cache bank per cycle.
    pub rate_per_cache: f64,
    /// Fraction of distinct source-to-destination pairs (0.2 = high reuse,
    /// 0.5 = moderate reuse).
    pub locality: f64,
    /// Minimum destination-set size (cores).
    pub min_dests: usize,
    /// Maximum destination-set size (cores).
    pub max_dests: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MulticastConfig {
    /// Defaults model coherence storms: invalidates/fills reach 8–24
    /// sharer cores, and each cache bank multicasts about once per
    /// thousand cycles.
    fn default() -> Self {
        Self { rate_per_cache: 0.001, locality: 0.2, min_dests: 8, max_dests: 24, seed: 99 }
    }
}

/// A [`MulticastConfig`] that cannot drive its placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulticastError {
    /// `rate_per_cache` must be finite and non-negative, and the expected
    /// multicasts a cycle, `rate_per_cache` times the caches, below 2³²:
    /// their whole part is sent as certain messages each cycle.
    Rate,
    /// `locality` must lie in `(0, 1]`.
    Locality,
    /// `min_dests` must be at least 1 and at most `max_dests`.
    DestRange,
    /// The placement has no cache bank to send from.
    NoCaches,
    /// The placement has no core to send to.
    NoCores,
    /// A cache or core sits at a router a [`DestSet`] cannot hold.
    BeyondDestSet {
        /// The first such router.
        router: NodeId,
    },
}

impl fmt::Display for MulticastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MulticastError::Rate => f.write_str(
                "rate_per_cache must be finite and non-negative, and rate_per_cache times \
                 the caches below 2^32",
            ),
            MulticastError::Locality => f.write_str("locality must lie in (0, 1]"),
            MulticastError::DestRange => {
                f.write_str("min_dests must be at least 1 and at most max_dests")
            }
            MulticastError::NoCaches => f.write_str("multicast needs a cache bank to send from"),
            MulticastError::NoCores => f.write_str("multicast needs a core to send to"),
            MulticastError::BeyondDestSet { router } => write!(
                f,
                "multicast endpoint at router {router} exceeds the {}-router destination vector",
                DestSet::CAPACITY
            ),
        }
    }
}

impl std::error::Error for MulticastError {}

impl MulticastConfig {
    /// Checks every field's range against `placement`: the generator sends
    /// from its caches to its cores, so it needs both, each at a router a
    /// [`DestSet`] holds.
    ///
    /// # Errors
    ///
    /// Returns the first [`MulticastError`] that applies.
    pub fn validate(&self, placement: &Placement) -> Result<(), MulticastError> {
        let (caches, cores) = (placement.caches(), placement.cores());
        let expected = self.rate_per_cache * caches.len() as f64;
        if !(self.rate_per_cache.is_finite() && self.rate_per_cache >= 0.0 && expected < RATE_LIMIT)
        {
            return Err(MulticastError::Rate);
        }
        if !(self.locality > 0.0 && self.locality <= 1.0) {
            return Err(MulticastError::Locality);
        }
        if self.min_dests == 0 || self.min_dests > self.max_dests {
            return Err(MulticastError::DestRange);
        }
        if caches.is_empty() {
            return Err(MulticastError::NoCaches);
        }
        if cores.is_empty() {
            return Err(MulticastError::NoCores);
        }
        match caches.iter().chain(cores).find(|&&r| r >= DestSet::CAPACITY) {
            Some(&router) => Err(MulticastError::BeyondDestSet { router }),
            None => Ok(()),
        }
    }
}

/// Generates coherence multicasts (invalidates/fills) from cache banks to
/// random sets of cores, with configurable destination-set reuse.
#[derive(Debug, Clone)]
pub struct MulticastTraffic {
    placement: Placement,
    config: MulticastConfig,
    rng: StdRng,
    /// One plan for the whole generator: `rate_per_cache × caches`
    /// multicasts a cycle, the whole part certain, the fraction one draw.
    arrivals: Arrivals,
    /// Pool of distinct (source, destination set) pairs created so far.
    pool: Vec<(NodeId, DestSet)>,
    /// Multicast messages generated so far.
    count: u64,
}

impl MulticastTraffic {
    /// Creates the generator.
    ///
    /// # Errors
    ///
    /// Returns a [`MulticastError`] if the config fails
    /// [`MulticastConfig::validate`] on `placement`.
    pub fn new(placement: Placement, config: MulticastConfig) -> Result<Self, MulticastError> {
        config.validate(&placement)?;
        let expected = config.rate_per_cache * placement.caches().len() as f64;
        let arrivals = std::iter::once(Arrival::rate(expected)).collect();
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Self { placement, config, rng, arrivals, pool: Vec::new(), count: 0 })
    }

    /// Number of distinct pairs used so far.
    pub fn distinct_pairs(&self) -> usize {
        self.pool.len()
    }

    /// Multicast messages generated so far.
    pub fn generated(&self) -> u64 {
        self.count
    }

    fn fresh_pair(&mut self) -> (NodeId, DestSet) {
        let caches = self.placement.caches();
        let cores = self.placement.cores();
        let src = caches[self.rng.gen_range(0..caches.len())];
        let k = self.rng.gen_range(self.config.min_dests..=self.config.max_dests);
        let mut set = DestSet::empty();
        while (set.len() as usize) < k.min(cores.len()) {
            set.insert(cores[self.rng.gen_range(0..cores.len())]);
        }
        (src, set)
    }

    fn next_multicast(&mut self) -> (NodeId, DestSet) {
        self.count += 1;
        let distinct_target =
            ((self.count as f64 * self.config.locality).ceil() as usize).max(1);
        if self.pool.len() < distinct_target {
            let pair = self.fresh_pair();
            self.pool.push(pair);
            pair
        } else {
            self.pool[self.rng.gen_range(0..self.pool.len())]
        }
    }
}

impl Workload for MulticastTraffic {
    fn messages_at(&mut self, _cycle: u64, out: &mut Vec<MessageSpec>) {
        let mut scan = Scan::default();
        while self.arrivals.next(&mut self.rng, &mut scan).is_some() {
            let (src, set) = self.next_multicast();
            out.push(MessageSpec::multicast(src, set));
        }
    }
}

/// Merges several workloads into one (e.g. a probabilistic trace plus its
/// multicast augmentation).
#[derive(Default)]
pub struct CombinedWorkload {
    parts: Vec<Box<dyn Workload>>,
}

impl std::fmt::Debug for CombinedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CombinedWorkload({} parts)", self.parts.len())
    }
}

impl CombinedWorkload {
    /// An empty combination.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a workload part.
    #[must_use]
    pub fn with(mut self, part: Box<dyn Workload>) -> Self {
        self.parts.push(part);
        self
    }
}

impl Workload for CombinedWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        for part in &mut self.parts {
            part.messages_at(cycle, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_sim::Destination;
    use rfnoc_topology::GridDims;

    fn gen_multicasts(locality: f64, cycles: u64) -> (MulticastTraffic, Vec<MessageSpec>) {
        let config = MulticastConfig {
            rate_per_cache: 0.02,
            locality,
            ..MulticastConfig::default()
        };
        let mut w = MulticastTraffic::new(Placement::paper_10x10(), config).unwrap();
        let mut out = Vec::new();
        for c in 0..cycles {
            w.messages_at(c, &mut out);
        }
        (w, out)
    }

    #[test]
    fn sources_are_caches_dests_are_cores() {
        let p = Placement::paper_10x10();
        let (_, msgs) = gen_multicasts(0.5, 300);
        assert!(!msgs.is_empty());
        for m in &msgs {
            assert!(p.caches().contains(&m.src));
            let Destination::Multicast(set) = m.dest else {
                panic!("expected multicast")
            };
            for d in set.iter() {
                assert!(p.cores().contains(&d), "dest {d} is not a core");
            }
        }
    }

    #[test]
    fn locality_bounds_distinct_pairs() {
        let (w20, msgs20) = gen_multicasts(0.2, 1_000);
        let (w50, _) = gen_multicasts(0.5, 1_000);
        assert!(msgs20.len() > 100);
        let frac20 = w20.distinct_pairs() as f64 / w20.generated() as f64;
        let frac50 = w50.distinct_pairs() as f64 / w50.generated() as f64;
        assert!((frac20 - 0.2).abs() < 0.03, "20% case: {frac20:.3}");
        assert!((frac50 - 0.5).abs() < 0.03, "50% case: {frac50:.3}");
    }

    #[test]
    fn dest_set_sizes_in_range() {
        let (_, msgs) = gen_multicasts(0.5, 300);
        for m in &msgs {
            let Destination::Multicast(set) = m.dest else { unreachable!() };
            assert!((8..=24).contains(&(set.len() as usize)));
        }
    }

    #[test]
    fn validation_rejects_every_bad_config() {
        let paper = Placement::paper_10x10();
        let check = |config: MulticastConfig, placement: &Placement| {
            let built = MulticastTraffic::new(placement.clone(), config.clone()).err();
            assert_eq!(built, config.validate(placement).err(), "{config:?}");
            built
        };
        let base = MulticastConfig::default;
        assert_eq!(check(base(), &paper), None);
        for rate_per_cache in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1e17] {
            let config = MulticastConfig { rate_per_cache, ..base() };
            assert_eq!(check(config, &paper), Some(MulticastError::Rate), "{rate_per_cache}");
        }
        // The limit is on the expected count a cycle, over 32 caches.
        let edge = |rate_per_cache| MulticastConfig { rate_per_cache, ..base() };
        assert_eq!(check(edge(RATE_LIMIT / 32.0), &paper), Some(MulticastError::Rate));
        assert_eq!(check(edge((RATE_LIMIT - 1.0) / 32.0), &paper), None);
        for locality in [f64::NAN, 0.0, -0.2, 1.5] {
            let config = MulticastConfig { locality, ..base() };
            assert_eq!(check(config, &paper), Some(MulticastError::Locality), "{locality}");
        }
        for (min_dests, max_dests) in [(0, 4), (9, 8)] {
            let config = MulticastConfig { min_dests, max_dests, ..base() };
            assert_eq!(check(config, &paper), Some(MulticastError::DestRange));
        }
        let cores_only = Placement::cores_only(GridDims::new(4, 4));
        assert_eq!(check(base(), &cores_only), Some(MulticastError::NoCaches));
        // Four clusters of eight banks and four memory ports fill a 6×6 grid.
        let no_cores = Placement::quadrant_clusters(GridDims::new(6, 6));
        assert_eq!(check(base(), &no_cores), Some(MulticastError::NoCores));
        let wide = Placement::quadrant_clusters(GridDims::new(16, 16));
        let Some(MulticastError::BeyondDestSet { router }) = check(base(), &wide) else {
            panic!("16x16 multicast must be refused")
        };
        assert!(router >= DestSet::CAPACITY, "router {router}");
        assert!(wide.caches().contains(&router) || wide.cores().contains(&router));
    }

    /// The certain part of the expected count makes no draw: at exactly one
    /// multicast a cycle, the stream only draws what fresh pairs need.
    #[test]
    fn whole_counts_make_no_arrival_draw() {
        let placement = Placement::paper_10x10();
        let rate_per_cache = 1.0 / placement.caches().len() as f64;
        let config = MulticastConfig { rate_per_cache, locality: 1.0, ..Default::default() };
        let mut w = MulticastTraffic::new(placement, config).unwrap();
        let mut reference = w.clone();
        let mut out = Vec::new();
        for cycle in 0..50 {
            w.messages_at(cycle, &mut out);
            reference.next_multicast();
        }
        assert_eq!(out.len(), 50);
        assert_eq!(w.rng, reference.rng);
    }

    #[test]
    fn combined_workload_merges() {
        let p = Placement::paper_10x10();
        let mc = MulticastTraffic::new(
            p.clone(),
            MulticastConfig { rate_per_cache: 0.05, ..Default::default() },
        )
        .unwrap();
        let uni = crate::patterns::ProbabilisticWorkload::new(
            p,
            crate::patterns::TraceKind::Uniform,
            crate::patterns::TrafficConfig::default(),
        )
        .unwrap();
        let mut combined = CombinedWorkload::new().with(Box::new(uni)).with(Box::new(mc));
        let mut out = Vec::new();
        for c in 0..200 {
            combined.messages_at(c, &mut out);
        }
        let unicasts = out.iter().filter(|m| matches!(m.dest, Destination::Unicast(_))).count();
        let multicasts =
            out.iter().filter(|m| matches!(m.dest, Destination::Multicast(_))).count();
        assert!(unicasts > 0 && multicasts > 0);
    }
}
