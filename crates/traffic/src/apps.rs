//! Application-profile traces (paper §4.2, Figure 1).
//!
//! The paper replays Simics-captured network traces of PARSEC applications
//! (bodytrack, fluidanimate, streamcluster, x264) and SPECjbb2005. Those
//! traces are proprietary/full-system artifacts, so this reproduction
//! substitutes synthetic generators parameterised by what the paper itself
//! reports about each application:
//!
//! * the message count vs Manhattan-distance histograms of Figure 1
//!   (x264: broad with a mid-distance peak; bodytrack: strongly local with
//!   almost no 14-hop traffic);
//! * the hotspot structure observed by the authors ("bodytrack has two
//!   network hotspots ... x264 has only one");
//! * the message-class mix of §4.1.
//!
//! The NoC experiments consume only `(source, destination, size, time)`
//! streams, so matching these spatial statistics exercises the same
//! adaptive-shortcut and bandwidth-reduction behaviour as the real traces.

use crate::arrivals::{Arrival, Arrivals, Scan};
use crate::placement::{ComponentKind, Placement};
use crate::patterns::{check_hotspots, class_for, TrafficError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfnoc_sim::{MessageSpec, Workload};
use rfnoc_topology::NodeId;

/// Maximum Manhattan distance on the 10×10 mesh.
const MAX_DIST: usize = 18;

/// A synthetic application communication profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name.
    pub name: &'static str,
    /// Relative message frequency by Manhattan distance (index = hops;
    /// index 0 unused). Normalised internally.
    pub distance_weights: [f64; MAX_DIST + 1],
    /// Number of network hotspots.
    pub hotspot_count: usize,
    /// Fraction of traffic directed at the hotspots.
    pub hot_fraction: f64,
    /// Threads of the original application run (paper Figure 5b: all
    /// applications execute on the 64-core SPARC system).
    pub threads: usize,
    /// Input configuration of the original run (PARSEC `simlarge`, or the
    /// SPECjbb2005 warehouse setup).
    pub input_set: &'static str,
}

impl AppProfile {
    /// x264: broad distance distribution with a mid-range peak and traffic
    /// out to 14 hops; one communication hotspot (Figure 1a).
    pub fn x264() -> Self {
        Self {
            name: "x264",
            distance_weights: [
                0.0, 2.0, 2.5, 3.0, 4.0, 4.2, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.7, 0.5, 0.3,
                0.2, 0.1, 0.1,
            ],
            hotspot_count: 1,
            hot_fraction: 0.25,
            threads: 64,
            input_set: "PARSEC simlarge",
        }
    }

    /// bodytrack: strongly local traffic, a single-hop peak, almost nothing
    /// at 14 hops; two hotspots (Figure 1b).
    pub fn bodytrack() -> Self {
        Self {
            name: "bodytrack",
            distance_weights: [
                0.0, 10.0, 8.0, 6.0, 4.5, 3.5, 2.5, 1.8, 1.2, 0.8, 0.4, 0.2, 0.1, 0.05, 0.01,
                0.0, 0.0, 0.0, 0.0,
            ],
            hotspot_count: 2,
            hot_fraction: 0.3,
            threads: 64,
            input_set: "PARSEC simlarge",
        }
    }

    /// fluidanimate: nearest-neighbour dominated (spatial decomposition).
    pub fn fluidanimate() -> Self {
        Self {
            name: "fluidanimate",
            distance_weights: [
                0.0, 12.0, 7.0, 3.0, 1.5, 0.8, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0, 0.0, 0.0,
                0.0, 0.0, 0.0, 0.0,
            ],
            hotspot_count: 0,
            hot_fraction: 0.0,
            threads: 64,
            input_set: "PARSEC simlarge",
        }
    }

    /// streamcluster: moderate locality around a shared centre structure.
    pub fn streamcluster() -> Self {
        Self {
            name: "streamcluster",
            distance_weights: [
                0.0, 5.0, 5.0, 4.5, 4.0, 3.0, 2.0, 1.5, 1.0, 0.6, 0.3, 0.2, 0.1, 0.05, 0.02,
                0.01, 0.0, 0.0, 0.0,
            ],
            hotspot_count: 1,
            hot_fraction: 0.35,
            threads: 64,
            input_set: "PARSEC simlarge",
        }
    }

    /// SPECjbb2005: commercial workload with a near-uniform spread.
    pub fn specjbb() -> Self {
        Self {
            name: "specjbb",
            distance_weights: [
                0.0, 1.0, 1.2, 1.4, 1.5, 1.5, 1.5, 1.4, 1.3, 1.2, 1.0, 0.8, 0.6, 0.4, 0.3, 0.2,
                0.1, 0.05, 0.02,
            ],
            hotspot_count: 0,
            hot_fraction: 0.0,
            threads: 64,
            input_set: "SPECjbb2005 warehouses",
        }
    }

    /// All five applications evaluated in the paper (§4.2).
    pub fn paper_suite() -> Vec<AppProfile> {
        vec![
            Self::specjbb(),
            Self::bodytrack(),
            Self::fluidanimate(),
            Self::streamcluster(),
            Self::x264(),
        ]
    }

    /// Checks the profile's fields, and that `placement` has a cache
    /// cluster for each hotspot.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::HotFraction`] for a `hot_fraction` outside
    /// `[0, 1]`, [`TrafficError::DistanceWeights`] for a negative weight or
    /// a sum that is not finite, and [`TrafficError::Hotspots`].
    pub fn validate(&self, placement: &Placement) -> Result<(), TrafficError> {
        if !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err(TrafficError::HotFraction);
        }
        let weights = &self.distance_weights;
        // A NaN or infinite weight makes the sum NaN or infinite.
        if weights.iter().any(|&w| w < 0.0) || !weights.iter().sum::<f64>().is_finite() {
            return Err(TrafficError::DistanceWeights);
        }
        check_hotspots(self.hotspot_count, placement)
    }
}

/// Synthetic application-trace generator.
#[derive(Debug, Clone)]
pub struct AppWorkload {
    placement: Placement,
    profile: AppProfile,
    /// One draw per router per cycle at `min(injection_rate, 1)`, none on
    /// memory ports: app profiles cover core/cache traffic only.
    arrivals: Arrivals,
    rng: StdRng,
    hotspots: Vec<NodeId>,
    /// `buckets[src][d]` = non-memory components at Manhattan distance `d`
    /// from `src`.
    buckets: Vec<Vec<Vec<NodeId>>>,
    /// Cumulative per-source sampling weights over distances with non-empty
    /// buckets.
    cumulative: Vec<Vec<(f64, usize)>>,
}

impl AppWorkload {
    /// Creates the generator.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InjectionRate`] if `injection_rate` is
    /// negative or not finite, and the error of [`AppProfile::validate`]
    /// on `placement`.
    pub fn new(
        placement: Placement,
        profile: AppProfile,
        injection_rate: f64,
        seed: u64,
    ) -> Result<Self, TrafficError> {
        if !(injection_rate.is_finite() && injection_rate >= 0.0) {
            return Err(TrafficError::InjectionRate);
        }
        profile.validate(&placement)?;
        let dims = placement.dims();
        let n = dims.nodes();
        let endpoints: Vec<NodeId> = placement
            .all()
            .filter(|&r| placement.kind(r) != ComponentKind::Memory)
            .collect();
        let mut buckets = vec![vec![Vec::new(); MAX_DIST + 1]; n];
        for (src, by_dist) in buckets.iter_mut().enumerate() {
            for &e in &endpoints {
                if e != src {
                    let d = dims.manhattan(src, e) as usize;
                    by_dist[d.min(MAX_DIST)].push(e);
                }
            }
        }
        let mut cumulative = Vec::with_capacity(n);
        for by_dist in &buckets {
            let mut acc = 0.0;
            let mut cum = Vec::new();
            for (d, w) in profile.distance_weights.iter().enumerate() {
                if *w > 0.0 && !by_dist[d].is_empty() {
                    acc += w;
                    cum.push((acc, d));
                }
            }
            cumulative.push(cum);
        }
        let hotspots = match profile.hotspot_count {
            0 => Vec::new(),
            k => placement.hotspot_caches(k),
        };
        let arrivals = placement
            .all()
            .map(|r| match placement.kind(r) {
                ComponentKind::Memory => Arrival::SILENT,
                _ => Arrival::draw(injection_rate.min(1.0)),
            })
            .collect();
        Ok(Self {
            placement,
            profile,
            arrivals,
            rng: StdRng::seed_from_u64(seed),
            hotspots,
            buckets,
            cumulative,
        })
    }

    /// The application profile driving this workload.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    fn sample_destination(&mut self, src: NodeId) -> Option<NodeId> {
        if !self.hotspots.is_empty() && self.rng.gen_bool(self.profile.hot_fraction) {
            let h = self.hotspots[self.rng.gen_range(0..self.hotspots.len())];
            if h != src {
                return Some(h);
            }
        }
        let cum = &self.cumulative[src];
        let total = cum.last()?.0;
        let pick: f64 = self.rng.gen_range(0.0..total);
        let d = cum
            .iter()
            .find(|(acc, _)| pick < *acc)
            .map(|(_, d)| *d)
            .unwrap_or(cum.last()?.1);
        let bucket = &self.buckets[src][d];
        Some(bucket[self.rng.gen_range(0..bucket.len())])
    }
}

impl Workload for AppWorkload {
    fn messages_at(&mut self, _cycle: u64, out: &mut Vec<MessageSpec>) {
        let mut scan = Scan::default();
        while let Some(src) = self.arrivals.next(&mut self.rng, &mut scan) {
            if let Some(dst) = self.sample_destination(src) {
                let class = class_for(self.placement.kind(src), self.placement.kind(dst));
                out.push(MessageSpec::unicast(src, dst, class));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(profile: AppProfile, cycles: u64) -> Vec<u64> {
        let placement = Placement::paper_10x10();
        let dims = placement.dims();
        let mut w = AppWorkload::new(placement, profile, 0.05, 7).unwrap();
        let mut out = Vec::new();
        for c in 0..cycles {
            w.messages_at(c, &mut out);
        }
        let mut hist = vec![0u64; MAX_DIST + 1];
        for m in &out {
            let rfnoc_sim::Destination::Unicast(d) = m.dest else { continue };
            hist[dims.manhattan(m.src, d) as usize] += 1;
        }
        hist
    }

    #[test]
    fn bodytrack_is_local_x264_is_not() {
        let bt = histogram(AppProfile::bodytrack(), 1_000);
        let x = histogram(AppProfile::x264(), 1_000);
        let short = |h: &Vec<u64>| h[1..=2].iter().sum::<u64>() as f64;
        let total = |h: &Vec<u64>| h.iter().sum::<u64>() as f64;
        let bt_local = short(&bt) / total(&bt);
        let x_local = short(&x) / total(&x);
        assert!(
            bt_local > 2.0 * x_local,
            "bodytrack local share {bt_local:.3} vs x264 {x_local:.3}"
        );
        // Figure 1b: bodytrack has almost no traffic at 14 hops (a small
        // residue comes from hotspot-directed messages).
        assert!(bt[14] as f64 <= total(&bt) * 0.02);
        assert!(x[10..].iter().sum::<u64>() > 0, "x264 has long-range traffic");
    }

    #[test]
    fn hotspot_profiles_target_hot_caches() {
        let placement = Placement::paper_10x10();
        let hot = placement.hotspot_caches(1)[0];
        let mut w = AppWorkload::new(placement, AppProfile::x264(), 0.05, 7).unwrap();
        let mut out = Vec::new();
        for c in 0..800 {
            w.messages_at(c, &mut out);
        }
        let to_hot = out
            .iter()
            .filter(|m| matches!(m.dest, rfnoc_sim::Destination::Unicast(d) if d == hot))
            .count() as f64;
        assert!(to_hot / out.len() as f64 > 0.1);
    }

    /// Every non-memory source draws once a cycle, even at rate 0; memory
    /// ports never draw.
    #[test]
    fn draws_once_per_non_memory_source() {
        let placement = Placement::paper_10x10();
        let mut w = AppWorkload::new(placement.clone(), AppProfile::x264(), 0.0, 3).unwrap();
        let mut want = w.rng.clone();
        let mut out = Vec::new();
        w.messages_at(0, &mut out);
        assert!(out.is_empty());
        for _ in placement.all().filter(|&r| placement.kind(r) != ComponentKind::Memory) {
            want.gen::<u64>();
        }
        assert_eq!(w.rng, want);
    }

    #[test]
    fn suite_has_five_apps_with_distinct_names() {
        let suite = AppProfile::paper_suite();
        assert_eq!(suite.len(), 5);
        let names: std::collections::HashSet<_> = suite.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn generator_is_deterministic() {
        let placement = Placement::paper_10x10();
        let run = |seed| {
            let mut w = AppWorkload::new(placement.clone(), AppProfile::specjbb(), 0.05, seed)
                .unwrap();
            let mut out = Vec::new();
            for c in 0..100 {
                w.messages_at(c, &mut out);
            }
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
