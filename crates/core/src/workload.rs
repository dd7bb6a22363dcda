//! Workload specifications: constructible, profilable traffic sources.

use rfnoc_sim::{Destination, Workload};
use rfnoc_topology::{PairWeights, Shortcut};
use rfnoc_traffic::{
    AppProfile, AppWorkload, CombinedWorkload, MulticastConfig, MulticastError,
    MulticastTraffic, Placement, ProbabilisticWorkload, ProfileError, ProfileSpec,
    ProfileWorkload, TraceKind, TrafficConfig, TrafficError,
};
use std::fmt;

/// Why a [`WorkloadSpec`] cannot drive a placement with a traffic config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadError {
    /// The traffic config, the trace or the application profile is out of
    /// range.
    Traffic(TrafficError),
    /// The campaign profile spec is out of range.
    Profile(ProfileError),
    /// The multicast augmentation is out of range, or the placement cannot
    /// carry it.
    Multicast(MulticastError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Traffic(e) => write!(f, "{e}"),
            WorkloadError::Profile(e) => write!(f, "{e}"),
            WorkloadError::Multicast(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<TrafficError> for WorkloadError {
    fn from(e: TrafficError) -> Self {
        WorkloadError::Traffic(e)
    }
}

impl From<ProfileError> for WorkloadError {
    fn from(e: ProfileError) -> Self {
        WorkloadError::Profile(e)
    }
}

impl From<MulticastError> for WorkloadError {
    fn from(e: MulticastError) -> Self {
        WorkloadError::Multicast(e)
    }
}

/// A recipe for a traffic source. Unlike a live [`Workload`] (which is
/// stateful), a spec can be instantiated repeatedly — once to profile
/// communication frequencies for adaptive shortcut selection, and once for
/// the measured run. Deterministic seeds make both instances identical,
/// matching the paper's assumption that "this profile is available for the
/// applications we wish to run" (§3.2.2).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One of the Table 1 probabilistic traces.
    Trace(TraceKind),
    /// A synthetic application trace (§4.2 substitution).
    App(AppProfile),
    /// A probabilistic trace augmented with coherence multicasts at the
    /// given destination-set locality (0.2 or 0.5, §5.2).
    TraceWithMulticast {
        /// The underlying unicast trace.
        base: TraceKind,
        /// Fraction of distinct source-to-destination-set pairs.
        locality: f64,
        /// Mean multicasts per cache bank per cycle.
        rate_per_cache: f64,
    },
    /// A seeded resilience-campaign profile (expected / stress /
    /// adversarial). The adversarial shape targets the *built* system's
    /// shortcut set, which only [`crate::Experiment::run`] knows — so
    /// [`WorkloadSpec::instantiate`] realises it against an empty overlay
    /// (degrading to the stress shape) and experiments use
    /// [`WorkloadSpec::instantiate_for`] with the selected shortcuts.
    Profile(ProfileSpec),
}

impl WorkloadSpec {
    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Trace(kind) => kind.name().to_string(),
            WorkloadSpec::App(profile) => profile.name.to_string(),
            WorkloadSpec::TraceWithMulticast { base, locality, .. } => {
                format!("{}+MC{}", base.name(), (locality * 100.0).round() as u32)
            }
            WorkloadSpec::Profile(spec) => spec.profile.label().to_string(),
        }
    }

    /// Checks everything the generators of this spec read, before any of
    /// them draws: `traffic`, the trace's or application's fit to
    /// `placement`, the profile spec, and the multicast config (which
    /// `placement` must be able to address).
    ///
    /// # Errors
    ///
    /// Returns the first [`WorkloadError`] found.
    pub fn validate(
        &self,
        placement: &Placement,
        traffic: &TrafficConfig,
    ) -> Result<(), WorkloadError> {
        traffic.validate()?;
        match self {
            WorkloadSpec::Trace(kind) => kind.validate(placement)?,
            WorkloadSpec::App(profile) => profile.validate(placement)?,
            WorkloadSpec::TraceWithMulticast { base, locality, rate_per_cache } => {
                base.validate(placement)?;
                multicast_config(*locality, *rate_per_cache, traffic).validate(placement)?;
            }
            WorkloadSpec::Profile(spec) => spec.validate()?,
        }
        Ok(())
    }

    /// Builds a fresh workload instance.
    ///
    /// # Panics
    ///
    /// As [`WorkloadSpec::instantiate_for`].
    pub fn instantiate(
        &self,
        placement: &Placement,
        traffic: &TrafficConfig,
    ) -> Box<dyn Workload> {
        self.instantiate_for(placement, traffic, &[])
    }

    /// Builds a fresh workload instance against the selected RF-I
    /// shortcut set. Only [`WorkloadSpec::Profile`] reads `shortcuts`
    /// (its adversarial shape concentrates load on them); every other
    /// spec ignores it, so this is identical to
    /// [`WorkloadSpec::instantiate`] for them.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`]: validate first
    /// when handling untrusted configs.
    pub fn instantiate_for(
        &self,
        placement: &Placement,
        traffic: &TrafficConfig,
        shortcuts: &[Shortcut],
    ) -> Box<dyn Workload> {
        self.try_instantiate_for(placement, traffic, shortcuts)
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name()))
    }

    fn try_instantiate_for(
        &self,
        placement: &Placement,
        traffic: &TrafficConfig,
        shortcuts: &[Shortcut],
    ) -> Result<Box<dyn Workload>, WorkloadError> {
        let trace = |kind| ProbabilisticWorkload::new(placement.clone(), kind, traffic.clone());
        Ok(match self {
            WorkloadSpec::Trace(kind) => Box::new(trace(*kind)?),
            WorkloadSpec::App(profile) => Box::new(AppWorkload::new(
                placement.clone(),
                profile.clone(),
                traffic.injection_rate,
                traffic.seed,
            )?),
            WorkloadSpec::TraceWithMulticast { base, locality, rate_per_cache } => {
                let unicast = trace(*base)?;
                let config = multicast_config(*locality, *rate_per_cache, traffic);
                let mc = MulticastTraffic::new(placement.clone(), config)?;
                Box::new(CombinedWorkload::new().with(Box::new(unicast)).with(Box::new(mc)))
            }
            WorkloadSpec::Profile(spec) => Box::new(ProfileWorkload::new(
                placement.clone(),
                spec.clone(),
                traffic.clone(),
                shortcuts,
            )?),
        })
    }

    /// Profiles inter-router communication frequency `F(x,y)` — the number
    /// of messages sent from router `x` to router `y` — by generating
    /// `cycles` cycles of traffic (the event-counter profile of §3.2.2).
    /// Only unicast messages are counted: shortcuts serve point-to-point
    /// traffic, multicasts ride the broadcast band.
    ///
    /// # Panics
    ///
    /// As [`WorkloadSpec::instantiate_for`].
    pub fn profile(
        &self,
        placement: &Placement,
        traffic: &TrafficConfig,
        cycles: u64,
    ) -> PairWeights {
        let mut workload = self.instantiate(placement, traffic);
        let n = placement.dims().nodes();
        let mut weights = PairWeights::zero(n);
        let mut buf = Vec::new();
        for cycle in 0..cycles {
            buf.clear();
            workload.messages_at(cycle, &mut buf);
            for m in &buf {
                if let Destination::Unicast(dst) = m.dest {
                    weights.add(m.src, dst, 1.0);
                }
            }
        }
        weights
    }
}

/// The multicast augmentation of a [`WorkloadSpec::TraceWithMulticast`],
/// seeded from the unicast trace's seed.
fn multicast_config(
    locality: f64,
    rate_per_cache: f64,
    traffic: &TrafficConfig,
) -> MulticastConfig {
    MulticastConfig {
        rate_per_cache,
        locality,
        seed: traffic.seed ^ 0x5EED,
        ..MulticastConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_reflects_hotspot() {
        let placement = Placement::paper_10x10();
        let spec = WorkloadSpec::Trace(TraceKind::Hotspot1);
        let weights = spec.profile(&placement, &TrafficConfig::default(), 2_000);
        let hot = placement.hotspot_caches(1)[0];
        let top = weights.top_pairs(20);
        let hot_pairs = top.iter().filter(|(s, d, _)| *s == hot || *d == hot).count();
        assert!(hot_pairs >= 15, "hotspot pairs in top-20: {hot_pairs}");
    }

    #[test]
    fn profile_is_reproducible() {
        let placement = Placement::paper_10x10();
        let spec = WorkloadSpec::Trace(TraceKind::BiDf);
        let traffic = TrafficConfig::default();
        let a = spec.profile(&placement, &traffic, 500);
        let b = spec.profile(&placement, &traffic, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn multicast_spec_emits_both_kinds() {
        let placement = Placement::paper_10x10();
        let spec = WorkloadSpec::TraceWithMulticast {
            base: TraceKind::Uniform,
            locality: 0.2,
            rate_per_cache: 0.01,
        };
        let mut w = spec.instantiate(&placement, &TrafficConfig::default());
        let mut out = Vec::new();
        for c in 0..500 {
            w.messages_at(c, &mut out);
        }
        assert!(out.iter().any(|m| matches!(m.dest, Destination::Unicast(_))));
        assert!(out.iter().any(|m| matches!(m.dest, Destination::Multicast(_))));
    }

    /// Every generator's config is checked against the placement before a
    /// draw, multicast on routers beyond the destination vector included.
    #[test]
    fn validate_covers_every_generator_config() {
        let paper = Placement::paper_10x10();
        let ok = TrafficConfig::default();
        let mc = |rate_per_cache, locality| WorkloadSpec::TraceWithMulticast {
            base: TraceKind::Uniform,
            locality,
            rate_per_cache,
        };
        assert_eq!(mc(0.001, 0.2).validate(&paper, &ok), Ok(()));
        let nan_rate = TrafficConfig { injection_rate: f64::NAN, ..ok.clone() };
        assert_eq!(
            WorkloadSpec::App(AppProfile::x264()).validate(&paper, &nan_rate),
            Err(WorkloadError::Traffic(TrafficError::InjectionRate))
        );
        let cores_only = Placement::cores_only(rfnoc_topology::GridDims::new(8, 8));
        assert_eq!(
            WorkloadSpec::Trace(TraceKind::Hotspot1).validate(&cores_only, &ok),
            Err(WorkloadError::Traffic(TrafficError::Hotspots))
        );
        let mut spec = ProfileSpec::new(rfnoc_traffic::Profile::Stress, 1);
        spec.mean_on = f64::NAN;
        assert_eq!(
            WorkloadSpec::Profile(spec).validate(&paper, &ok),
            Err(WorkloadError::Profile(ProfileError::DegenerateBurstShape))
        );
        assert_eq!(
            mc(1e17, 0.2).validate(&paper, &ok),
            Err(WorkloadError::Multicast(MulticastError::Rate))
        );
        assert_eq!(
            mc(0.001, f64::NAN).validate(&paper, &ok),
            Err(WorkloadError::Multicast(MulticastError::Locality))
        );
        let wide = Placement::quadrant_clusters(rfnoc_topology::GridDims::new(16, 16));
        assert!(matches!(
            mc(0.001, 0.2).validate(&wide, &ok),
            Err(WorkloadError::Multicast(MulticastError::BeyondDestSet { router }))
                if router >= rfnoc_sim::DestSet::CAPACITY
        ));
        assert_eq!(WorkloadSpec::Trace(TraceKind::Uniform).validate(&wide, &ok), Ok(()));
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(WorkloadSpec::Trace(TraceKind::Uniform).name(), "Uniform");
        assert_eq!(WorkloadSpec::App(AppProfile::x264()).name(), "x264");
        let mc = WorkloadSpec::TraceWithMulticast {
            base: TraceKind::Hotspot1,
            locality: 0.2,
            rate_per_cache: 0.01,
        };
        assert_eq!(mc.name(), "1Hotspot+MC20");
        let adv = WorkloadSpec::Profile(ProfileSpec::new(
            rfnoc_traffic::Profile::Adversarial,
            7,
        ));
        assert_eq!(adv.name(), "adversarial");
    }

    #[test]
    fn profile_spec_targets_given_shortcuts() {
        let placement = Placement::paper_10x10();
        let spec = WorkloadSpec::Profile(ProfileSpec::new(
            rfnoc_traffic::Profile::Adversarial,
            11,
        ));
        let shortcuts = [Shortcut::new(0, 99)];
        let traffic = TrafficConfig::default();
        let mut w = spec.instantiate_for(&placement, &traffic, &shortcuts);
        let mut out = Vec::new();
        for c in 0..20_000 {
            w.messages_at(c, &mut out);
        }
        let to_sink = out
            .iter()
            .filter(|m| matches!(m.dest, Destination::Unicast(99)))
            .count();
        assert!(
            to_sink * 3 > out.len(),
            "shortcut sink draws the bulk of adversarial traffic ({to_sink}/{})",
            out.len()
        );
    }
}
