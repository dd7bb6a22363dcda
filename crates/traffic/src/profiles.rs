//! Seeded workload profiles for resilience campaigns.
//!
//! A campaign exercises the network under three standard load shapes,
//! each compiled from one master seed:
//!
//! * [`Profile::Expected`] — smooth Bernoulli arrivals at the configured
//!   injection rate between placement endpoints; the benign operating
//!   point the rest of the suite measures.
//! * [`Profile::Stress`] — the same endpoints driven by bursty,
//!   self-similar on/off sources (Pareto-distributed burst and gap
//!   lengths), which raises queueing variance without changing the mean
//!   offered load much.
//! * [`Profile::Adversarial`] — the stress arrival process aimed at the
//!   selected RF-I shortcut set: sources that own a shortcut transmitter
//!   fire down it, and everyone else piles onto the shortcut sinks. This
//!   concentrates load exactly where a fault (a `BandDown`, a regional
//!   storm) hurts the most — the worst-case shape for the paper's
//!   graceful-degradation claim.
//!
//! Per-profile streams are decorrelated by [`derive_seed`]: one campaign
//! seed plus the profile label yields the stream seed, so the three
//! profiles of one campaign never share a random sequence, while the
//! same campaign seed always reproduces the same three streams bit for
//! bit.

use crate::arrivals::{Arrival, Arrivals, Bernoulli, Scan};
use crate::placement::Placement;
use crate::patterns::{class_for, TrafficConfig, TrafficError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfnoc_sim::{MessageSpec, Workload};
use rfnoc_topology::{NodeId, Shortcut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// The three campaign traffic profiles, mildest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// Smooth arrivals at the nominal rate.
    Expected,
    /// Bursty self-similar arrivals, uniform destinations.
    Stress,
    /// Bursty self-similar arrivals concentrated on shortcut endpoints.
    Adversarial,
}

impl Profile {
    /// All profiles, mildest first.
    pub fn all() -> [Profile; 3] {
        [Profile::Expected, Profile::Stress, Profile::Adversarial]
    }

    /// Stable lowercase label used for seed derivation and artifact ids.
    pub fn label(self) -> &'static str {
        match self {
            Profile::Expected => "expected",
            Profile::Stress => "stress",
            Profile::Adversarial => "adversarial",
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Derives a per-profile stream seed from one master campaign seed and a
/// profile label: FNV-1a over the label folded into the master seed,
/// finished with a splitmix avalanche so that labels differing in one
/// byte land in unrelated streams.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master.rotate_left(17);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A profile config that failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileError {
    /// `burst_gain` must be finite and at least 1 (bursts amplify, never
    /// mute).
    BurstGainBelowOne,
    /// `pareto_alpha` must lie in `(1, 2]`: above 1 so burst lengths have
    /// a finite mean, at most 2 so the process stays self-similar.
    AlphaOutOfRange,
    /// Mean burst and gap lengths must be finite and at least one cycle.
    DegenerateBurstShape,
    /// `target_fraction` must lie in `[0, 1]`.
    TargetFractionOutOfRange,
    /// The traffic config the profile scales failed
    /// [`TrafficConfig::validate`].
    Traffic(TrafficError),
    /// A shortcut endpoint lies outside the placement.
    ShortcutOutOfRange {
        /// The endpoint.
        router: NodeId,
    },
    /// Every router sends to another one, so the placement needs two.
    TooFewRouters {
        /// The placement's router count.
        routers: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::BurstGainBelowOne => write!(f, "burst_gain must be finite and >= 1"),
            ProfileError::AlphaOutOfRange => {
                write!(f, "pareto_alpha must lie in (1, 2] for a finite-mean self-similar process")
            }
            ProfileError::DegenerateBurstShape => {
                write!(f, "mean_on and mean_off must be finite and at least one cycle")
            }
            ProfileError::TargetFractionOutOfRange => {
                write!(f, "target_fraction must lie in [0, 1]")
            }
            ProfileError::Traffic(e) => write!(f, "{e}"),
            ProfileError::ShortcutOutOfRange { router } => {
                write!(f, "shortcut endpoint {router} lies outside the placement")
            }
            ProfileError::TooFewRouters { routers } => {
                write!(f, "a profile sends between two routers; the placement has {routers}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// Validated parameters of one profile stream.
///
/// Construct with [`ProfileSpec::new`] (per-profile defaults) and
/// customise the public fields; every constructor of a live workload
/// re-validates, so an out-of-range hand-edit is caught at build time
/// rather than silently generating nonsense traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Which load shape this stream realises.
    pub profile: Profile,
    /// Master campaign seed; the stream seed is derived per profile.
    pub seed: u64,
    /// Injection multiplier while a source is bursting (≥ 1).
    pub burst_gain: f64,
    /// Pareto tail index of burst/gap lengths, in `(1, 2]`; lower is
    /// burstier.
    pub pareto_alpha: f64,
    /// Mean burst length in cycles.
    pub mean_on: f64,
    /// Mean gap length in cycles.
    pub mean_off: f64,
    /// Adversarial only: fraction of messages aimed at shortcut
    /// endpoints (ignored by the other profiles).
    pub target_fraction: f64,
}

impl ProfileSpec {
    /// Per-profile defaults for master seed `seed`.
    ///
    /// The duty cycle (`mean_on / (mean_on + mean_off)` = 1/5) and burst
    /// gain of 5 are chosen so the stress profiles offer roughly the
    /// same *mean* load as the expected profile — degradation under
    /// stress is then attributable to burstiness, not to extra bytes.
    pub fn new(profile: Profile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            burst_gain: 5.0,
            pareto_alpha: 1.5,
            mean_on: 60.0,
            mean_off: 240.0,
            target_fraction: 0.7,
        }
    }

    /// Checks the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProfileError`] violated.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let at_least_one = |v: f64| v.is_finite() && v >= 1.0;
        if !at_least_one(self.burst_gain) {
            return Err(ProfileError::BurstGainBelowOne);
        }
        if !(self.pareto_alpha > 1.0 && self.pareto_alpha <= 2.0) {
            return Err(ProfileError::AlphaOutOfRange);
        }
        if !at_least_one(self.mean_on) || !at_least_one(self.mean_off) {
            return Err(ProfileError::DegenerateBurstShape);
        }
        if !(0.0..=1.0).contains(&self.target_fraction) {
            return Err(ProfileError::TargetFractionOutOfRange);
        }
        Ok(())
    }

    /// The derived seed of this profile's stream.
    pub fn stream_seed(&self) -> u64 {
        derive_seed(self.seed, self.profile.label())
    }
}

/// The on/off phase machines of the bursty profiles' sources. A source in
/// a gap makes no draw until its phase ends, so a cycle visits only the
/// bursting sources and those whose phase ends: their union, in router
/// order.
#[derive(Debug, Clone)]
struct Phases {
    /// Bit `src % 64` of word `src / 64` is set while `src` bursts.
    bursting: Box<[u64]>,
    /// One `(until, src)` a source: `until` is the first cycle of its next
    /// phase.
    ends: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// The sources whose phase ends this cycle, as `bursting`; all clear
    /// between calls.
    ending: Box<[u64]>,
}

impl Phases {
    /// `sources` sources in a gap that ends at cycle 0.
    fn new(sources: usize) -> Self {
        let words = sources.div_ceil(64);
        Self {
            bursting: vec![0; words].into(),
            ends: (0..sources).map(|src| Reverse((0, src))).collect(),
            ending: vec![0; words].into(),
        }
    }

    /// Moves every source whose phase ends by `cycle` from `ends` to
    /// `ending`.
    fn take_due(&mut self, cycle: u64) {
        while let Some(&Reverse((until, src))) = self.ends.peek() {
            if until > cycle {
                break;
            }
            self.ends.pop();
            self.ending[src / 64] |= 1 << (src % 64);
        }
    }
}

/// The Pareto length distribution of one phase kind (burst or gap) with
/// mean `mean`, clamped to `[1, 100 * mean]` so one extreme draw cannot
/// freeze a source for a whole run.
#[derive(Debug, Clone, Copy)]
struct PhaseLength {
    /// `mean * (alpha - 1) / alpha`.
    scale: f64,
    /// `-1 / alpha`.
    exponent: f64,
    /// `100 * mean`.
    longest: f64,
}

impl PhaseLength {
    fn new(mean: f64, alpha: f64) -> Self {
        Self {
            scale: mean * (alpha - 1.0) / alpha,
            exponent: -1.0 / alpha,
            longest: mean * 100.0,
        }
    }

    fn sample(self, rng: &mut StdRng) -> u64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        let len = self.scale * u.powf(self.exponent);
        len.clamp(1.0, self.longest).round() as u64
    }
}

/// A live traffic source realising one [`ProfileSpec`].
///
/// Implements [`Workload`]; the same spec, traffic config, and shortcut
/// set always generate the same message stream. When the shortcut set is
/// empty (a pure-mesh design) the adversarial profile degrades to the
/// stress shape — there is no express path to gang up on.
#[derive(Debug, Clone)]
pub struct ProfileWorkload {
    spec: ProfileSpec,
    placement: Placement,
    rng: StdRng,
    /// The expected profile's sources: one certain message a cycle at a
    /// rate of 1 or more, else one draw at the rate (even at 0). Empty for
    /// the bursty profiles, whose phases decide.
    arrivals: Arrivals,
    /// A bursting source's trial at `rate × burst_gain`; `None` (a certain
    /// message, no draw) once that reaches 1.
    burst: Option<Bernoulli>,
    burst_length: PhaseLength,
    gap_length: PhaseLength,
    /// Shortcut destination of each router owning an RF transmitter.
    shortcut_dst: Vec<Option<NodeId>>,
    /// Shortcut receivers (the sinks everyone else piles onto).
    sinks: Vec<NodeId>,
    /// The bursty profiles' phase machines, one a router: every router
    /// injects. Empty for the expected profile.
    phases: Phases,
}

impl ProfileWorkload {
    /// Builds a live source; `shortcuts` is the selected RF-I shortcut
    /// set of the design under test (pass `&[]` for mesh baselines).
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] if the spec or the traffic config fails
    /// validation, the placement has fewer than two routers, or a shortcut
    /// endpoint lies outside it.
    pub fn new(
        placement: Placement,
        spec: ProfileSpec,
        traffic: TrafficConfig,
        shortcuts: &[Shortcut],
    ) -> Result<Self, ProfileError> {
        spec.validate()?;
        traffic.validate().map_err(ProfileError::Traffic)?;
        let nodes = placement.dims().nodes();
        if nodes < 2 {
            return Err(ProfileError::TooFewRouters { routers: nodes });
        }
        if let Some(router) =
            shortcuts.iter().flat_map(|s| [s.src, s.dst]).find(|&r| r >= nodes)
        {
            return Err(ProfileError::ShortcutOutOfRange { router });
        }
        let mut shortcut_dst = vec![None; nodes];
        let mut sinks = Vec::new();
        for s in shortcuts {
            shortcut_dst[s.src] = Some(s.dst);
            if !sinks.contains(&s.dst) {
                sinks.push(s.dst);
            }
        }
        let rate = traffic.injection_rate;
        let arrivals = match spec.profile {
            Profile::Expected => {
                let arrival = if rate >= 1.0 { Arrival::rate(1.0) } else { Arrival::draw(rate) };
                std::iter::repeat_n(arrival, nodes).collect()
            }
            Profile::Stress | Profile::Adversarial => Arrivals::default(),
        };
        let sources = if spec.profile == Profile::Expected { 0 } else { nodes };
        let burst_rate = (rate * spec.burst_gain).min(1.0);
        Ok(Self {
            placement,
            rng: StdRng::seed_from_u64(spec.stream_seed()),
            arrivals,
            burst: (burst_rate < 1.0).then(|| Bernoulli::new(burst_rate)),
            burst_length: PhaseLength::new(spec.mean_on, spec.pareto_alpha),
            gap_length: PhaseLength::new(spec.mean_off, spec.pareto_alpha),
            shortcut_dst,
            sinks,
            phases: Phases::new(sources),
            spec,
        })
    }

    /// The spec this workload realises.
    pub fn spec(&self) -> &ProfileSpec {
        &self.spec
    }

    /// Picks a uniform router other than `src`.
    fn uniform_dest(&mut self, src: NodeId) -> NodeId {
        loop {
            let pick = self.rng.gen_range(0..self.placement.dims().nodes());
            if pick != src {
                return pick;
            }
        }
    }

    /// Picks the destination for a message from `src`: adversarial
    /// sources target the shortcut overlay, everything else is uniform.
    fn dest_for(&mut self, src: NodeId) -> NodeId {
        if self.spec.profile != Profile::Adversarial || self.sinks.is_empty() {
            return self.uniform_dest(src);
        }
        if !self.rng.gen_bool(self.spec.target_fraction) {
            return self.uniform_dest(src);
        }
        // A source owning an RF transmitter fires straight down its own
        // shortcut; everyone else converges on a shortcut sink.
        if let Some(dst) = self.shortcut_dst[src] {
            if dst != src {
                return dst;
            }
        }
        loop {
            let pick = self.sinks[self.rng.gen_range(0..self.sinks.len())];
            if pick != src {
                return pick;
            }
            if self.sinks.len() == 1 {
                return self.uniform_dest(src);
            }
        }
    }

    fn emit(&mut self, src: NodeId, out: &mut Vec<MessageSpec>) {
        let dst = self.dest_for(src);
        let class = class_for(self.placement.kind(src), self.placement.kind(dst));
        out.push(MessageSpec::unicast(src, dst, class));
    }
}

impl Workload for ProfileWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        // The expected profile has no phases — it is plain Bernoulli at
        // the nominal rate.
        if self.spec.profile == Profile::Expected {
            let mut scan = Scan::default();
            while let Some(src) = self.arrivals.next(&mut self.rng, &mut scan) {
                self.emit(src, out);
            }
            return;
        }
        // Only a bursting source or one whose phase ends can draw. Visiting
        // their union in router order makes every draw the per-source loop
        // made, in its order: a phase end draws the next length, then a
        // bursting source draws its trial and destination.
        self.phases.take_due(cycle);
        for w in 0..self.phases.bursting.len() {
            let ending = std::mem::take(&mut self.phases.ending[w]);
            let mut visit = self.phases.bursting[w] | ending;
            while visit != 0 {
                let bit = visit & visit.wrapping_neg();
                visit ^= bit;
                let src = w * 64 + bit.trailing_zeros() as usize;
                if ending & bit != 0 {
                    self.phases.bursting[w] ^= bit;
                    let length = if self.phases.bursting[w] & bit != 0 {
                        self.burst_length
                    } else {
                        self.gap_length
                    };
                    let until = cycle.saturating_add(length.sample(&mut self.rng));
                    self.phases.ends.push(Reverse((until, src)));
                }
                if self.phases.bursting[w] & bit != 0
                    && self.burst.is_none_or(|b| b.sample(&mut self.rng))
                {
                    self.emit(src, out);
                }
            }
        }
    }
}

/// One compiled message trace: `(cycle, message)` in generation order.
pub type CompiledTrace = Vec<(u64, MessageSpec)>;

/// The three compiled traces of one campaign seed — the
/// expected/stress/adversarial bundle a resilience campaign replays.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileBundle {
    /// The benign profile's trace.
    pub expected: CompiledTrace,
    /// The bursty profile's trace.
    pub stress: CompiledTrace,
    /// The shortcut-targeting profile's trace.
    pub adversarial: CompiledTrace,
}

impl ProfileBundle {
    /// The trace of `profile`.
    pub fn trace(&self, profile: Profile) -> &CompiledTrace {
        match profile {
            Profile::Expected => &self.expected,
            Profile::Stress => &self.stress,
            Profile::Adversarial => &self.adversarial,
        }
    }
}

/// Compiles all three profile traces for `cycles` cycles from one master
/// seed. Validation happens once up front; the per-profile streams are
/// decorrelated by [`derive_seed`] and reproducible bit for bit.
///
/// # Errors
///
/// Returns a [`ProfileError`] if any derived spec fails validation.
pub fn compile_profiles(
    placement: &Placement,
    traffic: &TrafficConfig,
    shortcuts: &[Shortcut],
    master_seed: u64,
    cycles: u64,
) -> Result<ProfileBundle, ProfileError> {
    let compile = |profile: Profile| -> Result<CompiledTrace, ProfileError> {
        let spec = ProfileSpec::new(profile, master_seed);
        let mut workload =
            ProfileWorkload::new(placement.clone(), spec, traffic.clone(), shortcuts)?;
        let mut trace = Vec::new();
        let mut buf = Vec::new();
        for cycle in 0..cycles {
            buf.clear();
            workload.messages_at(cycle, &mut buf);
            trace.extend(buf.iter().map(|m| (cycle, *m)));
        }
        Ok(trace)
    };
    Ok(ProfileBundle {
        expected: compile(Profile::Expected)?,
        stress: compile(Profile::Stress)?,
        adversarial: compile(Profile::Adversarial)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rfnoc_topology::GridDims;

    fn setup() -> (Placement, TrafficConfig, Vec<Shortcut>) {
        let placement = Placement::paper_10x10();
        let traffic = TrafficConfig::default();
        let shortcuts = vec![Shortcut::new(0, 99), Shortcut::new(90, 9)];
        (placement, traffic, shortcuts)
    }

    /// The expected profile draws once per router per cycle even at rate
    /// 0, and emits exactly one message per router at a rate of 1.
    #[test]
    fn expected_profile_draw_convention() {
        let (placement, _, shortcuts) = setup();
        let spec = ProfileSpec::new(Profile::Expected, 5);
        let at = |injection_rate| {
            let traffic = TrafficConfig { injection_rate, ..TrafficConfig::default() };
            ProfileWorkload::new(placement.clone(), spec.clone(), traffic, &shortcuts).unwrap()
        };
        let mut silent = at(0.0);
        let mut want = silent.rng.clone();
        silent.messages_at(0, &mut Vec::new());
        for _ in 0..placement.dims().nodes() {
            want.gen::<u64>();
        }
        assert_eq!(silent.rng, want);
        let mut full = at(1.0);
        let mut out = Vec::new();
        full.messages_at(0, &mut out);
        assert_eq!(out.len(), placement.dims().nodes());
    }

    /// One cycle of the per-source loop that the phase bitset and end queue
    /// replace: every source's phase is checked every cycle.
    fn loop_step(
        w: &mut ProfileWorkload,
        phase: &mut [(bool, u64)],
        cycle: u64,
        out: &mut Vec<MessageSpec>,
    ) {
        for (src, (bursting, until)) in phase.iter_mut().enumerate() {
            if cycle >= *until {
                *bursting = !*bursting;
                let length = if *bursting { w.burst_length } else { w.gap_length };
                *until = cycle.saturating_add(length.sample(&mut w.rng));
            }
            if *bursting && w.burst.is_none_or(|b| b.sample(&mut w.rng)) {
                w.emit(src, out);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bitset and end queue make every draw and every message of the
        /// per-source loop, in its order, on any non-decreasing cycle
        /// sequence (repeats and skips included), with partly filled words.
        #[test]
        fn phases_match_the_per_source_loop(
            adversarial in any::<bool>(),
            half_side in 3usize..7,
            mean_on in 1.0f64..4.0,
            mean_off in 1.0f64..12.0,
            injection_rate in 0.0f64..0.3,
            steps in collection::vec(0u64..4, 300),
        ) {
            let placement = Placement::quadrant_clusters(GridDims::new(2 * half_side, 2 * half_side));
            let n = placement.dims().nodes();
            let profile = if adversarial { Profile::Adversarial } else { Profile::Stress };
            let spec = ProfileSpec { mean_on, mean_off, ..ProfileSpec::new(profile, 3) };
            let traffic = TrafficConfig { injection_rate, ..TrafficConfig::default() };
            let shortcuts = [Shortcut::new(0, n - 1), Shortcut::new(n - 2, 1)];
            let mut fast = ProfileWorkload::new(placement, spec, traffic, &shortcuts).unwrap();
            let mut slow = fast.clone();
            let mut phase = vec![(false, 0); n];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut cycle = 0;
            for step in steps {
                cycle += step;
                fast.messages_at(cycle, &mut got);
                loop_step(&mut slow, &mut phase, cycle, &mut want);
                prop_assert_eq!(&got, &want, "cycle {}", cycle);
                prop_assert_eq!(&fast.rng, &slow.rng, "cycle {}", cycle);
            }
        }
    }

    #[test]
    fn derive_seed_separates_labels_and_masters() {
        assert_ne!(derive_seed(1, "expected"), derive_seed(1, "stress"));
        assert_ne!(derive_seed(1, "expected"), derive_seed(2, "expected"));
        assert_eq!(derive_seed(7, "adversarial"), derive_seed(7, "adversarial"));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = ProfileSpec::new(Profile::Stress, 1);
        spec.burst_gain = 0.5;
        assert_eq!(spec.validate(), Err(ProfileError::BurstGainBelowOne));
        let mut spec = ProfileSpec::new(Profile::Stress, 1);
        spec.pareto_alpha = 1.0;
        assert_eq!(spec.validate(), Err(ProfileError::AlphaOutOfRange));
        let mut spec = ProfileSpec::new(Profile::Stress, 1);
        spec.mean_off = 0.0;
        assert_eq!(spec.validate(), Err(ProfileError::DegenerateBurstShape));
        let mut spec = ProfileSpec::new(Profile::Adversarial, 1);
        spec.target_fraction = 1.5;
        assert_eq!(spec.validate(), Err(ProfileError::TargetFractionOutOfRange));
        for bad in [f64::NAN, f64::INFINITY] {
            let mut spec = ProfileSpec::new(Profile::Stress, 1);
            spec.burst_gain = bad;
            assert_eq!(spec.validate(), Err(ProfileError::BurstGainBelowOne));
            let mut spec = ProfileSpec::new(Profile::Stress, 1);
            spec.mean_on = bad;
            assert_eq!(spec.validate(), Err(ProfileError::DegenerateBurstShape));
            let mut spec = ProfileSpec::new(Profile::Stress, 1);
            spec.mean_off = bad;
            assert_eq!(spec.validate(), Err(ProfileError::DegenerateBurstShape));
        }
        let traffic = TrafficConfig { injection_rate: -1.0, ..TrafficConfig::default() };
        let built = ProfileWorkload::new(
            Placement::paper_10x10(),
            ProfileSpec::new(Profile::Stress, 1),
            traffic,
            &[],
        );
        assert_eq!(built.err(), Some(ProfileError::Traffic(TrafficError::InjectionRate)));
        let built = ProfileWorkload::new(
            Placement::paper_10x10(),
            ProfileSpec::new(Profile::Adversarial, 1),
            TrafficConfig::default(),
            &[Shortcut::new(3, 100)],
        );
        assert_eq!(built.err(), Some(ProfileError::ShortcutOutOfRange { router: 100 }));
        assert!(ProfileSpec::new(Profile::Expected, 1).validate().is_ok());
    }

    /// Every router draws a destination other than itself, so a single
    /// router would draw for ever; two are enough.
    #[test]
    fn a_placement_of_one_router_is_refused() {
        let traffic = TrafficConfig { injection_rate: 0.5, ..TrafficConfig::default() };
        for profile in Profile::all() {
            let build = |w, h| {
                let placement = Placement::cores_only(GridDims::new(w, h));
                ProfileWorkload::new(placement, ProfileSpec::new(profile, 1), traffic.clone(), &[])
            };
            let refused = build(1, 1).err();
            assert_eq!(refused, Some(ProfileError::TooFewRouters { routers: 1 }), "{profile}");
            let mut pair = build(1, 2).expect("two routers");
            let mut out = Vec::new();
            for cycle in 0..1_000 {
                pair.messages_at(cycle, &mut out);
            }
            assert!(!out.is_empty(), "{profile}");
            let other = |m: &MessageSpec| m.dest == rfnoc_sim::Destination::Unicast(1 - m.src);
            assert!(out.iter().all(other), "{profile}");
        }
    }

    #[test]
    fn adversarial_concentrates_on_shortcut_endpoints() {
        let (placement, traffic, shortcuts) = setup();
        let bundle =
            compile_profiles(&placement, &traffic, &shortcuts, 0xCA_FE, 20_000).unwrap();
        let sink_share = |trace: &CompiledTrace| {
            let hits = trace
                .iter()
                .filter(|(_, m)| {
                    matches!(m.dest, rfnoc_sim::Destination::Unicast(d)
                        if shortcuts.iter().any(|s| s.dst == d))
                })
                .count();
            hits as f64 / trace.len().max(1) as f64
        };
        assert!(
            sink_share(&bundle.adversarial) > 5.0 * sink_share(&bundle.expected),
            "adversarial sink share {:.3} vs expected {:.3}",
            sink_share(&bundle.adversarial),
            sink_share(&bundle.expected),
        );
    }

    #[test]
    fn adversarial_without_shortcuts_degrades_to_stress_shape() {
        let (placement, traffic, _) = setup();
        let spec = ProfileSpec::new(Profile::Adversarial, 3);
        let mut w =
            ProfileWorkload::new(placement, spec, traffic, &[]).unwrap();
        let mut out = Vec::new();
        for c in 0..5_000 {
            w.messages_at(c, &mut out);
        }
        assert!(!out.is_empty(), "still injects without an overlay");
    }

    #[test]
    fn bundles_are_reproducible_and_profiles_distinct() {
        let (placement, traffic, shortcuts) = setup();
        let a = compile_profiles(&placement, &traffic, &shortcuts, 42, 3_000).unwrap();
        let b = compile_profiles(&placement, &traffic, &shortcuts, 42, 3_000).unwrap();
        assert_eq!(a, b, "same master seed, same bundle");
        assert_ne!(a.expected, a.stress, "profiles draw distinct streams");
        assert_ne!(a.stress, a.adversarial);
    }

    #[test]
    fn stress_mean_load_tracks_expected() {
        let (placement, traffic, shortcuts) = setup();
        let bundle =
            compile_profiles(&placement, &traffic, &shortcuts, 9, 50_000).unwrap();
        let ratio = bundle.stress.len() as f64 / bundle.expected.len().max(1) as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "stress offers a comparable mean load (ratio {ratio:.2})"
        );
    }
}
