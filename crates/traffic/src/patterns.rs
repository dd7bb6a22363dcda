//! The seven probabilistic trace patterns of Table 1.

use crate::arrivals::{Arrival, Arrivals, Scan, RATE_LIMIT};
use crate::placement::{ComponentKind, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfnoc_sim::{MessageClass, MessageSpec, Workload};
use rfnoc_topology::NodeId;
use std::fmt;

/// The probabilistic traces of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Random traffic: components equally likely to communicate with all
    /// other components.
    Uniform,
    /// Unidirectional dataflow: groups biased to talk within their group
    /// and to the next group in the pipeline.
    UniDf,
    /// Bidirectional dataflow: biased to both neighbouring groups.
    BiDf,
    /// Bidirectional dataflow with one disproportionately hot group.
    HotBiDf,
    /// One hot component (a cache bank near (7,0), as in Figure 2c).
    Hotspot1,
    /// Two hot components.
    Hotspot2,
    /// Four hot components, one per cluster.
    Hotspot4,
}

impl TraceKind {
    /// All seven traces, in the paper's presentation order.
    pub fn all() -> [TraceKind; 7] {
        [
            TraceKind::Uniform,
            TraceKind::UniDf,
            TraceKind::BiDf,
            TraceKind::HotBiDf,
            TraceKind::Hotspot1,
            TraceKind::Hotspot2,
            TraceKind::Hotspot4,
        ]
    }

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Uniform => "Uniform",
            TraceKind::UniDf => "UniDF",
            TraceKind::BiDf => "BiDF",
            TraceKind::HotBiDf => "HotBiDF",
            TraceKind::Hotspot1 => "1Hotspot",
            TraceKind::Hotspot2 => "2Hotspot",
            TraceKind::Hotspot4 => "4Hotspot",
        }
    }

    /// Number of hotspot caches for the hotspot traces.
    pub fn hotspot_count(&self) -> usize {
        match self {
            TraceKind::Hotspot1 => 1,
            TraceKind::Hotspot2 => 2,
            TraceKind::Hotspot4 => 4,
            _ => 0,
        }
    }

    /// Checks that `placement` can host this trace: a hotspot trace picks
    /// its hot caches one a cluster; a core or cache picks another core or
    /// cache, so there must be two; and a dataflow trace picks one of the
    /// four dataflow groups first, any of which a draw can reach whatever
    /// the fractions weigh them at, so each must hold a core or cache.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::Hotspots`], [`TrafficError::TooFewEndpoints`]
    /// or [`TrafficError::EmptyGroup`] if it cannot.
    pub fn validate(&self, placement: &Placement) -> Result<(), TrafficError> {
        check_hotspots(self.hotspot_count(), placement)?;
        let endpoints = || placement.all().filter(|&r| placement.kind(r) != ComponentKind::Memory);
        if endpoints().nth(1).is_none() {
            return Err(TrafficError::TooFewEndpoints);
        }
        if matches!(self, TraceKind::UniDf | TraceKind::BiDf | TraceKind::HotBiDf) {
            let mut held = [false; 4];
            for r in endpoints() {
                held[placement.dataflow_group(r)] = true;
            }
            if let Some(group) = held.iter().position(|&h| !h) {
                return Err(TrafficError::EmptyGroup { group });
            }
        }
        Ok(())
    }
}

/// [`TrafficError::Hotspots`] unless `placement` has a cache cluster for
/// each of `count` hotspots.
pub(crate) fn check_hotspots(count: usize, placement: &Placement) -> Result<(), TrafficError> {
    if count > placement.cluster_centers().len() {
        return Err(TrafficError::Hotspots);
    }
    Ok(())
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable parameters of the probabilistic generators.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Mean messages injected per component per cycle.
    pub injection_rate: f64,
    /// RNG seed (runs are reproducible for a fixed seed).
    pub seed: u64,
    /// Probability that a biased message targets the hotspot (hotspot
    /// traces) or the hot group (HotBiDF).
    pub hot_fraction: f64,
    /// Injection-rate multiplier of hot components (they also *send*
    /// disproportionately, Table 1).
    pub hot_multiplier: f64,
    /// Injection-rate multiplier of the hot *group* in HotBiDF. Milder
    /// than the single-component multiplier — a whole 25-router quadrant
    /// at the component multiplier would swamp the reduced-bandwidth
    /// meshes outright.
    pub hot_group_multiplier: f64,
    /// Probability that a dataflow message stays within its group.
    pub intra_group: f64,
    /// Probability that a dataflow message goes to a neighbouring group
    /// (split across both neighbours for the bidirectional patterns).
    pub neighbor_group: f64,
    /// Fraction of cache-sourced messages that go to the quadrant's memory
    /// port.
    pub memory_fraction: f64,
    /// When `Some(delay)`, every request triggers its protocol response
    /// (cache → core data for a core's request, memory → cache line for a
    /// cache's fetch) `delay` cycles later — modelling the causal
    /// request/response structure a full-system trace would show instead
    /// of independent draws. `None` keeps the two directions independent.
    pub response_delay: Option<u64>,
}

impl Default for TrafficConfig {
    /// Defaults chosen so the 16B baseline runs at light-to-moderate load
    /// while the reduced-bandwidth 4B mesh and the hotspot ejection ports
    /// run near (but below) saturation — the operating region in which the
    /// paper's latency deltas (Figures 7–8) are visible.
    fn default() -> Self {
        Self {
            injection_rate: 0.008,
            seed: 0xC0FFEE,
            hot_fraction: 0.3,
            hot_multiplier: 4.0,
            hot_group_multiplier: 1.5,
            intra_group: 0.5,
            neighbor_group: 0.4,
            memory_fraction: 0.12,
            // Default None: the Table 1 patterns draw both directions
            // independently, and the paper's power/latency calibration is
            // anchored on that mix. Enable for causal request/response
            // studies (see the `request_response` ablation test).
            response_delay: None,
        }
    }
}

/// A [`TrafficConfig`] field outside its range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficError {
    /// `injection_rate` must be finite and non-negative.
    InjectionRate,
    /// `hot_fraction` must lie in `[0, 1]`.
    HotFraction,
    /// `hot_multiplier` must be finite and non-negative.
    HotMultiplier,
    /// `hot_group_multiplier` must be finite and non-negative.
    HotGroupMultiplier,
    /// `intra_group` must lie in `[0, 1]`.
    IntraGroup,
    /// `neighbor_group` must lie in `[0, 1]`.
    NeighborGroup,
    /// `intra_group + neighbor_group` must not exceed 1.
    GroupFractionsExceedOne,
    /// `memory_fraction` must lie in `[0, 1]`.
    MemoryFraction,
    /// The largest per-source rate, `injection_rate` times the larger of 1,
    /// `hot_multiplier` and `hot_group_multiplier`, must be below 2³²: a
    /// source emits its whole part as certain messages each cycle.
    SourceRate,
    /// The trace or application needs more hotspot caches than the
    /// placement has cache clusters (one hotspot a cluster).
    Hotspots,
    /// The placement has fewer than two cores and caches, so a source
    /// has no other one to send to.
    TooFewEndpoints,
    /// A dataflow trace can pick this dataflow group, which holds no core
    /// or cache.
    EmptyGroup {
        /// The group, 0 to 3.
        group: usize,
    },
    /// An application's `distance_weights` must be non-negative, with a
    /// finite sum.
    DistanceWeights,
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrafficError::InjectionRate => "injection_rate must be finite and non-negative",
            TrafficError::HotFraction => "hot_fraction must lie in [0, 1]",
            TrafficError::HotMultiplier => "hot_multiplier must be finite and non-negative",
            TrafficError::HotGroupMultiplier => {
                "hot_group_multiplier must be finite and non-negative"
            }
            TrafficError::IntraGroup => "intra_group must lie in [0, 1]",
            TrafficError::NeighborGroup => "neighbor_group must lie in [0, 1]",
            TrafficError::GroupFractionsExceedOne => {
                "intra_group + neighbor_group must not exceed 1"
            }
            TrafficError::MemoryFraction => "memory_fraction must lie in [0, 1]",
            TrafficError::SourceRate => {
                "injection_rate times hot_multiplier or hot_group_multiplier must be below 2^32"
            }
            TrafficError::Hotspots => "more hotspots than the placement has cache clusters",
            TrafficError::TooFewEndpoints => "the placement has fewer than two cores and caches",
            TrafficError::EmptyGroup { group } => {
                return write!(f, "dataflow group {group} holds no core or cache");
            }
            TrafficError::DistanceWeights => {
                "distance_weights must be non-negative with a finite sum"
            }
        })
    }
}

impl std::error::Error for TrafficError {}

impl TrafficConfig {
    /// Checks every field's range. The generators feed the fractions to
    /// `gen_bool`, which panics outside `[0, 1]`, and scale the rate by the
    /// multipliers, so a NaN or negative value must not reach them, nor a
    /// per-source rate whose whole part overflows the arrival plan's
    /// certain-message counter.
    ///
    /// # Errors
    ///
    /// Returns the [`TrafficError`] of the first field out of range.
    pub fn validate(&self) -> Result<(), TrafficError> {
        let rate = |v: f64| v.is_finite() && v >= 0.0;
        let fraction = |v: f64| (0.0..=1.0).contains(&v);
        let multiplier = self.hot_multiplier.max(self.hot_group_multiplier).max(1.0);
        let peak = self.injection_rate * multiplier;
        let checks = [
            (rate(self.injection_rate), TrafficError::InjectionRate),
            (fraction(self.hot_fraction), TrafficError::HotFraction),
            (rate(self.hot_multiplier), TrafficError::HotMultiplier),
            (rate(self.hot_group_multiplier), TrafficError::HotGroupMultiplier),
            (peak < RATE_LIMIT, TrafficError::SourceRate),
            (fraction(self.intra_group), TrafficError::IntraGroup),
            (fraction(self.neighbor_group), TrafficError::NeighborGroup),
            (self.intra_group + self.neighbor_group <= 1.0, TrafficError::GroupFractionsExceedOne),
            (fraction(self.memory_fraction), TrafficError::MemoryFraction),
        ];
        checks.into_iter().find(|(ok, _)| !ok).map_or(Ok(()), |(_, e)| Err(e))
    }
}

/// Message class for a (source kind, destination kind) pair (paper §4.1):
/// core→cache requests are 7B, data messages between cores and caches (or
/// core to core) are 39B, and cache↔memory transfers are 132B.
pub fn class_for(src: ComponentKind, dst: ComponentKind) -> MessageClass {
    use ComponentKind::*;
    match (src, dst) {
        (Core, Cache) => MessageClass::Request,
        (Cache, Core) | (Core, Core) | (Cache, Cache) => MessageClass::Data,
        (Cache, Memory) | (Memory, Cache) => MessageClass::Memory,
        // Remaining pairs do not occur in the generators; treat as data.
        _ => MessageClass::Data,
    }
}

/// What the generator needs to know about one router's destinations, fixed
/// at construction.
#[derive(Debug, Clone, Copy)]
struct Source {
    kind: ComponentKind,
    /// Dataflow group (quadrant).
    group: usize,
}

/// Generator for the Table 1 probabilistic traces.
#[derive(Debug, Clone)]
pub struct ProbabilisticWorkload {
    kind: TraceKind,
    config: TrafficConfig,
    rng: StdRng,
    hotspots: Vec<NodeId>,
    /// One record per router, indexed by router id.
    sources: Vec<Source>,
    /// Each router's messages per cycle: `injection_rate × rate
    /// multiplier`, halved on memory ports — they respond rather than
    /// initiate — and 0 where the protocol response model already generates
    /// their replies. The whole part is certain, the fraction one draw.
    arrivals: Arrivals,
    /// Non-memory components (cores + caches), the universe for biased
    /// destination choice.
    endpoints: Vec<NodeId>,
    /// Endpoints per dataflow group.
    group_members: [Vec<NodeId>; 4],
    /// Cache banks per dataflow group: whom a memory port talks to.
    group_caches: [Vec<NodeId>; 4],
    /// Memory port of each quadrant group.
    group_memory: [NodeId; 4],
    /// Scheduled protocol responses: `(due_cycle, responder, requester,
    /// class)`, kept sorted by insertion order (delays are constant).
    pending_responses: std::collections::VecDeque<(u64, NodeId, NodeId, MessageClass)>,
}

impl ProbabilisticWorkload {
    /// Creates the generator for `kind` over `placement`.
    ///
    /// # Errors
    ///
    /// Returns a [`TrafficError`] if `config` fails
    /// [`TrafficConfig::validate`] or `placement` fails
    /// [`TraceKind::validate`].
    pub fn new(
        placement: Placement,
        kind: TraceKind,
        config: TrafficConfig,
    ) -> Result<Self, TrafficError> {
        config.validate()?;
        kind.validate(&placement)?;
        let hotspots = match kind.hotspot_count() {
            0 => Vec::new(),
            k => placement.hotspot_caches(k),
        };
        let sources: Vec<Source> = placement
            .all()
            .map(|r| Source { kind: placement.kind(r), group: placement.dataflow_group(r) })
            .collect();
        let arrivals = sources
            .iter()
            .enumerate()
            .map(|(r, source)| {
                // Only the hotspot traces have hotspots.
                let multiplier = if hotspots.contains(&r) {
                    config.hot_multiplier
                } else if kind == TraceKind::HotBiDf && source.group == 1 {
                    config.hot_group_multiplier
                } else {
                    1.0
                };
                let mut rate = config.injection_rate * multiplier;
                if source.kind == ComponentKind::Memory {
                    rate = if config.response_delay.is_some() { 0.0 } else { rate * 0.5 };
                }
                Arrival::rate(rate)
            })
            .collect();
        let endpoints: Vec<NodeId> =
            placement.all().filter(|&r| sources[r].kind != ComponentKind::Memory).collect();
        let mut group_members: [Vec<NodeId>; 4] = Default::default();
        for &e in &endpoints {
            group_members[sources[e].group].push(e);
        }
        let mut group_caches: [Vec<NodeId>; 4] = Default::default();
        for &c in placement.caches() {
            group_caches[sources[c].group].push(c);
        }
        let mut group_memory = [0usize; 4];
        for &m in placement.memories() {
            group_memory[sources[m].group] = m;
        }
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Self {
            kind,
            config,
            rng,
            hotspots,
            sources,
            arrivals,
            endpoints,
            group_members,
            group_caches,
            group_memory,
            pending_responses: std::collections::VecDeque::new(),
        })
    }

    /// The hotspot routers of this trace (empty for non-hotspot kinds).
    pub fn hotspots(&self) -> &[NodeId] {
        &self.hotspots
    }

    fn uniform_endpoint(&mut self, exclude: NodeId) -> NodeId {
        loop {
            let pick = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
            if pick != exclude {
                return pick;
            }
        }
    }

    fn group_endpoint(&mut self, group: usize, exclude: NodeId) -> NodeId {
        let members = &self.group_members[group];
        if members.len() <= 1 && members.first() == Some(&exclude) {
            return self.uniform_endpoint(exclude);
        }
        loop {
            let pick = members[self.rng.gen_range(0..members.len())];
            if pick != exclude {
                return pick;
            }
        }
    }

    /// Chooses a dataflow-pattern destination group for a source in
    /// `group`.
    fn dataflow_group_for(&mut self, group: usize, bidirectional: bool) -> usize {
        let p: f64 = self.rng.gen();
        let c = &self.config;
        let next = (group + 1) % 4;
        if p < c.intra_group {
            group
        } else if p < c.intra_group + c.neighbor_group {
            if bidirectional {
                if self.rng.gen_bool(0.5) {
                    next
                } else {
                    (group + 3) % 4
                }
            } else {
                next
            }
        } else {
            // uniform among the remaining groups, in ascending order: all
            // three others, or the two that are not the forward neighbour
            let remaining = if bidirectional { 3 } else { 2 };
            let pick = self.rng.gen_range(0..remaining);
            (0..4)
                .filter(|&g| g != group && (bidirectional || g != next))
                .nth(pick)
                .expect("pick is below the number of remaining groups")
        }
    }

    fn destination_for(&mut self, src: NodeId) -> NodeId {
        let Source { kind: src_kind, group, .. } = self.sources[src];
        // Memory ports only talk to nearby cache banks (§3.2.1).
        if src_kind == ComponentKind::Memory {
            let caches = &self.group_caches[group];
            return caches[self.rng.gen_range(0..caches.len())];
        }
        // Cache banks occasionally fetch from their quadrant's memory port.
        if src_kind == ComponentKind::Cache && self.rng.gen_bool(self.config.memory_fraction) {
            return self.group_memory[group];
        }
        match self.kind {
            TraceKind::Uniform => self.uniform_endpoint(src),
            TraceKind::UniDf => {
                let g = self.dataflow_group_for(group, false);
                self.group_endpoint(g, src)
            }
            TraceKind::BiDf => {
                let g = self.dataflow_group_for(group, true);
                self.group_endpoint(g, src)
            }
            TraceKind::HotBiDf => {
                if self.rng.gen_bool(self.config.hot_fraction) {
                    self.group_endpoint(1, src)
                } else {
                    let g = self.dataflow_group_for(group, true);
                    self.group_endpoint(g, src)
                }
            }
            TraceKind::Hotspot1 | TraceKind::Hotspot2 | TraceKind::Hotspot4 => {
                if self.rng.gen_bool(self.config.hot_fraction) {
                    let h = self.hotspots[self.rng.gen_range(0..self.hotspots.len())];
                    if h != src {
                        return h;
                    }
                    self.uniform_endpoint(src)
                } else {
                    self.uniform_endpoint(src)
                }
            }
        }
    }
}

impl Workload for ProbabilisticWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        // Emit due protocol responses first.
        while let Some(&(due, responder, requester, class)) = self.pending_responses.front() {
            if due > cycle {
                break;
            }
            self.pending_responses.pop_front();
            out.push(MessageSpec::unicast(responder, requester, class));
        }
        let mut scan = Scan::default();
        while let Some(src) = self.arrivals.next(&mut self.rng, &mut scan) {
            let src_kind = self.sources[src].kind;
            let dst = self.destination_for(src);
            let dst_kind = self.sources[dst].kind;
            out.push(MessageSpec::unicast(src, dst, class_for(src_kind, dst_kind)));
            // Requests pull their response back (§4.1's paired request/data
            // and cache/memory transfers).
            if let Some(delay) = self.config.response_delay {
                let response = match (src_kind, dst_kind) {
                    (ComponentKind::Core, ComponentKind::Cache) => Some(MessageClass::Data),
                    (ComponentKind::Cache, ComponentKind::Memory) => Some(MessageClass::Memory),
                    _ => None,
                };
                if let Some(class) = response {
                    self.pending_responses.push_back((cycle + delay, dst, src, class));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(kind: TraceKind, cycles: u64) -> Vec<MessageSpec> {
        let mut w =
            ProbabilisticWorkload::new(Placement::paper_10x10(), kind, TrafficConfig::default())
                .unwrap();
        let mut out = Vec::new();
        for c in 0..cycles {
            w.messages_at(c, &mut out);
        }
        out
    }

    #[test]
    fn injection_rate_is_respected() {
        let msgs = collect(TraceKind::Uniform, 5_000);
        // ~0.008 × 100 comps × 5000 cycles ≈ 4000 (±25%, allowing for the
        // memory-port reduction).
        let count = msgs.len() as f64;
        assert!((3_000.0..5_000.0).contains(&count), "got {count}");
    }

    #[test]
    fn no_self_messages() {
        for kind in TraceKind::all() {
            for m in collect(kind, 300) {
                match m.dest {
                    rfnoc_sim::Destination::Unicast(d) => assert_ne!(d, m.src),
                    _ => panic!("probabilistic traces are unicast"),
                }
            }
        }
    }

    #[test]
    fn hotspot_trace_concentrates_traffic() {
        let p = Placement::paper_10x10();
        let hot = p.hotspot_caches(1)[0];
        let msgs = collect(TraceKind::Hotspot1, 1_000);
        let to_hot = msgs
            .iter()
            .filter(|m| matches!(m.dest, rfnoc_sim::Destination::Unicast(d) if d == hot))
            .count() as f64;
        let frac = to_hot / msgs.len() as f64;
        assert!(frac > 0.2, "hotspot receives {frac:.3} of traffic");
        // The hot cache also sends disproportionately.
        let from_hot = msgs.iter().filter(|m| m.src == hot).count() as f64;
        assert!(from_hot / msgs.len() as f64 > 0.02);
    }

    #[test]
    fn unidf_prefers_forward_group() {
        let p = Placement::paper_10x10();
        let msgs = collect(TraceKind::UniDf, 1_500);
        let mut forward = 0usize;
        let mut backward = 0usize;
        for m in &msgs {
            let rfnoc_sim::Destination::Unicast(d) = m.dest else { continue };
            if p.kind(d) == ComponentKind::Memory || p.kind(m.src) == ComponentKind::Memory {
                continue;
            }
            let gs = p.dataflow_group(m.src);
            let gd = p.dataflow_group(d);
            if gd == (gs + 1) % 4 {
                forward += 1;
            } else if gd == (gs + 3) % 4 {
                backward += 1;
            }
        }
        assert!(
            forward as f64 > 2.0 * backward as f64,
            "forward {forward} vs backward {backward}"
        );
    }

    #[test]
    fn bidf_balances_neighbours() {
        let p = Placement::paper_10x10();
        let msgs = collect(TraceKind::BiDf, 1_500);
        let mut forward = 0usize;
        let mut backward = 0usize;
        for m in &msgs {
            let rfnoc_sim::Destination::Unicast(d) = m.dest else { continue };
            if p.kind(d) == ComponentKind::Memory || p.kind(m.src) == ComponentKind::Memory {
                continue;
            }
            let gs = p.dataflow_group(m.src);
            let gd = p.dataflow_group(d);
            if gd == (gs + 1) % 4 {
                forward += 1;
            } else if gd == (gs + 3) % 4 {
                backward += 1;
            }
        }
        let ratio = forward as f64 / backward.max(1) as f64;
        assert!((0.6..1.6).contains(&ratio), "forward/backward ratio {ratio}");
    }

    #[test]
    fn memory_traffic_uses_memory_class() {
        let p = Placement::paper_10x10();
        for m in collect(TraceKind::Uniform, 800) {
            let rfnoc_sim::Destination::Unicast(d) = m.dest else { continue };
            let pair = (p.kind(m.src), p.kind(d));
            if pair.0 == ComponentKind::Memory || pair.1 == ComponentKind::Memory {
                assert_eq!(m.class, MessageClass::Memory);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = collect(TraceKind::HotBiDf, 200);
        let b = collect(TraceKind::HotBiDf, 200);
        assert_eq!(a, b);
    }

    /// The per-source table and arrival plan against the definition they
    /// replaced: rate × trace multiplier × memory factor, in that order.
    #[test]
    fn source_table_matches_rate_definition() {
        let p = Placement::paper_10x10();
        for response_delay in [None, Some(20)] {
            let config = TrafficConfig {
                hot_multiplier: 3.7,
                hot_group_multiplier: 1.3,
                response_delay,
                ..TrafficConfig::default()
            };
            for kind in TraceKind::all() {
                let w = ProbabilisticWorkload::new(p.clone(), kind, config.clone()).unwrap();
                for r in p.all() {
                    let multiplier = if w.hotspots().contains(&r) {
                        assert!(kind.hotspot_count() > 0);
                        config.hot_multiplier
                    } else if kind == TraceKind::HotBiDf && p.dataflow_group(r) == 1 {
                        config.hot_group_multiplier
                    } else {
                        1.0
                    };
                    let memory = p.kind(r) == ComponentKind::Memory;
                    let want = match (memory, response_delay) {
                        (true, Some(_)) => 0.0,
                        (true, None) => config.injection_rate * multiplier * 0.5,
                        (false, _) => config.injection_rate * multiplier,
                    };
                    let source = w.sources[r];
                    assert_eq!(w.arrivals.plan(r), Arrival::rate(want), "{kind} router {r}");
                    assert_eq!(source.kind, p.kind(r));
                    assert_eq!(source.group, p.dataflow_group(r));
                }
            }
        }
    }

    /// A source at rate 0 makes no draw, and a whole rate emits without
    /// one: at 0 the stream never moves, and at 1 with responses on (memory
    /// ports silent) every endpoint emits exactly one message a cycle.
    #[test]
    fn whole_rates_make_no_draw() {
        let p = Placement::paper_10x10();
        let silent = TrafficConfig { injection_rate: 0.0, ..TrafficConfig::default() };
        let mut w = ProbabilisticWorkload::new(p.clone(), TraceKind::Hotspot2, silent).unwrap();
        let before = w.rng.clone();
        let mut out = Vec::new();
        w.messages_at(0, &mut out);
        assert!(out.is_empty());
        assert_eq!(w.rng, before);
        let full = TrafficConfig {
            injection_rate: 1.0,
            response_delay: Some(1_000),
            ..TrafficConfig::default()
        };
        let mut w = ProbabilisticWorkload::new(p.clone(), TraceKind::Uniform, full).unwrap();
        w.messages_at(0, &mut out);
        let endpoints = p.all().filter(|&r| p.kind(r) != ComponentKind::Memory).count();
        assert_eq!(out.len(), endpoints);
        assert!(out.iter().enumerate().all(|(i, m)| m.src == w.endpoints[i]));
    }

    #[test]
    fn validate_names_the_field_out_of_range() {
        let ok = TrafficConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let zero = TrafficConfig { injection_rate: 0.0, hot_fraction: 1.0, ..ok.clone() };
        assert_eq!(zero.validate(), Ok(()));
        // The largest rate a plan holds, on the hot sources.
        let edge = TrafficConfig { injection_rate: (RATE_LIMIT - 1.0) / 4.0, ..ok.clone() };
        assert_eq!(edge.validate(), Ok(()));
        let cases: [(TrafficConfig, TrafficError); 13] = [
            (TrafficConfig { injection_rate: -0.01, ..ok.clone() }, TrafficError::InjectionRate),
            (TrafficConfig { injection_rate: f64::NAN, ..ok.clone() }, TrafficError::InjectionRate),
            (
                TrafficConfig { injection_rate: f64::INFINITY, ..ok.clone() },
                TrafficError::InjectionRate,
            ),
            (TrafficConfig { hot_fraction: 1.5, ..ok.clone() }, TrafficError::HotFraction),
            (TrafficConfig { hot_multiplier: -1.0, ..ok.clone() }, TrafficError::HotMultiplier),
            (
                TrafficConfig { hot_group_multiplier: f64::NAN, ..ok.clone() },
                TrafficError::HotGroupMultiplier,
            ),
            (TrafficConfig { intra_group: -0.1, ..ok.clone() }, TrafficError::IntraGroup),
            (TrafficConfig { neighbor_group: f64::NAN, ..ok.clone() }, TrafficError::NeighborGroup),
            (
                TrafficConfig { intra_group: 0.7, neighbor_group: 0.4, ..ok.clone() },
                TrafficError::GroupFractionsExceedOne,
            ),
            (TrafficConfig { memory_fraction: 1.01, ..ok.clone() }, TrafficError::MemoryFraction),
            // 4e17 - 1 == 4e17: a whole part that never counts down.
            (TrafficConfig { injection_rate: 1e17, ..ok.clone() }, TrafficError::SourceRate),
            // Finite fields whose product is not.
            (
                TrafficConfig { injection_rate: 1e300, hot_multiplier: 1e10, ..ok.clone() },
                TrafficError::SourceRate,
            ),
            (
                TrafficConfig { injection_rate: 2e9, hot_group_multiplier: 3.0, ..ok.clone() },
                TrafficError::SourceRate,
            ),
        ];
        for (config, want) in cases {
            assert_eq!(config.validate(), Err(want), "{want}");
        }
    }

    /// A lone core has no other endpoint to send to, and a column of four
    /// cores leaves dataflow groups 0 and 3 without one; the traces that
    /// can draw there are refused, the rest run.
    #[test]
    fn placements_without_a_destination_are_refused() {
        let config = TrafficConfig { injection_rate: 0.5, ..TrafficConfig::default() };
        let build = |w, h, kind| {
            let placement = Placement::cores_only(rfnoc_topology::GridDims::new(w, h));
            ProbabilisticWorkload::new(placement, kind, config.clone())
        };
        for kind in TraceKind::all() {
            let want = if kind.hotspot_count() > 0 {
                TrafficError::Hotspots
            } else {
                TrafficError::TooFewEndpoints
            };
            assert_eq!(build(1, 1, kind).err(), Some(want), "{kind}");
        }
        for kind in [TraceKind::UniDf, TraceKind::BiDf, TraceKind::HotBiDf] {
            assert_eq!(build(1, 4, kind).err(), Some(TrafficError::EmptyGroup { group: 0 }));
        }
        let mut column = build(1, 4, TraceKind::Uniform).expect("four cores");
        let mut out = Vec::new();
        for cycle in 0..100 {
            column.messages_at(cycle, &mut out);
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn class_mapping_matches_paper() {
        use ComponentKind::*;
        assert_eq!(class_for(Core, Cache), MessageClass::Request);
        assert_eq!(class_for(Cache, Core), MessageClass::Data);
        assert_eq!(class_for(Core, Core), MessageClass::Data);
        assert_eq!(class_for(Cache, Memory), MessageClass::Memory);
        assert_eq!(class_for(Memory, Cache), MessageClass::Memory);
    }
}

#[cfg(test)]
mod response_tests {
    use super::*;
    use rfnoc_sim::Destination;

    #[test]
    fn responses_follow_requests_after_delay() {
        let placement = Placement::paper_10x10();
        let config = TrafficConfig {
            injection_rate: 0.01,
            response_delay: Some(25),
            ..TrafficConfig::default()
        };
        let mut w = ProbabilisticWorkload::new(placement.clone(), TraceKind::Uniform, config)
            .unwrap();
        let mut per_cycle: Vec<Vec<MessageSpec>> = Vec::new();
        for cycle in 0..400u64 {
            let mut out = Vec::new();
            w.messages_at(cycle, &mut out);
            per_cycle.push(out);
        }
        // For every core→cache request at cycle t there is a cache→core
        // data response at t+25.
        let mut checked = 0;
        for (t, msgs) in per_cycle.iter().enumerate() {
            for m in msgs {
                let Destination::Unicast(dst) = m.dest else { continue };
                if m.class == MessageClass::Request
                    && placement.kind(m.src) == ComponentKind::Core
                    && placement.kind(dst) == ComponentKind::Cache
                    && t + 25 < per_cycle.len()
                {
                    let response_found = per_cycle[t + 25].iter().any(|r| {
                        r.src == dst
                            && matches!(r.dest, Destination::Unicast(d) if d == m.src)
                            && r.class == MessageClass::Data
                    });
                    assert!(response_found, "request at cycle {t} got no response");
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "only {checked} request/response pairs observed");
    }

    #[test]
    fn memory_ports_never_initiate_with_responses_on() {
        let placement = Placement::paper_10x10();
        let config = TrafficConfig {
            injection_rate: 0.01,
            response_delay: Some(25),
            ..TrafficConfig::default()
        };
        let mut w = ProbabilisticWorkload::new(placement.clone(), TraceKind::Uniform, config)
            .unwrap();
        let mut out = Vec::new();
        for cycle in 0..200 {
            w.messages_at(cycle, &mut out);
        }
        for m in &out {
            if placement.kind(m.src) == ComponentKind::Memory {
                // every memory-sourced message is a response to a cache
                let Destination::Unicast(dst) = m.dest else { unreachable!() };
                assert_eq!(placement.kind(dst), ComponentKind::Cache);
                assert_eq!(m.class, MessageClass::Memory);
            }
        }
    }
}
