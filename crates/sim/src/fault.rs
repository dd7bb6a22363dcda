//! Deterministic fault injection for the RF-I overlaid NoC.
//!
//! A [`FaultPlan`] is a seed-driven schedule of [`FaultEvent`]s applied
//! inside [`crate::Network::step`]. Faults follow fail-stop semantics at
//! packet granularity: a failed port refuses *new* packet allocations while
//! wormholes already holding the port finish normally, so credit-based flow
//! control stays consistent. Failed RF-I shortcuts are torn out through the
//! same drain → retune → table-rewrite state machine as a planned
//! reconfiguration (paper §3.2), degrading traffic onto the XY mesh; failed
//! mesh links trigger a detour-table rebuild over the surviving links.
//! Transient link glitches model flit corruption detected at the receiver
//! and retransmitted from the upstream buffer: the in-flight flit (and the
//! link behind it) is delayed by [`crate::SimConfig::link_retry_cycles`],
//! leaving credits untouched.

use crate::error::ConfigError;
use rfnoc_topology::{FabricSpec, Shortcut};

/// One scheduled fault or repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The RF-I transmitter at router `src` fails. Its shortcut drains and
    /// is removed from the routing tables; the transmitter stays failed
    /// (ignored by later retunes) until a [`FaultEvent::ShortcutUp`] at the
    /// same router.
    ShortcutDown {
        /// Router whose RF transmitter fails.
        src: usize,
    },
    /// The whole RF band fails: every active shortcut is torn down at once
    /// and all transmitters are marked failed.
    BandDown,
    /// The RF transmitter at `src` is repaired and retuned to reach `dst`.
    ShortcutUp {
        /// Router whose RF transmitter is repaired.
        src: usize,
        /// Receiver the repaired transmitter is tuned to.
        dst: usize,
    },
    /// The mesh link between adjacent routers `a` and `b` fails in both
    /// directions; detour tables route around it.
    MeshLinkDown {
        /// One endpoint.
        a: usize,
        /// The adjacent endpoint.
        b: usize,
    },
    /// The mesh link between `a` and `b` is repaired.
    MeshLinkUp {
        /// One endpoint.
        a: usize,
        /// The adjacent endpoint.
        b: usize,
    },
    /// A transient glitch corrupts the flit in flight on the link from `a`
    /// to `b` (mesh or RF); the flit is dropped at the receiver and
    /// retransmitted from the sender's buffer after
    /// [`crate::SimConfig::link_retry_cycles`]. No effect on an idle link.
    LinkGlitch {
        /// Sending router.
        a: usize,
        /// Receiving router.
        b: usize,
    },
}

impl FaultEvent {
    /// Whether this event touches only RF-I resources (never the mesh).
    pub fn rf_only(&self) -> bool {
        matches!(
            self,
            Self::ShortcutDown { .. } | Self::BandDown | Self::ShortcutUp { .. }
        )
    }
}

/// Expected fault counts over a generation window, used by
/// [`FaultPlan::random`]. Each field is an *expected number of events*
/// across the window (fractions round to the nearest count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Expected permanent RF shortcut (transmitter) failures.
    pub shortcut_failures: f64,
    /// Expected permanent mesh link failures. Links are sampled so the
    /// surviving mesh stays connected.
    pub mesh_link_failures: f64,
    /// Expected transient link glitches.
    pub glitches: f64,
    /// When set, every permanent failure is repaired this many cycles
    /// after it strikes.
    pub repair_after: Option<u64>,
}

impl FaultRates {
    /// Scales every expected count by `factor` (repair delay unchanged).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            shortcut_failures: self.shortcut_failures * factor,
            mesh_link_failures: self.mesh_link_failures * factor,
            glitches: self.glitches * factor,
            repair_after: self.repair_after,
        }
    }
}

/// A deterministic schedule of fault events, sorted by cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(u64, FaultEvent)>,
    pos: usize,
}

impl FaultPlan {
    /// A plan from `(cycle, event)` pairs; sorted by cycle internally
    /// (stable, so same-cycle events keep their given order).
    pub fn new(mut events: Vec<(u64, FaultEvent)>) -> Self {
        events.sort_by_key(|(c, _)| *c);
        Self { events, pos: 0 }
    }

    /// A plan from `(cycle, event)` pairs, validated against a base
    /// `fabric` (see [`FaultPlan::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`] in firing order.
    pub fn validated(
        events: Vec<(u64, FaultEvent)>,
        fabric: &FabricSpec,
    ) -> Result<Self, ConfigError> {
        let plan = Self::new(events);
        plan.validate(fabric)?;
        Ok(plan)
    }

    /// Checks the plan against a base `fabric`, as
    /// [`crate::Network::try_new`] does, rejecting plans that could only
    /// no-op or misfire:
    ///
    /// * any event naming a router outside the fabric;
    /// * [`FaultEvent::MeshLinkDown`]/[`FaultEvent::MeshLinkUp`] between
    ///   routers with no base-fabric link (mesh neighbours on a mesh, ring
    ///   or gateway-mesh neighbours on a ring-mesh);
    /// * a [`FaultEvent::ShortcutUp`] tuned to its own router, or a
    ///   [`FaultEvent::LinkGlitch`] from a router to itself;
    /// * a repair ([`FaultEvent::ShortcutUp`], [`FaultEvent::MeshLinkUp`])
    ///   firing before any failure of the same resource (a
    ///   [`FaultEvent::BandDown`] counts as failing every transmitter).
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`] in firing order.
    pub fn validate(&self, fabric: &FabricSpec) -> Result<(), ConfigError> {
        let nodes = fabric.nodes();
        let check_routers = |routers: &[usize]| match routers.iter().find(|&&r| r >= nodes) {
            Some(&router) => Err(ConfigError::FaultRouterOutOfRange { router, nodes }),
            None => Ok(()),
        };
        let check_ends = |a: usize, b: usize| {
            check_routers(&[a, b])?;
            if a == b {
                return Err(ConfigError::FaultSelfLoop { router: a });
            }
            Ok(())
        };
        let check_link = |a: usize, b: usize| {
            check_routers(&[a, b])?;
            let key = (a.min(b), a.max(b));
            fabric.port_between(a, b).map(|_| key).ok_or(ConfigError::FaultLinkNotAdjacent { a, b })
        };
        let mut tx_failed = vec![false; nodes];
        let mut band_down_seen = false;
        let mut links_failed: Vec<(usize, usize)> = Vec::new();
        for &(cycle, event) in &self.events {
            match event {
                FaultEvent::ShortcutDown { src } => {
                    check_routers(&[src])?;
                    tx_failed[src] = true;
                }
                FaultEvent::BandDown => band_down_seen = true,
                FaultEvent::ShortcutUp { src, dst } => {
                    check_ends(src, dst)?;
                    if !tx_failed[src] && !band_down_seen {
                        return Err(ConfigError::FaultRepairBeforeFail { cycle });
                    }
                    tx_failed[src] = false;
                }
                FaultEvent::MeshLinkDown { a, b } => {
                    let key = check_link(a, b)?;
                    if !links_failed.contains(&key) {
                        links_failed.push(key);
                    }
                }
                FaultEvent::MeshLinkUp { a, b } => {
                    let key = check_link(a, b)?;
                    let Some(idx) = links_failed.iter().position(|&l| l == key) else {
                        return Err(ConfigError::FaultRepairBeforeFail { cycle });
                    };
                    links_failed.swap_remove(idx);
                }
                // Glitches may strike mesh or RF links, so adjacency is
                // not required.
                FaultEvent::LinkGlitch { a, b } => check_ends(a, b)?,
            }
        }
        Ok(())
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether every event touches only RF-I resources — such a plan can
    /// never break packet delivery, only degrade it to the mesh.
    pub fn rf_only(&self) -> bool {
        self.events.iter().all(|(_, e)| e.rf_only())
    }

    /// Whether every scheduled event has already fired.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.events.len()
    }

    /// Appends the events due at or before `cycle` to `out` and advances
    /// past them.
    pub fn events_at(&mut self, cycle: u64, out: &mut Vec<FaultEvent>) {
        while self.pos < self.events.len() && self.events[self.pos].0 <= cycle {
            out.push(self.events[self.pos].1);
            self.pos += 1;
        }
    }

    /// Generates a deterministic random plan for a base `fabric` carrying
    /// `shortcuts`: the same `(seed, rates, window)` always produces the
    /// same schedule. Shortcut failures strike distinct live transmitters;
    /// base-link failures are drawn from the fabric's own adjacency (mesh
    /// links on a mesh, ring and gateway-mesh links on a ring-mesh) and
    /// sampled rejection-style so the surviving fabric stays connected (a
    /// disconnected fabric would make delivery impossible rather than
    /// degraded); glitches strike uniformly random directed base links.
    pub fn random(
        seed: u64,
        fabric: &FabricSpec,
        shortcuts: &[Shortcut],
        rates: FaultRates,
        window: std::ops::Range<u64>,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let span = window.end.saturating_sub(window.start).max(1);
        let mut events: Vec<(u64, FaultEvent)> = Vec::new();
        let push_with_repair = |t: u64, down: FaultEvent, up: FaultEvent, ev: &mut Vec<(u64, FaultEvent)>| {
            ev.push((t, down));
            if let Some(delay) = rates.repair_after {
                ev.push((t + delay, up));
            }
        };

        // Shortcut (transmitter) failures: distinct live shortcuts.
        let mut alive: Vec<Shortcut> = shortcuts.to_vec();
        let n_shortcut = round_count(rates.shortcut_failures).min(alive.len());
        for _ in 0..n_shortcut {
            let t = window.start + rng.below(span);
            let idx = rng.below(alive.len() as u64) as usize;
            let s = alive.swap_remove(idx);
            push_with_repair(
                t,
                FaultEvent::ShortcutDown { src: s.src },
                FaultEvent::ShortcutUp { src: s.src, dst: s.dst },
                &mut events,
            );
        }

        // Base link failures: distinct undirected links, surviving fabric
        // kept connected (bounded rejection sampling).
        let all_links = undirected_fabric_links(fabric);
        let n_mesh = round_count(rates.mesh_link_failures).min(all_links.len());
        let mut failed: Vec<(usize, usize)> = Vec::new();
        let mut attempts = 0usize;
        while failed.len() < n_mesh && attempts < n_mesh * 64 + 64 {
            attempts += 1;
            let (a, b) = all_links[rng.below(all_links.len() as u64) as usize];
            if failed.contains(&(a, b)) {
                continue;
            }
            failed.push((a, b));
            if !fabric_connected(fabric, &failed) {
                failed.pop();
                continue;
            }
            let t = window.start + rng.below(span);
            push_with_repair(
                t,
                FaultEvent::MeshLinkDown { a, b },
                FaultEvent::MeshLinkUp { a, b },
                &mut events,
            );
        }

        // Transient glitches: uniform over directed base links.
        for _ in 0..round_count(rates.glitches) {
            let t = window.start + rng.below(span);
            let (a, b) = all_links[rng.below(all_links.len() as u64) as usize];
            let (a, b) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
            events.push((t, FaultEvent::LinkGlitch { a, b }));
        }

        Self::new(events)
    }

    /// Generates a deterministic *correlated* fault plan — the storm
    /// shapes a resilience campaign throws at the network, as opposed to
    /// the independent events of [`FaultPlan::random`]:
    ///
    /// 1. **Regional mesh-link storm** — a random region of the grid
    ///    loses several mesh links within a ~200-cycle burst (surviving
    ///    mesh kept connected); the region heals after a hold period.
    /// 2. **Glitch burst** — a cluster of transient glitches whose count
    ///    scales with both `intensity` and `offered_load` (a loaded link
    ///    has more flits in flight to corrupt).
    /// 3. **Band-down-during-retune race** — one shortcut fails, and
    ///    while its drain/retune is still in flight the whole band goes
    ///    down, exercising the pending-target path of the reconfiguration
    ///    state machine; the band is repaired later in the window.
    ///
    /// `intensity` scales event counts (0 disables the plan entirely);
    /// `offered_load` is the workload's injection rate relative to
    /// nominal (1.0 = nominal). Same arguments, same plan.
    pub fn correlated(
        seed: u64,
        fabric: &FabricSpec,
        shortcuts: &[Shortcut],
        intensity: f64,
        offered_load: f64,
        window: std::ops::Range<u64>,
    ) -> Self {
        if intensity <= 0.0 {
            return Self::default();
        }
        let dims = fabric.dims();
        let mut rng = SplitMix64::new(seed ^ 0xC0_44E1A7ED);
        let span = window.end.saturating_sub(window.start).max(8);
        let mut events: Vec<(u64, FaultEvent)> = Vec::new();

        // 1. Regional storm in the first half of the window.
        let storm_start = window.start + span / 8 + rng.below(span / 8);
        let storm_burst = 200.min(span / 4).max(1);
        let storm_hold = (span / 4).clamp(200, 5_000);
        let center = dims.coord_of(rng.below(dims.nodes() as u64) as usize);
        let radius = (1.0 + intensity).round() as i64;
        let in_region = |r: usize| {
            let c = dims.coord_of(r);
            (i64::from(c.x) - i64::from(center.x)).abs() <= radius
                && (i64::from(c.y) - i64::from(center.y)).abs() <= radius
        };
        let region_links: Vec<(usize, usize)> = undirected_fabric_links(fabric)
            .into_iter()
            .filter(|&(a, b)| in_region(a) && in_region(b))
            .collect();
        let n_storm = round_count(2.0 * intensity).min(region_links.len());
        let mut failed: Vec<(usize, usize)> = Vec::new();
        let mut attempts = 0usize;
        while failed.len() < n_storm && attempts < n_storm * 64 + 64 {
            attempts += 1;
            let (a, b) = region_links[rng.below(region_links.len() as u64) as usize];
            if failed.contains(&(a, b)) {
                continue;
            }
            failed.push((a, b));
            if !fabric_connected(fabric, &failed) {
                failed.pop();
                continue;
            }
            let t = storm_start + rng.below(storm_burst);
            events.push((t, FaultEvent::MeshLinkDown { a, b }));
            events.push((t + storm_hold, FaultEvent::MeshLinkUp { a, b }));
        }

        // 2. Glitch burst shortly after the storm peaks, scaled by load:
        // glitches only matter when flits are in flight.
        let burst_start = storm_start + storm_burst + rng.below(span / 8 + 1);
        let burst_span = 300.min(span / 4).max(1);
        let all_links = undirected_fabric_links(fabric);
        let n_glitch = round_count(6.0 * intensity * offered_load.max(0.25));
        for _ in 0..n_glitch {
            let t = burst_start + rng.below(burst_span);
            let (a, b) = all_links[rng.below(all_links.len() as u64) as usize];
            let (a, b) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
            events.push((t, FaultEvent::LinkGlitch { a, b }));
        }

        // 3. Band-down-during-retune race in the second half, repaired
        // well before the window closes so convergence is observable.
        if !shortcuts.is_empty() {
            let race_t = window.start + span / 2 + rng.below(span / 8 + 1);
            let victim = shortcuts[rng.below(shortcuts.len() as u64) as usize];
            events.push((race_t, FaultEvent::ShortcutDown { src: victim.src }));
            // 40 cycles later the drain (or the 99-cycle table rewrite)
            // of the victim's retune is still in flight.
            events.push((race_t + 40, FaultEvent::BandDown));
            let repair_t = race_t + 40 + (span / 8).clamp(500, 10_000);
            for s in shortcuts {
                events.push((repair_t, FaultEvent::ShortcutUp { src: s.src, dst: s.dst }));
            }
        }

        Self::new(events)
    }
}

/// Why a run was flagged unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthDiagnosis {
    /// No switch grant anywhere in the network for the watchdog window
    /// while measured packets were outstanding: a true deadlock (or a hang
    /// on a torn-down resource).
    Deadlock,
    /// Grants kept flowing but no measured message completed for an
    /// extended window: packets are moving without making progress.
    Livelock,
    /// The surviving mesh is disconnected — some destinations are
    /// unreachable, so outstanding traffic can never complete.
    Partitioned,
}

impl std::fmt::Display for HealthDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadlock => write!(f, "deadlock"),
            Self::Livelock => write!(f, "livelock"),
            Self::Partitioned => write!(f, "partitioned"),
        }
    }
}

/// Structured report produced when the watchdog flags a hang instead of
/// letting [`crate::Network::run`] spin silently to the drain limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// What went wrong.
    pub diagnosis: HealthDiagnosis,
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Measured messages still outstanding.
    pub outstanding: u64,
    /// Cycles since the last switch grant (or injection) anywhere.
    pub stalled_for: u64,
    /// Cycles since the last measured message completed (or since the
    /// network last went busy).
    pub since_completion: u64,
    /// Fault recoveries still open (fault applied, windowed latency not
    /// yet re-converged) when the report was taken. Always 0 unless
    /// recovery tracking ([`crate::SimConfig::recovery`]) is enabled.
    pub recovering_faults: u32,
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at cycle {}: {} messages outstanding, no grant for {} cycles, \
             no completion for {} cycles",
            self.diagnosis, self.cycle, self.outstanding, self.stalled_for, self.since_completion
        )?;
        if self.recovering_faults > 0 {
            write!(f, ", {} fault recoveries open", self.recovering_faults)?;
        }
        Ok(())
    }
}

/// Opt-in recovery-SLO tracking ([`crate::SimConfig::recovery`]).
///
/// When enabled, every applied fault opens a [`RecoveryRecord`] that
/// measures how long the network takes to re-converge: the windowed mean
/// message latency (over the last `window` completions) must return to
/// within `1 + epsilon` times its pre-fault value. Purely observational —
/// enabling it changes no routing or timing decision, so the simulated
/// behaviour stays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Completions per sliding window used to estimate the mean latency.
    pub window: u32,
    /// Relative tolerance: converged once the windowed mean is at most
    /// `(1 + epsilon) *` the pre-fault baseline.
    pub epsilon: f64,
}

impl RecoveryConfig {
    /// The default campaign SLO: a 64-completion window within 10% of the
    /// pre-fault mean.
    pub const fn slo() -> Self {
        Self { window: 64, epsilon: 0.10 }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::slo()
    }
}

/// Recovery timings of one applied fault (see [`RecoveryConfig`]).
///
/// Cycle spans are `None` when the phase never completed within the run
/// (or does not apply: mesh faults rebuild detour tables in place and
/// have no drain/rewrite phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// The fault this record measures.
    pub event: FaultEvent,
    /// Cycle the fault was applied.
    pub fault_cycle: u64,
    /// Fault → RF ports retuned (in-flight wormholes drained), for faults
    /// that trigger the drain/retune machinery.
    pub drain_cycles: Option<u64>,
    /// Retune applied → routing-table rewrite complete.
    pub rewrite_cycles: Option<u64>,
    /// Fault → windowed mean latency back within tolerance of the
    /// pre-fault baseline. `None` means the run ended unconverged.
    pub convergence_cycles: Option<u64>,
}

impl RecoveryRecord {
    /// Whether the latency SLO was met within the run.
    pub fn converged(&self) -> bool {
        self.convergence_cycles.is_some()
    }
}

impl std::fmt::Display for RecoveryRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let opt = |v: Option<u64>| match v {
            Some(c) => c.to_string(),
            None => "-".to_string(),
        };
        write!(
            f,
            "{:?} @{}: drain {}, rewrite {}, converged {}",
            self.event,
            self.fault_cycle,
            opt(self.drain_cycles),
            opt(self.rewrite_cycles),
            opt(self.convergence_cycles),
        )
    }
}

fn round_count(expected: f64) -> usize {
    if expected <= 0.0 { 0 } else { expected.round() as usize }
}

/// All undirected base-fabric links, as `(lower, higher)` node pairs in
/// ascending per-router order. On a mesh this reproduces the historical
/// mesh-only enumeration exactly (`(r, r+1)` before `(r, r+width)`), so
/// seeded plans over mesh fabrics are unchanged by the fabric-generic
/// generator.
fn undirected_fabric_links(fabric: &FabricSpec) -> Vec<(usize, usize)> {
    let n = fabric.nodes();
    let mut links = Vec::new();
    for r in 0..n {
        let mut higher: Vec<usize> =
            fabric.neighbors(r).into_iter().filter(|&nb| nb > r).collect();
        higher.sort_unstable();
        links.extend(higher.into_iter().map(|nb| (r, nb)));
    }
    links
}

/// Whether the base fabric minus `failed` undirected links is connected.
fn fabric_connected(fabric: &FabricSpec, failed: &[(usize, usize)]) -> bool {
    let n = fabric.nodes();
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([0usize]);
    seen[0] = true;
    let live = |a: usize, b: usize| {
        let key = (a.min(b), a.max(b));
        !failed.contains(&key)
    };
    while let Some(v) = queue.pop_front() {
        for u in fabric.neighbors(v) {
            if !seen[u] && live(v, u) {
                seen[u] = true;
                queue.push_back(u);
            }
        }
    }
    seen.iter().all(|&s| s)
}

/// Small deterministic PRNG (splitmix64) for plan generation; keeps this
/// crate free of external dependencies.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_topology::GridDims;

    #[test]
    fn plan_sorts_and_drains_in_order() {
        let mut plan = FaultPlan::new(vec![
            (30, FaultEvent::BandDown),
            (10, FaultEvent::ShortcutDown { src: 2 }),
            (20, FaultEvent::LinkGlitch { a: 0, b: 1 }),
        ]);
        assert_eq!(plan.len(), 3);
        let mut out = Vec::new();
        plan.events_at(15, &mut out);
        assert_eq!(out, vec![FaultEvent::ShortcutDown { src: 2 }]);
        out.clear();
        plan.events_at(30, &mut out);
        assert_eq!(
            out,
            vec![FaultEvent::LinkGlitch { a: 0, b: 1 }, FaultEvent::BandDown]
        );
        assert!(plan.is_exhausted());
    }

    #[test]
    fn rf_only_classification() {
        assert!(FaultPlan::new(vec![
            (5, FaultEvent::ShortcutDown { src: 1 }),
            (9, FaultEvent::BandDown),
            (12, FaultEvent::ShortcutUp { src: 1, dst: 7 }),
        ])
        .rf_only());
        assert!(!FaultPlan::new(vec![(5, FaultEvent::MeshLinkDown { a: 0, b: 1 })]).rf_only());
        assert!(!FaultPlan::new(vec![(5, FaultEvent::LinkGlitch { a: 0, b: 1 })]).rf_only());
    }

    #[test]
    fn random_plans_are_deterministic() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        let shortcuts = vec![Shortcut::new(0, 15), Shortcut::new(15, 0)];
        let rates = FaultRates {
            shortcut_failures: 2.0,
            mesh_link_failures: 3.0,
            glitches: 5.0,
            repair_after: None,
        };
        let a = FaultPlan::random(42, &fabric, &shortcuts, rates, 100..10_000);
        let b = FaultPlan::random(42, &fabric, &shortcuts, rates, 100..10_000);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, &fabric, &shortcuts, rates, 100..10_000);
        assert_ne!(a, c, "different seeds should give different plans");
        assert_eq!(a.len(), 10);
        assert!(a.events().iter().all(|(t, _)| *t >= 100 && *t < 10_000));
    }

    #[test]
    fn random_mesh_failures_keep_mesh_connected() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        for seed in 0..20 {
            let rates = FaultRates {
                mesh_link_failures: 6.0,
                ..Default::default()
            };
            let plan = FaultPlan::random(seed, &fabric, &[], rates, 0..1000);
            let failed: Vec<(usize, usize)> = plan
                .events()
                .iter()
                .filter_map(|(_, e)| match e {
                    FaultEvent::MeshLinkDown { a, b } => Some((*a.min(b), *a.max(b))),
                    _ => None,
                })
                .collect();
            assert!(fabric_connected(&fabric, &failed), "seed {seed} partitioned the mesh");
        }
    }

    #[test]
    fn repair_events_follow_failures() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        let shortcuts = vec![Shortcut::new(0, 15)];
        let rates = FaultRates {
            shortcut_failures: 1.0,
            repair_after: Some(500),
            ..Default::default()
        };
        let plan = FaultPlan::random(7, &fabric, &shortcuts, rates, 0..1000);
        assert_eq!(plan.len(), 2);
        let down = plan.events().iter().find(|(_, e)| matches!(e, FaultEvent::ShortcutDown { .. }));
        let up = plan.events().iter().find(|(_, e)| matches!(e, FaultEvent::ShortcutUp { .. }));
        let (td, tu) = (down.expect("down").0, up.expect("up").0);
        assert_eq!(tu, td + 500);
    }

    #[test]
    fn random_draws_links_from_fabric_adjacency() {
        // On a ring-mesh, base links are ring and gateway-mesh edges —
        // not the mesh edges a grid enumeration would produce. Every
        // generated link failure must be a real fabric link, and the
        // surviving fabric must stay connected.
        let fabric = FabricSpec::ring_mesh(GridDims::new(8, 8), 4);
        let rates = FaultRates { mesh_link_failures: 5.0, glitches: 4.0, ..Default::default() };
        for seed in 0..10 {
            let plan = FaultPlan::random(seed, &fabric, &[], rates, 0..5_000);
            let mut downs = Vec::new();
            for (_, e) in plan.events() {
                if let FaultEvent::MeshLinkDown { a, b } = e {
                    assert!(
                        fabric.port_between(*a, *b).is_some(),
                        "seed {seed}: {a}-{b} is not a fabric link"
                    );
                    downs.push((*a.min(b), *a.max(b)));
                }
            }
            assert!(!downs.is_empty(), "seed {seed} generated no link failures");
            assert!(
                fabric_connected(&fabric, &downs),
                "seed {seed} partitioned the ring-mesh"
            );
            // Each plan validates against the fabric it was drawn from.
            FaultPlan::validated(plan.events().to_vec(), &fabric).expect("self-consistent");
        }
    }

    #[test]
    fn fabric_links_match_legacy_mesh_enumeration() {
        // Seeded mesh plans must be unchanged by the fabric-generic
        // generator: the link order is the historical mesh order.
        let dims = GridDims::new(4, 4);
        let links = undirected_fabric_links(&FabricSpec::mesh(dims));
        let mut legacy = Vec::new();
        for r in 0..dims.nodes() {
            let c = dims.coord_of(r);
            if (c.x as usize) + 1 < dims.width() {
                legacy.push((r, r + 1));
            }
            if (c.y as usize) + 1 < dims.height() {
                legacy.push((r, r + dims.width()));
            }
        }
        assert_eq!(links, legacy);
    }

    #[test]
    fn health_report_displays() {
        let mut report = HealthReport {
            diagnosis: HealthDiagnosis::Deadlock,
            cycle: 1234,
            outstanding: 3,
            stalled_for: 200,
            since_completion: 900,
            recovering_faults: 0,
        };
        let text = report.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("1234"));
        assert!(!text.contains("recoveries"));
        report.recovering_faults = 2;
        assert!(report.to_string().contains("2 fault recoveries open"));
    }

    #[test]
    fn validated_accepts_well_formed_plans() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        let plan = FaultPlan::validated(
            vec![
                (10, FaultEvent::ShortcutDown { src: 2 }),
                (50, FaultEvent::ShortcutUp { src: 2, dst: 9 }),
                (20, FaultEvent::MeshLinkDown { a: 0, b: 1 }),
                (80, FaultEvent::MeshLinkUp { a: 1, b: 0 }),
                (30, FaultEvent::LinkGlitch { a: 0, b: 15 }),
            ],
            &fabric,
        )
        .expect("valid plan");
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn validated_rejects_out_of_range_routers() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        let err = FaultPlan::validated(
            vec![(10, FaultEvent::ShortcutDown { src: 16 })],
            &fabric,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::FaultRouterOutOfRange { router: 16, nodes: 16 });
        let err = FaultPlan::validated(
            vec![(10, FaultEvent::LinkGlitch { a: 0, b: 99 })],
            &fabric,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::FaultRouterOutOfRange { router: 99, nodes: 16 });
    }

    #[test]
    fn validated_rejects_non_adjacent_mesh_links() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        let err = FaultPlan::validated(
            vec![(10, FaultEvent::MeshLinkDown { a: 0, b: 5 })],
            &fabric,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::FaultLinkNotAdjacent { a: 0, b: 5 });
    }

    #[test]
    fn validated_rejects_repair_before_fail() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        let err = FaultPlan::validated(
            vec![(10, FaultEvent::ShortcutUp { src: 2, dst: 9 })],
            &fabric,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::FaultRepairBeforeFail { cycle: 10 });
        let err = FaultPlan::validated(
            vec![
                (10, FaultEvent::MeshLinkDown { a: 0, b: 1 }),
                (20, FaultEvent::MeshLinkUp { a: 1, b: 2 }),
            ],
            &fabric,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::FaultRepairBeforeFail { cycle: 20 });
        // A BandDown fails every transmitter, so any later ShortcutUp is
        // a legitimate repair.
        assert!(FaultPlan::validated(
            vec![
                (10, FaultEvent::BandDown),
                (50, FaultEvent::ShortcutUp { src: 2, dst: 9 }),
            ],
            &fabric,
        )
        .is_ok());
    }

    #[test]
    fn correlated_plans_are_deterministic_and_validated() {
        let fabric = FabricSpec::mesh(GridDims::new(6, 6));
        let shortcuts = vec![Shortcut::new(0, 35), Shortcut::new(30, 5)];
        let a = FaultPlan::correlated(9, &fabric, &shortcuts, 2.0, 1.0, 1_000..40_000);
        let b = FaultPlan::correlated(9, &fabric, &shortcuts, 2.0, 1.0, 1_000..40_000);
        assert_eq!(a, b, "same arguments, same plan");
        assert!(!a.is_empty());
        // Every correlated plan passes its own validation rules.
        FaultPlan::validated(a.events().to_vec(), &fabric).expect("self-consistent");
        // The race phase is present: a ShortcutDown strictly before a
        // BandDown, and a repair after.
        let t_down = a.events().iter().find(|(_, e)| matches!(e, FaultEvent::ShortcutDown { .. }));
        let t_band = a.events().iter().find(|(_, e)| matches!(e, FaultEvent::BandDown));
        let t_up = a.events().iter().find(|(_, e)| matches!(e, FaultEvent::ShortcutUp { .. }));
        let (td, tb, tu) = (t_down.unwrap().0, t_band.unwrap().0, t_up.unwrap().0);
        assert!(td < tb && tb < tu, "race orders down < band-down < repair");
        assert_eq!(tb - td, 40, "band drops mid-retune");
    }

    #[test]
    fn correlated_glitches_scale_with_load_and_intensity_zero_is_empty() {
        let fabric = FabricSpec::mesh(GridDims::new(6, 6));
        let count = |load: f64| {
            FaultPlan::correlated(3, &fabric, &[], 2.0, load, 0..30_000)
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, FaultEvent::LinkGlitch { .. }))
                .count()
        };
        assert!(count(2.0) > count(0.5), "loaded links glitch more");
        assert!(FaultPlan::correlated(3, &fabric, &[], 0.0, 1.0, 0..30_000).is_empty());
    }

    #[test]
    fn correlated_storm_keeps_mesh_connected_and_heals() {
        let fabric = FabricSpec::mesh(GridDims::new(6, 6));
        for seed in 0..10 {
            let plan = FaultPlan::correlated(seed, &fabric, &[], 3.0, 1.0, 0..50_000);
            let downs: Vec<(usize, usize)> = plan
                .events()
                .iter()
                .filter_map(|(_, e)| match e {
                    FaultEvent::MeshLinkDown { a, b } => Some((*a.min(b), *a.max(b))),
                    _ => None,
                })
                .collect();
            assert!(fabric_connected(&fabric, &downs), "seed {seed} partitioned the mesh");
            let ups = plan
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, FaultEvent::MeshLinkUp { .. }))
                .count();
            assert_eq!(ups, downs.len(), "every storm link heals");
        }
    }
}
