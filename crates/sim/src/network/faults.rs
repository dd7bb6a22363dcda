//! Fault application and graceful degradation: scheduled fault events,
//! detour-table rebuilds over the surviving topology, and the watchdog's
//! health diagnosis.

#[allow(clippy::wildcard_imports)]
use super::*;
use crate::config::LINK_RETRY_CYCLES;
use crate::fault::{HealthDiagnosis, RecoveryConfig, RecoveryRecord};

/// One fault whose recovery is still being measured.
#[derive(Debug, Clone)]
struct OpenRecovery {
    record: RecoveryRecord,
    /// Pre-fault windowed mean latency; `None` when the fault struck
    /// before any measured completion.
    baseline: Option<f64>,
    /// Waiting for the drain/retune the fault triggered (RF faults).
    awaiting_drain: bool,
    /// Waiting for the table rewrite after the retune.
    awaiting_rewrite: bool,
    /// Cycle the retune was applied (rewrite latency base).
    retune_cycle: u64,
    /// Measured completions observed since the fault — the convergence
    /// test only runs once a full post-fault window exists, so a window
    /// still dominated by pre-fault completions cannot "converge".
    completions_after: u32,
}

/// Live per-fault recovery tracker (see [`crate::SimConfig::recovery`]).
///
/// Purely observational: it reads completion latencies and
/// reconfiguration milestones, and never feeds anything back into the
/// engine, so enabling it is bit-identical to running without it.
#[derive(Debug)]
pub(super) struct RecoveryState {
    config: RecoveryConfig,
    /// Sliding window of the last `config.window` completion latencies.
    recent: VecDeque<u64>,
    sum: u64,
    open: Vec<OpenRecovery>,
    done: Vec<RecoveryRecord>,
}

impl RecoveryState {
    pub(super) fn new(config: RecoveryConfig) -> Self {
        Self {
            config,
            recent: VecDeque::with_capacity(config.window as usize),
            sum: 0,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn windowed_mean(&self) -> Option<f64> {
        if self.recent.is_empty() {
            None
        } else {
            Some(self.sum as f64 / self.recent.len() as f64)
        }
    }

    /// Takes one timeline event (see [`Network::tel_event`]): a fault
    /// opens a record, a retune ends the drain of every record waiting
    /// for one, and a table rewrite ends the rewrite stall.
    pub(super) fn on_event(&mut self, cycle: u64, kind: TimelineEventKind) {
        match kind {
            TimelineEventKind::Fault(event) => self.open.push(OpenRecovery {
                record: RecoveryRecord {
                    event,
                    fault_cycle: cycle,
                    drain_cycles: None,
                    rewrite_cycles: None,
                    convergence_cycles: None,
                },
                baseline: self.windowed_mean(),
                awaiting_drain: event.rf_only(),
                awaiting_rewrite: false,
                retune_cycle: 0,
                completions_after: 0,
            }),
            TimelineEventKind::RetuneApplied { .. } => {
                for o in self.open.iter_mut().filter(|o| o.awaiting_drain) {
                    o.record.drain_cycles = Some(cycle - o.record.fault_cycle);
                    o.awaiting_drain = false;
                    o.awaiting_rewrite = true;
                    o.retune_cycle = cycle;
                }
            }
            TimelineEventKind::TablesRewritten => {
                for o in self.open.iter_mut().filter(|o| o.awaiting_rewrite) {
                    o.record.rewrite_cycles = Some(cycle - o.retune_cycle);
                    o.awaiting_rewrite = false;
                }
            }
            TimelineEventKind::RecoveryConverged { .. } | TimelineEventKind::WatchdogFired => {}
        }
    }

    /// Feeds one measured completion into the window and closes every
    /// open record whose post-fault windowed mean is back within
    /// tolerance. Returns the newly-converged records (usually empty —
    /// `Vec::new` does not allocate).
    fn on_completion(&mut self, latency: u64, at: u64) -> Vec<RecoveryRecord> {
        let window = self.config.window as usize;
        self.recent.push_back(latency);
        self.sum += latency;
        if self.recent.len() > window {
            self.sum -= self.recent.pop_front().expect("non-empty window");
        }
        if self.open.is_empty() || self.recent.len() < window {
            for o in &mut self.open {
                o.completions_after += 1;
            }
            return Vec::new();
        }
        let mean = self.sum as f64 / self.recent.len() as f64;
        let mut converged = Vec::new();
        let epsilon = self.config.epsilon;
        self.open.retain_mut(|o| {
            o.completions_after += 1;
            if o.completions_after < self.config.window {
                return true;
            }
            // A fault that struck before any completion has no baseline
            // to return to; a full post-fault window counts as recovery.
            let ok = o.baseline.is_none_or(|b| mean <= b * (1.0 + epsilon));
            if ok {
                o.record.convergence_cycles = Some(at - o.record.fault_cycle);
                converged.push(o.record);
            }
            !ok
        });
        self.done.extend(converged.iter().copied());
        converged
    }

    fn open_count(&self) -> u32 {
        self.open.len() as u32
    }

    /// Drains every record — converged and not — in fault order.
    fn finish(&mut self) -> Vec<RecoveryRecord> {
        let mut out = std::mem::take(&mut self.done);
        out.extend(self.open.drain(..).map(|o| o.record));
        out.sort_by_key(|r| r.fault_cycle);
        out
    }
}

impl Network {

    /// Recovery hook: one measured message completed at `at` with the
    /// given latency. Emits a timeline event per newly-converged fault.
    pub(super) fn recovery_note_completion(&mut self, latency: u64, at: u64) {
        let Some(r) = self.recovery.as_deref_mut() else { return };
        let converged = r.on_completion(latency, at);
        for rec in converged {
            self.tel_event(telemetry::TimelineEventKind::RecoveryConverged {
                fault_cycle: rec.fault_cycle,
                after: rec.convergence_cycles.unwrap_or(0),
            });
        }
    }

    /// Drains the recovery records into the outgoing stats (end of run).
    pub(super) fn finish_recovery(&mut self) {
        if let Some(r) = self.recovery.as_deref_mut() {
            self.stats.recovery = r.finish();
        }
    }

    /// Applies every fault event due this cycle.
    pub(super) fn step_faults(&mut self) {
        if self.faults.is_exhausted() {
            return;
        }
        let mut events = Vec::new();
        self.faults.events_at(self.cycle, &mut events);
        for event in events {
            self.apply_fault(event);
        }
    }

    /// The shortcut set the network is currently trying to realise: the
    /// in-flight retune target if one exists, otherwise what is installed.
    fn rf_intent(&self) -> Vec<Shortcut> {
        if let Some(target) = &self.pending_target {
            return target.clone();
        }
        match &self.reconfig {
            ReconfigState::Draining(target) => target.clone(),
            _ => self.active_shortcuts.clone(),
        }
    }

    /// Routes a new retune target through the drain/retune/rewrite state
    /// machine, merging with whatever is already in flight. Failed
    /// transmitters are filtered at apply time, so the target may still
    /// name them.
    fn request_retune(&mut self, target: Vec<Shortcut>) {
        if self.routes.is_none() {
            return;
        }
        match &mut self.reconfig {
            ReconfigState::Idle => self.begin_draining(target),
            ReconfigState::Draining(current) => *current = target,
            ReconfigState::Updating(_) => self.pending_target = Some(target),
        }
    }

    fn apply_fault(&mut self, event: FaultEvent) {
        // Fault events can reroute traffic or delay in-flight flits far
        // from the event site; a blanket mark (which also unparks every
        // head) is cheap insurance (visits to idle routers are no-ops)
        // against missing a wakeup.
        self.mark_all_active();
        self.tel_event(telemetry::TimelineEventKind::Fault(event));
        match event {
            FaultEvent::ShortcutDown { src } => self.fail_shortcut(src),
            FaultEvent::BandDown => {
                let sources: Vec<usize> =
                    self.active_shortcuts.iter().map(|s| s.src).collect();
                for src in sources {
                    self.fail_shortcut(src);
                }
            }
            FaultEvent::ShortcutUp { src, dst } => self.repair_shortcut(src, dst),
            FaultEvent::MeshLinkDown { a, b } => self.fail_mesh_link(a, b),
            FaultEvent::MeshLinkUp { a, b } => self.repair_mesh_link(a, b),
            FaultEvent::LinkGlitch { a, b } => self.glitch_link(a, b),
        }
    }

    /// Fail-stop failure of the RF transmitter at `src`: the port refuses
    /// new packets immediately, in-flight wormholes drain, and the
    /// surviving shortcut set is re-routed through the normal
    /// drain/retune/rewrite machinery so traffic degrades onto the mesh.
    fn fail_shortcut(&mut self, src: usize) {
        if self.failed_rf_tx[src] {
            return;
        }
        self.failed_rf_tx[src] = true;
        self.stats.shortcut_faults += 1;
        let rf = self.rf_port(src);
        if self.routers[src].out(rf).exists() {
            self.routers[src].set_failed(rf, true);
            self.request_retune(self.rf_intent());
        }
    }

    /// Repairs the RF transmitter at `src` and retunes it toward `dst`,
    /// unless that would violate the one-in/one-out port constraint
    /// against the current intent (the repair is then recorded but the
    /// shortcut stays out of service).
    fn repair_shortcut(&mut self, src: usize, dst: usize) {
        self.failed_rf_tx[src] = false;
        self.stats.repairs += 1;
        let mut intent = self.rf_intent();
        intent.retain(|s| s.src != src);
        intent.push(Shortcut::new(src, dst));
        if check_shortcut_set(&intent, self.dims.nodes()).is_ok() {
            self.request_retune(intent);
        }
    }

    fn fail_mesh_link(&mut self, a: usize, b: usize) {
        let port_ab = self.fabric.port_between(a, b).expect("validated base link") as usize;
        let port_ba = self.fabric.port_between(b, a).expect("validated base link") as usize;
        let mb = self.max_base();
        if self.link_failed[a * mb + port_ab] {
            return;
        }
        self.link_failed[a * mb + port_ab] = true;
        self.link_failed[b * mb + port_ba] = true;
        self.routers[a].set_failed(port_ab, true);
        self.routers[b].set_failed(port_ba, true);
        self.mesh_link_failures += 1;
        self.stats.mesh_link_faults += 1;
        self.refresh_detour_state(a, b, true);
    }

    fn repair_mesh_link(&mut self, a: usize, b: usize) {
        let port_ab = self.fabric.port_between(a, b).expect("validated base link") as usize;
        let port_ba = self.fabric.port_between(b, a).expect("validated base link") as usize;
        let mb = self.max_base();
        if !self.link_failed[a * mb + port_ab] {
            return;
        }
        self.link_failed[a * mb + port_ab] = false;
        self.link_failed[b * mb + port_ba] = false;
        self.routers[a].set_failed(port_ab, false);
        self.routers[b].set_failed(port_ba, false);
        self.mesh_link_failures -= 1;
        self.stats.repairs += 1;
        self.refresh_detour_state(a, b, false);
    }

    /// A transient glitch corrupts the flit in flight from `a` to `b`: the
    /// receiver drops it and the sender retransmits from its buffer, so
    /// the flit (and the link behind it) is simply delayed by
    /// [`LINK_RETRY_CYCLES`]. Credits are untouched — the
    /// upstream buffer slot is only freed when the retransmitted flit
    /// finally lands. No effect on an idle link.
    fn glitch_link(&mut self, a: usize, b: usize) {
        let rf = self.rf_port(b);
        let port = if let Some(slot) = self.fabric.port_between(b, a) {
            slot as usize
        } else if self.routers[b].upstream(rf).is_some_and(|(src, _)| src == a) {
            rf
        } else {
            return;
        };
        // The flit's pipeline eligibility is derived from its arrival
        // cycle, so delaying the arrival delays both.
        if self.routers[b].delay_front_arrival(port, LINK_RETRY_CYCLES) {
            self.stats.retransmitted_flits += 1;
        }
    }

    /// Brings the surviving-link routes up to date after the base link
    /// between `a` and `b` failed (`removed`) or was repaired: the escape
    /// routes and, on a table-routed network, the unicast ones. With an
    /// intact fabric both are dropped, restoring the exact base-route
    /// escape and oracle routing of the fault-free simulator.
    fn refresh_detour_state(&mut self, a: usize, b: usize, removed: bool) {
        let escape = self.escape.take();
        self.escape = self.refreshed(escape, &[], a, b, removed);
        if let Some(mut routes) = self.routes.take() {
            let detour = routes.detour.take();
            routes.detour = self.refreshed(detour, &self.active_shortcuts, a, b, removed);
            self.routes = Some(routes);
        }
    }

    /// `table`, the routes over the surviving base links plus `shortcuts`,
    /// after the link `a <-> b` changed: `None` once the fabric is intact,
    /// built afresh on the first failure, and otherwise updated in place.
    /// The update is *incremental*: only the destination columns whose
    /// reverse-BFS trees actually ride the changed link are re-swept, so a
    /// fault storm on a 64×64 fabric costs a handful of column sweeps
    /// instead of `n` full-grid rebuilds. Its result is bit-identical to a
    /// from-scratch build (per-destination BFS columns are independent and
    /// deterministic; `incremental_detour_update_equals_a_rebuild` holds
    /// it to one).
    fn refreshed(
        &self,
        table: Option<Detour>,
        shortcuts: &[Shortcut],
        a: usize,
        b: usize,
        removed: bool,
    ) -> Option<Detour> {
        if self.mesh_link_failures == 0 {
            return None;
        }
        Some(match table {
            Some(mut table) => {
                self.detour_tables_update(shortcuts, &mut table, a, b, removed);
                table
            }
            None => self.detour_tables(shortcuts),
        })
    }

    /// Per-destination reverse BFS over the surviving base links plus the
    /// given (directed) shortcuts: the out-port table and the hop
    /// distances (`u16::MAX` when unreachable).
    /// An unreachable pair keeps its base-route port: such a packet blocks
    /// at a failed link, where the watchdog will flag the partition rather
    /// than let it misroute.
    pub(super) fn detour_tables(&self, shortcuts: &[Shortcut]) -> Detour {
        let n = self.dims.nodes();
        let mut table = Detour { ports: vec![0; n * n], reach: vec![0; n * n] };
        self.sweep_columns(shortcuts, &mut table, |_, _| true);
        table
    }

    /// Re-sweeps only the destination columns of `table` the changed link
    /// `a <-> b` can affect; the rest are provably unchanged.
    ///
    /// A *removed* link matters to destination `d` only where one of its
    /// directions is a BFS discovery edge, i.e. the out-port table routes
    /// `a` through `b` (or vice versa). A *restored* link can only change
    /// a column where its endpoints sat at different BFS depths — at equal
    /// (finite) depth it can neither shorten a path nor become a discovery
    /// edge, and a column unreachable from both endpoints stays
    /// unreachable.
    fn detour_tables_update(
        &self,
        shortcuts: &[Shortcut],
        table: &mut Detour,
        a: usize,
        b: usize,
        removed: bool,
    ) {
        let n = self.dims.nodes();
        let p_ab = self.fabric.port_between(a, b).expect("validated base link");
        let p_ba = self.fabric.port_between(b, a).expect("validated base link");
        self.sweep_columns(shortcuts, table, |t, d| {
            let (ta, tb) = (t.reach[a * n + d], t.reach[b * n + d]);
            if removed {
                (ta != u16::MAX && t.ports[a * n + d] == p_ab)
                    || (tb != u16::MAX && t.ports[b * n + d] == p_ba)
            } else {
                (ta > tb && tb != u16::MAX) || (tb > ta && ta != u16::MAX)
            }
        });
    }

    /// Rebuilds every destination column `d` of `table` for which
    /// `affected(table, d)` holds: resets it to the base-route fill, then
    /// reverse-BFSes from `d` over the surviving base links (in fabric
    /// slot order, so a rebuild of the same column is deterministic) and
    /// the in-edges of `shortcuts`.
    fn sweep_columns(
        &self,
        shortcuts: &[Shortcut],
        table: &mut Detour,
        affected: impl Fn(&Detour, usize) -> bool,
    ) {
        let n = self.dims.nodes();
        let mut rf_srcs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for s in shortcuts {
            rf_srcs_of[s.dst].push(s.src);
        }
        let mut dist = vec![u16::MAX; n];
        let mut queue = VecDeque::new();
        let mb = self.max_base();
        for d in 0..n {
            if !affected(table, d) {
                continue;
            }
            let Detour { ports, reach } = &mut *table;
            for r in 0..n {
                if r == d {
                    ports[r * n + d] = self.local_port(r) as u8;
                    reach[r * n + d] = 0;
                } else {
                    ports[r * n + d] = self.base_routes.port(r, d);
                    reach[r * n + d] = u16::MAX;
                }
            }
            dist.fill(u16::MAX);
            dist[d] = 0;
            queue.push_back(d);
            while let Some(v) = queue.pop_front() {
                // Incoming surviving base links u -> v.
                for slot in 0..self.base_ports[v] {
                    let Some(u) = self.fabric.port_neighbor(v, slot) else { continue };
                    let out_at_u =
                        self.fabric.port_between(u, v).expect("bidirectional links") as usize;
                    if self.link_failed[u * mb + out_at_u] || dist[u] != u16::MAX {
                        continue;
                    }
                    dist[u] = dist[v] + 1;
                    ports[u * n + d] = out_at_u as u8;
                    reach[u * n + d] = dist[u];
                    queue.push_back(u);
                }
                // Incoming shortcut edges u -> v.
                for &u in &rf_srcs_of[v] {
                    if dist[u] == u16::MAX {
                        dist[u] = dist[v] + 1;
                        ports[u * n + d] = self.rf_port(u) as u8;
                        reach[u * n + d] = dist[u];
                        queue.push_back(u);
                    }
                }
            }
        }
    }

    /// Builds the watchdog's structured report: `no_grants` distinguishes
    /// a full stall (deadlock) from motion without completion (livelock);
    /// a surviving fabric that no longer connects every router (some
    /// router's escape route cannot reach router 0; links fail in both
    /// directions) overrides both.
    pub(super) fn health_report(
        &self,
        stalled_for: u64,
        since_completion: u64,
        no_grants: bool,
    ) -> HealthReport {
        let n = self.dims.nodes();
        let partitioned =
            self.escape.as_ref().is_some_and(|t| (0..n).any(|r| t.reach[r * n] == u16::MAX));
        let diagnosis = if partitioned {
            HealthDiagnosis::Partitioned
        } else if no_grants {
            HealthDiagnosis::Deadlock
        } else {
            HealthDiagnosis::Livelock
        };
        HealthReport {
            diagnosis,
            cycle: self.cycle,
            outstanding: self.measured_outstanding,
            stalled_for,
            since_completion,
            recovering_faults: self.recovery.as_deref().map_or(0, RecoveryState::open_count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The in-place update of `table`, routes over the surviving links plus
    /// `shortcuts`, after the base link `a <-> b` failed or was repaired.
    fn update(
        net: &Network,
        shortcuts: &[Shortcut],
        table: &mut Detour,
        a: usize,
        b: usize,
        removed: bool,
    ) {
        net.detour_tables_update(shortcuts, table, a, b, removed);
    }

    /// The surviving-link routes the network keeps: the escape table's and
    /// the unicast routes' (ports, reach), each present while a link is down.
    fn kept(net: &Network) -> [Option<(Vec<u8>, Vec<u16>)>; 2] {
        let detour = net.routes.as_ref().and_then(|r| r.detour.as_ref());
        [net.escape.as_ref(), detour].map(|t| t.map(|t| (t.ports.clone(), t.reach.clone())))
    }

    /// Every undirected base link of the network's fabric, once.
    fn links(net: &Network) -> Vec<(usize, usize)> {
        let n = net.dims.nodes();
        (0..n)
            .flat_map(|a| {
                (0..net.base_ports[a]).filter_map(move |slot| {
                    net.fabric.port_neighbor(a, slot).filter(|&b| b > a).map(|b| (a, b))
                })
            })
            .collect()
    }

    /// Applies each `(a, b, removed)` link change to `net` and checks, after
    /// every one, that the in-place update equals a build from scratch on
    /// ports and reach, for the routes without shortcuts (escape) and with
    /// the installed ones, and that the network keeps exactly those tables.
    fn assert_incremental_equals_rebuild(mut net: Network, steps: &[(usize, usize, bool)]) {
        let sets = [Vec::new(), net.active_shortcuts.clone()];
        let mut tables: Vec<Detour> = sets.iter().map(|s| net.detour_tables(s)).collect();
        for (i, &(a, b, removed)) in steps.iter().enumerate() {
            if removed {
                net.fail_mesh_link(a, b);
            } else {
                net.repair_mesh_link(a, b);
            }
            let at = format!("{} step {i}: link {a}-{b} removed={removed}", net.fabric);
            let mut fresh = Vec::new();
            for (set, table) in sets.iter().zip(&mut tables) {
                update(&net, set, table, a, b, removed);
                let rebuilt = net.detour_tables(set);
                let k = set.len();
                assert!(table.ports == rebuilt.ports, "{at}, {k} shortcuts: ports differ");
                assert!(table.reach == rebuilt.reach, "{at}, {k} shortcuts: reach differs");
                fresh.push((rebuilt.ports, rebuilt.reach));
            }
            let faulted = net.mesh_link_failures > 0;
            let [escape, detour] = kept(&net);
            assert!(escape == faulted.then(|| fresh[0].clone()), "{at}: kept escape table");
            assert!(detour == faulted.then(|| fresh[1].clone()), "{at}: kept unicast table");
        }
    }

    fn network(fabric: FabricSpec, shortcuts: Vec<Shortcut>) -> Network {
        let mut spec = NetworkSpec::with_fabric(fabric, SimConfig::paper_baseline(), shortcuts);
        spec.routing = RoutingKind::ShortestPath;
        Network::new(spec)
    }

    /// The doc claim of `refresh_detour_state`: re-sweeping only the
    /// columns a link change can affect gives the tables a full rebuild
    /// gives. Every single-link failure and its repair on a 6×6 mesh and an
    /// 8×8 ring-mesh with 4×4 tiles, then a seeded walk of failures and
    /// repairs with up to two links down at once (some of which cut a
    /// router off, so unreachable pairs are covered).
    #[test]
    fn incremental_detour_update_equals_a_rebuild() {
        let fabrics = [
            network(
                FabricSpec::mesh(GridDims::new(6, 6)),
                vec![Shortcut::new(0, 35), Shortcut::new(30, 5), Shortcut::new(14, 21)],
            ),
            network(
                FabricSpec::ring_mesh(GridDims::new(8, 8), 4),
                vec![Shortcut::new(0, 63), Shortcut::new(7, 56), Shortcut::new(27, 36)],
            ),
        ];
        for (seed, net) in fabrics.into_iter().enumerate() {
            let all = links(&net);
            let singles: Vec<_> =
                all.iter().flat_map(|&(a, b)| [(a, b, true), (a, b, false)]).collect();
            let mut rng = StdRng::seed_from_u64(0xde70 + seed as u64);
            let mut down: Vec<(usize, usize)> = Vec::new();
            let mut walk = Vec::new();
            for _ in 0..60 {
                if down.len() < 2 && (down.is_empty() || rng.gen_bool(0.5)) {
                    let (a, b) = all[rng.gen_range(0..all.len())];
                    if !down.contains(&(a, b)) {
                        down.push((a, b));
                        walk.push((b, a, true));
                    }
                } else {
                    let (a, b) = down.swap_remove(rng.gen_range(0..down.len()));
                    walk.push((a, b, false));
                }
            }
            assert_incremental_equals_rebuild(net, &[singles, walk].concat());
        }
    }
}
