//! Fault application and graceful degradation: scheduled fault events,
//! detour-table rebuilds over the surviving topology, and the watchdog's
//! health diagnosis.

#[allow(clippy::wildcard_imports)]
use super::*;
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
    /// [`SimConfig::link_retry_cycles`]. Credits are untouched — the
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
        if self.routers[b].delay_front_arrival(port, self.config.link_retry_cycles) {
            self.stats.retransmitted_flits += 1;
        }
    }

    /// Recomputes the detour tables after the base link between `a` and
    /// `b` failed (`removed`) or was repaired. With an intact fabric the
    /// escape table is dropped entirely, restoring the exact base-route
    /// escape behaviour of the fault-free simulator. While faults persist,
    /// the rebuild is *incremental*: only the destination columns whose
    /// reverse-BFS trees actually ride the changed link are re-swept, so a
    /// fault storm on a 64×64 fabric costs a handful of column sweeps
    /// instead of `n` full-grid rebuilds. The incremental result is
    /// bit-identical to a from-scratch build (per-destination BFS columns
    /// are independent and deterministic).
    fn refresh_detour_state(&mut self, a: usize, b: usize, removed: bool) {
        if self.mesh_link_failures == 0 {
            self.escape_table = None;
            self.escape_dist = None;
        } else if self.escape_dist.is_some() {
            let mut pt = self.escape_table.take().expect("escape tables travel together");
            let mut td = self.escape_dist.take().expect("checked above");
            self.detour_tables_update(&[], &mut pt, None, &mut td, a, b, removed);
            self.escape_table = Some(pt);
            self.escape_dist = Some(td);
        } else {
            let Detour { ports, reach, .. } = self.detour_tables(&[]);
            self.escape_table = Some(ports);
            self.escape_dist = Some(reach);
        }
        if self.routes.is_some() {
            self.rebuild_unicast_tables_after_link_change(a, b, removed);
        }
    }

    /// Incremental counterpart of
    /// [`rebuild_unicast_tables`](Network::rebuild_unicast_tables) for a
    /// single base-link failure or repair. Falls back to the full rebuild
    /// when the fabric just became intact again (back to the oracle) or
    /// when no detour tables were installed (first intact→faulty
    /// transition).
    fn rebuild_unicast_tables_after_link_change(&mut self, a: usize, b: usize, removed: bool) {
        let detour = self.routes.as_mut().and_then(|routes| routes.detour.take());
        let Some(mut detour) = detour.filter(|_| self.mesh_link_failures > 0) else {
            return self.rebuild_unicast_tables();
        };
        let Detour { ports, hops, reach } = &mut detour;
        self.detour_tables_update(&self.active_shortcuts, ports, Some(hops), reach, a, b, removed);
        self.routes.as_mut().expect("a table-routed network").detour = Some(detour);
    }

    /// Per-destination reverse BFS over the surviving base links plus the
    /// given (directed) shortcuts: the out-port table, the hop distances
    /// (`router * n + dest`, falling back to the base-route length for
    /// unreachable pairs), and the *true* BFS distances (`u16::MAX` when
    /// unreachable) that drive incremental updates.
    /// An unreachable pair keeps its base-route port: such a packet blocks
    /// at a failed link, where the watchdog will flag the partition rather
    /// than let it misroute.
    pub(super) fn detour_tables(&self, shortcuts: &[Shortcut]) -> Detour {
        let n = self.dims.nodes();
        let mut pt = vec![0u8; n * n];
        let mut dm = vec![0u16; n * n];
        let mut td = vec![0u16; n * n];
        let mut rf_srcs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for s in shortcuts {
            rf_srcs_of[s.dst].push(s.src);
        }
        let mut dist = vec![u16::MAX; n];
        let mut queue = VecDeque::new();
        for d in 0..n {
            self.detour_bfs_column(d, &rf_srcs_of, &mut pt, Some(&mut dm), &mut td, &mut dist, &mut queue);
        }
        Detour { ports: pt, hops: dm, reach: td }
    }

    /// Re-sweeps only the destination columns the changed link `a <-> b`
    /// can affect, updating `pt`/`dm`/`td` in place. Returns how many
    /// columns were recomputed (the rest are provably unchanged).
    ///
    /// A *removed* link matters to destination `d` only where one of its
    /// directions is a BFS discovery edge, i.e. the out-port table routes
    /// `a` through `b` (or vice versa). A *restored* link can only change
    /// a column where its endpoints sat at different BFS depths — at equal
    /// (finite) depth it can neither shorten a path nor become a discovery
    /// edge, and a column unreachable from both endpoints stays
    /// unreachable.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn detour_tables_update(
        &self,
        shortcuts: &[Shortcut],
        pt: &mut [u8],
        mut dm: Option<&mut [u16]>,
        td: &mut [u16],
        a: usize,
        b: usize,
        removed: bool,
    ) -> usize {
        let n = self.dims.nodes();
        let p_ab = self.fabric.port_between(a, b).expect("validated base link");
        let p_ba = self.fabric.port_between(b, a).expect("validated base link");
        let mut rf_srcs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for s in shortcuts {
            rf_srcs_of[s.dst].push(s.src);
        }
        let mut dist = vec![u16::MAX; n];
        let mut queue = VecDeque::new();
        let mut recomputed = 0;
        for d in 0..n {
            let ta = td[a * n + d];
            let tb = td[b * n + d];
            let affected = if removed {
                (ta != u16::MAX && pt[a * n + d] == p_ab)
                    || (tb != u16::MAX && pt[b * n + d] == p_ba)
            } else {
                (ta > tb && tb != u16::MAX) || (tb > ta && ta != u16::MAX)
            };
            if affected {
                self.detour_bfs_column(
                    d,
                    &rf_srcs_of,
                    pt,
                    dm.as_deref_mut(),
                    td,
                    &mut dist,
                    &mut queue,
                );
                recomputed += 1;
            }
        }
        recomputed
    }

    /// One column of the detour build: resets destination `d`'s column to
    /// the base-route fill, then reverse-BFSes from `d` over the surviving
    /// base links (in fabric slot order, so a rebuild of the same column
    /// is deterministic) and the shortcut in-edges.
    #[allow(clippy::too_many_arguments)]
    fn detour_bfs_column(
        &self,
        d: usize,
        rf_srcs_of: &[Vec<usize>],
        pt: &mut [u8],
        mut dm: Option<&mut [u16]>,
        td: &mut [u16],
        dist: &mut [u16],
        queue: &mut VecDeque<usize>,
    ) {
        let n = self.dims.nodes();
        for r in 0..n {
            if r == d {
                pt[r * n + d] = self.local_port(r) as u8;
                td[r * n + d] = 0;
                if let Some(dm) = dm.as_deref_mut() {
                    dm[r * n + d] = 0;
                }
            } else {
                pt[r * n + d] = self.base_routes.port(r, d);
                td[r * n + d] = u16::MAX;
                if let Some(dm) = dm.as_deref_mut() {
                    // A base route is a simple path: at most `n - 1` hops.
                    dm[r * n + d] = self.base_routes.hops(r, d) as u16;
                }
            }
        }
        dist.fill(u16::MAX);
        queue.clear();
        dist[d] = 0;
        queue.push_back(d);
        let mb = self.max_base();
        while let Some(v) = queue.pop_front() {
            // Incoming surviving base links u -> v.
            for slot in 0..self.base_ports[v] {
                let Some(u) = self.fabric.port_neighbor(v, slot) else { continue };
                let out_at_u =
                    self.fabric.port_between(u, v).expect("base links are bidirectional") as usize;
                if self.link_failed[u * mb + out_at_u] || dist[u] != u16::MAX {
                    continue;
                }
                dist[u] = dist[v] + 1;
                pt[u * n + d] = out_at_u as u8;
                td[u * n + d] = dist[u];
                if let Some(dm) = dm.as_deref_mut() {
                    dm[u * n + d] = dist[u];
                }
                queue.push_back(u);
            }
            // Incoming shortcut edges u -> v.
            for &u in &rf_srcs_of[v] {
                if dist[u] == u16::MAX {
                    dist[u] = dist[v] + 1;
                    pt[u * n + d] = self.rf_port(u) as u8;
                    td[u * n + d] = dist[u];
                    if let Some(dm) = dm.as_deref_mut() {
                        dm[u * n + d] = dist[u];
                    }
                    queue.push_back(u);
                }
            }
        }
    }

    /// Whether the surviving base fabric still connects every router.
    fn surviving_mesh_connected(&self) -> bool {
        let n = self.dims.nodes();
        let mb = self.max_base();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(v) = queue.pop_front() {
            for slot in 0..self.base_ports[v] {
                let Some(u) = self.fabric.port_neighbor(v, slot) else { continue };
                if seen[u] || self.link_failed[v * mb + slot as usize] {
                    continue;
                }
                seen[u] = true;
                queue.push_back(u);
            }
        }
        seen.iter().all(|&s| s)
    }

    /// Builds the watchdog's structured report: `no_grants` distinguishes
    /// a full stall (deadlock) from motion without completion (livelock);
    /// a disconnected surviving mesh overrides both.
    pub(super) fn health_report(
        &self,
        stalled_for: u64,
        since_completion: u64,
        no_grants: bool,
    ) -> HealthReport {
        let diagnosis = if !self.surviving_mesh_connected() {
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
