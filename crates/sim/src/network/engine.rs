//! The cycle engine: arrivals, route computation / VC allocation,
//! switch allocation, flit movement, and completion bookkeeping.
//!
//! The per-router pipeline stages live on [`Sweep`] — one shard's view of
//! the network — so the same code serves one shard and `SimConfig::threads`
//! worker shards: each buffers its observer side effects for the replay in
//! shard order. A shard is the only writer of the routers it owns: it
//! applies its own link traffic (flits in place, credits at the end of its
//! sweep) and lists only what is addressed to another shard. `Network`
//! keeps the orchestration: shard construction, worker dispatch, the
//! deterministic replay, and the application of the boundary outboxes.

#[allow(clippy::wildcard_imports)]
use super::*;
use crate::flit::Flit;
use std::sync::atomic::Ordering::Relaxed;
use sweep::{Completion, PacketAccess, Sweep, SweepShared};

impl Network {

    /// Runs the workload for the configured warmup + measurement window,
    /// then drains measured packets (up to the drain limit), and returns
    /// the collected statistics.
    ///
    /// While measured packets are outstanding a forward-progress watchdog
    /// ([`SimConfig::watchdog_cycles`]) monitors the run: if no switch
    /// grant happens anywhere for a full watchdog window (deadlock), or no
    /// measured message completes for four windows despite grants
    /// (livelock), the run stops early with a structured
    /// [`crate::HealthReport`] in [`RunStats::health`] instead of spinning
    /// silently to the drain limit.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RunStats {
        let horizon = self.config.warmup_cycles + self.config.measure_cycles;
        let limit = horizon + self.config.drain_cycles;
        let watchdog = self.config.watchdog_cycles;
        let mut buf = Vec::new();
        while self.cycle < horizon || (self.measured_outstanding > 0 && self.cycle < limit) {
            buf.clear();
            workload.messages_at(self.cycle, &mut buf);
            for spec in buf.drain(..) {
                self.inject_message(spec);
            }
            self.step();
            if watchdog > 0 && self.measured_outstanding > 0 {
                let stalled = self.cycle.saturating_sub(self.last_progress);
                let starved = self.cycle.saturating_sub(self.last_completion);
                if stalled >= watchdog || starved >= watchdog.saturating_mul(4) {
                    self.stats.health =
                        Some(self.health_report(stalled, starved, stalled >= watchdog));
                    self.tel_event(telemetry::TimelineEventKind::WatchdogFired);
                    break;
                }
            }
        }
        self.stats.saturated = self.measured_outstanding > 0;
        self.stats.end_cycle = self.cycle;
        self.stats.activity.cycles =
            self.cycle.saturating_sub(self.config.warmup_cycles).max(1);
        self.stats.finalize();
        // Telemetry closes its partial final interval and hands the report
        // to the outgoing stats before the move below; recovery tracking
        // drains its per-fault records the same way.
        self.finish_telemetry();
        self.finish_recovery();
        self.finish_ledger();
        // Return the accumulated statistics by move — the per-message
        // latency and per-router activity vectors can run to megabytes
        // and were previously cloned once per experiment. The network
        // keeps a fresh (zeroed) collector, so a subsequent `run` starts
        // a new measurement instead of accumulating; the watchdog report
        // stays readable through [`Network::health`].
        let n = self.routers.len();
        let max_dist = self.stats.distance_histogram.len().saturating_sub(1);
        let mut fresh = RunStats::with_ports(n, max_dist, self.max_ports);
        if self.config.collect_pair_counts {
            fresh.pair_counts = vec![0; n * n];
        }
        fresh.health = self.stats.health;
        std::mem::replace(&mut self.stats, fresh)
    }

    /// Records the completion of one measured message from source `src`
    /// created at `created` whose final flit landed at `at` — the single
    /// site for the latency push, per-source count, outstanding-count
    /// decrement, and watchdog completion stamp.
    fn record_completion(&mut self, src: u32, created: u64, at: u64) {
        let latency = at.saturating_sub(created);
        self.stats.completed_messages += 1;
        self.stats.message_latency_sum += latency;
        self.stats.message_latencies.push(latency.min(u32::MAX as u64) as u32);
        self.stats.per_source[src as usize] += 1;
        self.measured_outstanding -= 1;
        self.last_completion = at;
        if self.recovery.is_some() {
            self.recovery_note_completion(latency, at);
        }
    }

    pub(super) fn complete_parent_part(&mut self, parent: u32, covered: u32, at: u64) {
        let p = &mut self.parents[parent as usize];
        assert!(p.remaining >= covered, "multicast over-completion");
        p.remaining -= covered;
        if p.remaining == 0 && p.measured {
            let (src, created) = (p.src, p.created);
            self.record_completion(src, created, at);
        }
    }

    /// Advances the simulation by one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the clock has reached the end of the engine's cycle range
    /// (2,147,483,647 cycles, the longest run `SimConfig::validate`
    /// admits): past it, a cycle stamp would no longer fit its `u32`.
    pub fn step(&mut self) {
        assert!(
            self.cycle < CYCLE_LIMIT,
            "cycle {} is past the engine's cycle range of {CYCLE_LIMIT} cycles",
            self.cycle
        );
        self.counting = self.cycle >= self.config.warmup_cycles;
        self.step_faults();
        self.step_reconfig();
        self.apply_pending_injections();
        self.step_mc_engine();
        self.step_routers();
        self.apply_outboxes();
        self.cycle += 1;
        self.step_telemetry();
        self.step_ledger();
    }

    pub(super) fn step_routers(&mut self) {
        // Active-router scheduling: visit only routers with (possible)
        // work. `active_stamp[r] == e` means "visit r in sweep e"; each
        // shard scans its slice of the stamp vector in ascending router id
        // (completions and telemetry records are replayed in visit
        // order) and a visited router re-stamps itself for the
        // next sweep while it is non-quiescent; a flit handed to a router
        // of the same shard stamps its target on the spot
        // (`Sweep::send_flit`). Skipping a quiescent
        // router is bit-identical to visiting it because a visit to one is
        // a pure no-op (the VA round-robin pointer is derived from the
        // cycle count, not stored and rotated). The O(n) stamp scan is
        // deliberate: it is a dense sequential read, far cheaper than
        // maintaining a sorted worklist.
        let e = self.active_epoch;
        self.active_epoch = e + 1;
        let shared = SweepShared {
            cycle: self.cycle,
            counting: self.counting,
            epoch: e,
            config: &self.config,
            escape_vcs: low_mask(self.config.vcs_escape),
            adaptive_vcs: low_mask(self.config.total_vcs()) & !low_mask(self.config.vcs_escape),
            base_routes: &self.base_routes,
            base_ports: &self.base_ports,
            max_ports: self.max_ports,
            routes: self.routes.as_ref(),
            escape: self.escape.as_ref(),
            cluster_of: self.mc.as_ref().map(|mc| mc.cluster_of.as_slice()),
            rf_accepting: self.rf_accepting(),
            injection_stalled: self.injection_stalled(),
        };
        // Split the router array (and every router-indexed slice) into one
        // contiguous view per shard. Observer side effects land in the
        // shard buffers for ordered replay; link traffic leaves a shard
        // only when it is addressed to another one. A one-shard sweep holds
        // the packet table exclusively (tree multicast may allocate
        // children mid-sweep); several shards share it.
        let shards = self.shard_ranges.len();
        let (mut owned_packets, shared_packets) = if shards == 1 {
            (Some(&mut self.packets), None)
        } else {
            (None, Some(&self.packets))
        };
        let hop_on = self.telemetry.as_deref().is_some_and(telemetry::TelemetryState::profiling);
        let max_ports = self.max_ports;
        let mut pgrants = self.telemetry.as_deref_mut().map(|t| &mut t.cur.port_grants[..]);
        let mut routers = &mut self.routers[..];
        let mut stamps = &mut self.active_stamp[..];
        let mut rbytes = &mut self.stats.activity.router_bytes[..];
        let mut pflits = &mut self.stats.port_flits[..];
        let mut pdest = &mut self.stats.per_dest[..];
        let shared = &shared;
        // The ranges tile the routers in order: each view takes the next
        // `end - start` routers' share off the front of every slice.
        const TILED: &str = "shard ranges tile the router array";
        let ranges = self.shard_ranges.iter().zip(self.shard_bufs.iter_mut());
        let mut views = ranges.map(|(&(start, end), buf)| {
            let len = end - start;
            Sweep {
                sh: shared,
                base: start,
                routers: routers.split_off_mut(..len).expect(TILED),
                stamps: stamps.split_off_mut(..len).expect(TILED),
                router_bytes: rbytes.split_off_mut(..len).expect(TILED),
                port_flits: pflits.split_off_mut(..len * max_ports).expect(TILED),
                per_dest: pdest.split_off_mut(..len).expect(TILED),
                packets: match owned_packets.take() {
                    Some(p) => PacketAccess::Owned(p),
                    None => PacketAccess::Shared(shared_packets.expect("shared packet table")),
                },
                port_grants: pgrants
                    .as_mut()
                    .map(|g| g.split_off_mut(..len * max_ports).expect(TILED)),
                hop_on,
                buf,
            }
        });
        // Sharded sweep-phase wall time, for the ledger's barrier-wait
        // attribution; stays `None` on one shard and when the ledger is off.
        let sweep_wall_ns = if shards == 1 {
            // One shard runs inline on this thread.
            views.next().expect("one shard view").run_shard();
            None
        } else {
            // Several shards: hand one view to each pool worker behind a
            // take-once mutex and run the sweep between the pool's
            // cycle-boundary barriers.
            //
            // The task vector below is the one allocation a sharded cycle
            // still makes: the views borrow `self` for this call only, so
            // they cannot be kept across cycles until the shard team of
            // ROADMAP item 3 (workers scoped to `Network::run`, tasks
            // built once per run) replaces the pool.
            let tasks: Vec<std::sync::Mutex<Option<Sweep<'_>>>> =
                views.map(|view| std::sync::Mutex::new(Some(view))).collect();
            let tasks = &tasks;
            // Wall-clock the whole sweep phase only when the ledger will
            // consume it (per-shard barrier wait = this total minus the
            // shard's own sweep time).
            let t0 = self.ledger.is_some().then(std::time::Instant::now);
            self.pool
                .as_ref()
                .expect("sharded engine builds its worker pool")
                .scoped_run(&|i| {
                    let mut shard = tasks[i]
                        .lock()
                        .expect("shard task mutex")
                        .take()
                        .expect("one shard task per worker");
                    shard.run_shard();
                });
            t0.map(|t| t.elapsed().as_nanos() as u64)
        };
        if self.ledger.is_some() {
            self.ledger_note_sweep(sweep_wall_ns);
        }
        self.replay_shards();
    }

    /// Replays every shard buffer in shard order — ascending router order,
    /// the one-shard visit order — so telemetry records and message
    /// completions land in the same sequence at any shard count; the
    /// counters are sums, added in any order.
    fn replay_shards(&mut self) {
        let now = self.cycle;
        for si in 0..self.shard_bufs.len() {
            {
                let b = &mut self.shard_bufs[si];
                if let Some(t) = self.telemetry.as_deref_mut() {
                    std::mem::take(&mut b.tel_counts).add_to(&mut t.cur);
                    for op in b.tel_ops.drain(..) {
                        t.apply_op(now, op);
                    }
                }
                self.stats.ejected_flits += std::mem::take(&mut b.ejected_flits);
                self.stats.flit_latency_sum += std::mem::take(&mut b.flit_latency_sum);
                self.stats.hops_sum += std::mem::take(&mut b.hops_sum);
                self.stats.hop_packets += std::mem::take(&mut b.hop_packets);
                self.stats.activity.link_byte_hops += std::mem::take(&mut b.link_byte_hops);
                self.stats.activity.rf_bytes += std::mem::take(&mut b.rf_bytes);
            }
            if std::mem::take(&mut self.shard_bufs[si].progress) {
                self.last_progress = now;
            }
            for i in 0..self.shard_bufs[si].completions.len() {
                match self.shard_bufs[si].completions[i] {
                    Completion::Unicast { src, created, at } => {
                        self.record_completion(src, created, at);
                    }
                    Completion::ParentPart { parent, covered, at } => {
                        self.complete_parent_part(parent, covered, at);
                    }
                }
            }
            self.shard_bufs[si].completions.clear();
        }
    }

    /// Marks router `r` for a visit on the next `step_routers` sweep.
    /// Call sites are the points where the main thread puts work at a
    /// possibly quiescent router: message injections and the flits that
    /// crossed a shard boundary (`apply_outboxes`); a flit handed over
    /// inside a shard is stamped by the shard itself
    /// (`Sweep::send_flit`). Credit returns alone never require a mark —
    /// VA/SA only act on occupied VCs, and any packet waiting for those
    /// credits keeps its holder non-quiescent.
    #[inline]
    pub(super) fn mark_active(&mut self, r: usize) {
        self.active_stamp[r] = self.active_epoch;
    }

    /// Marks every router active and unparks every head — cheap
    /// insurance around rare global events (fault arrivals, RF retuning)
    /// whose reach is hard to bound locally. Visits to routers that turn
    /// out to be idle are no-ops.
    pub(super) fn mark_all_active(&mut self) {
        for r in 0..self.routers.len() {
            self.mark_active(r);
        }
        self.unpark_all();
    }

    /// Unparks every head in the network: called on every change to what
    /// a head asks VA for (routing tables, RF admission). Heads park on
    /// the output ports their request named; a new request may name
    /// others.
    pub(super) fn unpark_all(&mut self) {
        for router in &mut self.routers {
            router.unpark_all();
        }
    }

    pub(super) fn apply_outboxes(&mut self) {
        // What the sweep could not apply itself: flits and credits whose
        // receiving router belongs to another shard than the sender's
        // (none on a one-shard sweep, where the shard owns every router),
        // and the RF-multicast enqueues, which touch network-level queues.
        // Shards are drained in shard order, so a router's input port —
        // fed by exactly one upstream router — receives its flits in the
        // sender's grant order, as it does inside a shard.
        //
        // Indexed drains instead of `mem::take`: the outbox vectors keep
        // their capacity across cycles, so the steady state allocates
        // nothing here. A delivered flit is new work for the target
        // router, so it is marked active; credit returns and multicast
        // enqueues never wake a quiescent router on their own.
        //
        // The network-level `mc_enqueues` (pushed by the serial injection
        // phase) drain before the shard buffers' sweep-time pushes,
        // preserving the serial engine's append order.
        for i in 0..self.mc_enqueues.len() {
            let (cluster, parent) = self.mc_enqueues[i];
            self.mc_queues[cluster].push_back(parent);
        }
        self.mc_enqueues.clear();
        for si in 0..self.shard_bufs.len() {
            for i in 0..self.shard_bufs[si].deliveries.len() {
                let sweep::Delivery { router, port, arrival } = self.shard_bufs[si].deliveries[i];
                self.routers[router as usize].push_arrival(port as usize, arrival);
                self.mark_active(router as usize);
            }
            self.shard_bufs[si].deliveries.clear();
            for i in 0..self.shard_bufs[si].credit_returns.len() {
                let sweep::CreditReturn { router, port, vc } = self.shard_bufs[si].credit_returns[i];
                self.routers[router as usize].return_credit(port as usize, vc as usize);
            }
            self.shard_bufs[si].credit_returns.clear();
            for i in 0..self.shard_bufs[si].mc_enqueues.len() {
                let (cluster, parent) = self.shard_bufs[si].mc_enqueues[i];
                self.mc_queues[cluster].push_back(parent);
            }
            self.shard_bufs[si].mc_enqueues.clear();
        }
    }
}

impl Sweep<'_> {

    /// Moves every flit that has landed on an inbound link into its VC's
    /// buffer (port ascending, FIFO per port).
    pub(super) fn deliver_arrivals(&mut self, r: usize) {
        let rl = r - self.base;
        let now = self.sh.cycle;
        for port in bits(self.routers[rl].arrival_ports()) {
            while let Some(a) = self.routers[rl].pop_arrival_due(port, now) {
                self.routers[rl].push_flit(port, a);
                // Tree-multicast packets fork mid-network; only unicast
                // packets (RF-multicast carriers included) get hop chains.
                if self.hop_on && a.idx == 0 && a.dest != Arrival::TREE {
                    self.tel(sweep::TelOp::HopArrived {
                        packet: a.packet,
                        r: r as u32,
                        port: port as u8,
                        at: u64::from(a.at),
                    });
                }
            }
        }
    }

    /// Route computation + VC allocation for the unparked head flits.
    /// Returns the failed attempts that parked no head, for the VA-stall
    /// count (the parked heads are counted by the caller).
    pub(super) fn step_va(&mut self, r: usize) -> u64 {
        let rl = r - self.base;
        let now = self.sh.cycle;
        // The VA port round-robin pointer advances once per cycle on every
        // router from an initial offset of `r`, so it is a pure function
        // of (router, cycle). Deriving it here instead of storing and
        // rotating a field keeps idle-router visits side-effect free.
        let np = self.routers[rl].num_ports();
        let start = ((r as u64 + now) % np as u64) as usize;
        let mut stalls = 0;
        for port in bits_from(self.routers[rl].va_ports(), start) {
            // VA neither claims nor releases VCs, and only ever clears the
            // VA bit of, or parks, the VC it just served, so the occupied
            // list and this snapshot of the mask are stable across the
            // loop. Skipping a parked head is the same as trying it: the
            // attempt would fail, and a failure changes nothing.
            let mut pending = self.routers[rl].va_unparked(port);
            for oi in 0..self.routers[rl].occupied(port).len() {
                if pending == 0 {
                    break;
                }
                let vci = self.routers[rl].occupied(port)[oi] as usize;
                if pending & (1 << vci) == 0 {
                    continue;
                }
                pending &= !(1 << vci);
                let flit = self.routers[rl].front(port, vci).expect("pending head is buffered");
                debug_assert!(flit.is_head(), "VA pending behind a granted head");
                if flit.eligible > now {
                    continue;
                }
                let stalled = match self.routers[rl].vc(port, vci).dest() {
                    Arrival::TREE => self.va_tree(r, port, vci, flit.packet, now),
                    dest => self.va_unicast(r, port, vci, flit, dest as usize, now),
                };
                stalls += u64::from(stalled);
            }
        }
        stalls
    }

    /// VC allocation for a unicast head: on failure the head is parked on
    /// the ports it asked for, unless its request changes with time (an
    /// RF-bound head under adaptive shortcut routing may detour). Returns
    /// whether it failed without parking.
    pub(super) fn va_unicast(
        &mut self,
        r: usize,
        port: usize,
        vci: usize,
        flit: Flit,
        dest: NodeId,
        now: u64,
    ) -> bool {
        let rl = r - self.base;
        let sh = self.sh;
        let (escape_vcs, adaptive_vcs) = (sh.escape_vcs, sh.adaptive_vcs);
        let packet = flit.packet;
        let router = &mut self.routers[rl];
        let rf = router.rf_port();
        let on_escape = escape_vcs & (1 << vci) != 0;
        // The ports to park on if allocation fails, and whether to.
        let mut wait = None;
        let grant = if on_escape {
            let out = sh.escape_port(r, dest) as usize;
            wait = Some((out, out));
            router.alloc_out_vc(out, escape_vcs).map(|ov| (out, ov))
        } else {
            // Only a shortcut detour sets `mesh_only`, and without unicast
            // routes both choices below are the escape port anyway.
            let mesh_only =
                sh.routes.is_some() && self.packets.get(packet).mesh_only.load(Relaxed);
            // The escape port is looked up at most once, and only on the
            // paths that need it.
            let mut esc = None;
            let mut escape_port = || *esc.get_or_insert_with(|| sh.escape_port(r, dest) as usize);
            let mut out = if mesh_only {
                escape_port()
            } else {
                sh.route_port(r, dest) as usize
            };
            // A draining reconfiguration closes the RF ports to new
            // packets; route over the mesh instead.
            if out == rf && !sh.rf_accepting {
                out = escape_port();
            }
            let mut grant = router.alloc_out_vc(out, adaptive_vcs).map(|ov| (out, ov));
            // HPCA-2008 contention avoidance: a packet blocked on a busy
            // shortcut may adaptively take the mesh route instead, but only
            // once the wait already exceeds the estimated extra cost of the
            // mesh detour (≈3 cycles per extra hop); it then commits to XY
            // so the detour cannot loop back. A pending head is tried on
            // every cycle from its eligible one on (such a head is never
            // parked), so it has waited exactly `now - eligible` cycles.
            let detours = out == rf && sh.config.adaptive_shortcut_routing;
            if grant.is_none() && detours {
                let blocked = now - flit.eligible;
                let extra_hops = sh.routes.map_or(0, |routes| {
                    sh.base_routes.hops(r, dest).saturating_sub(routes.hops(r, dest))
                });
                if blocked >= 3 * u64::from(extra_hops) {
                    let mesh = escape_port();
                    grant = router.alloc_out_vc(mesh, adaptive_vcs).map(|ov| (mesh, ov));
                    if grant.is_some() {
                        self.packets.get(packet).mesh_only.store(true, Relaxed);
                    }
                }
            }
            grant.or_else(|| {
                let esc = escape_port();
                if !detours {
                    wait = Some((out, esc));
                }
                router.alloc_out_vc(esc, escape_vcs).map(|ov| (esc, ov))
            })
        };
        match (grant, wait) {
            (Some((out, ovc)), _) => {
                router.va_grant(port, vci, out, ovc, now + 1);
                if self.hop_on {
                    self.tel(sweep::TelOp::HopVa { packet });
                }
                false
            }
            (None, Some((want, esc))) => {
                router.park(port, vci, want, esc);
                false
            }
            (None, None) => true,
        }
    }

    /// VC allocation for the branches of a tree (VCT) head, which is
    /// never parked. Returns whether the head is still waiting for its
    /// first branch.
    pub(super) fn va_tree(
        &mut self,
        r: usize,
        port: usize,
        vci: usize,
        packet: u32,
        now: u64,
    ) -> bool {
        let rl = r - self.base;
        let sh = self.sh;
        // Compute the base-route tree partition once.
        if !self.routers[rl].vc(port, vci).mc_routed() {
            let PacketDest::Tree(tree) = self.packets.get(packet).dest else {
                unreachable!("a head without a unicast destination belongs to a tree packet")
            };
            let set = self.packets.tree(tree);
            let (groups, glen) = partition_tree(
                r,
                sh.local_port(r) as u8,
                |d| sh.base_routes.port(r, d),
                &set,
            );
            debug_assert!(glen > 0, "tree packet with no progress");
            // A single-group tree keeps forwarding the original packet;
            // otherwise each group gets a child packet carrying its
            // destination subset.
            let mut branches: [(u8, u32); MAX_ROUTER_PORTS] = [(0, packet); MAX_ROUTER_PORTS];
            let parent_fields = (glen > 1).then(|| {
                let p = self.packets.get(packet);
                (p.created, p.measured, p.flits, p.bytes, p.parent(), p.src)
            });
            for (g, branch) in branches.iter_mut().enumerate().take(glen) {
                branch.0 = groups[g].0;
                if let Some((created, measured, flits, bytes, parent, src)) = parent_fields {
                    let dest = self.owned_packets().tree_dest(groups[g].1);
                    branch.1 = self.new_packet(PacketInfo::new(
                        dest,
                        src,
                        flits.into(),
                        bytes.into(),
                        created.into(),
                        measured,
                        parent,
                        false,
                    ));
                }
            }
            self.routers[rl].mc_route(port, vci, &branches[..glen]);
        }
        // Allocate remaining branches (adaptive class first, escape
        // fallback — tree hops follow the base route so escape semantics
        // hold).
        let router = &mut self.routers[rl];
        let had_allocation = router.mc(port, vci).branches().iter().any(|b| b.out_vc.is_some());
        let mut any_allocated = false;
        for b in 0..router.mc(port, vci).branches().len() {
            let branch = router.mc(port, vci).branches()[b];
            if branch.out_vc.is_some() {
                continue;
            }
            let out = branch.port as usize;
            let grant = router
                .alloc_out_vc(out, sh.adaptive_vcs)
                .or_else(|| router.alloc_out_vc(out, sh.escape_vcs));
            if let Some(ovc) = grant {
                router.mc_set_branch_vc(port, vci, b, ovc);
                any_allocated = true;
            }
        }
        // Release the head flit into switch allocation on the *first*
        // successful branch allocation only (the caller checked that it is
        // the front flit and eligible).
        if any_allocated && !had_allocation {
            router.mc_release_head(port, vci, now + 1);
        }
        !any_allocated && !had_allocation
    }

    /// Switch allocation + traversal: grant flits to output ports.
    pub(super) fn step_sa(&mut self, r: usize) {
        let rl = r - self.base;
        let now = self.sh.cycle;
        let width_bytes = self.sh.config.link_width.bytes() as u64;
        let np = self.routers[rl].num_ports();
        // Collect requests per output port. Collection only reads router
        // state (grants, which release VCs, come afterwards).
        let router = &self.routers[rl];
        let requests = &mut self.buf.sa_requests;
        requests.clear(np);
        for port in bits(router.occupied_ports()) {
            let allocated = router.sa_mask(port);
            if allocated == 0 {
                continue;
            }
            for &vc in router.occupied(port) {
                if allocated & (1 << vc) == 0 {
                    continue;
                }
                let Some(front) = router.front(port, vc as usize) else { continue };
                if front.eligible > now {
                    continue;
                }
                let v = router.vc(port, vc as usize);
                if v.allocated() {
                    requests.push(v.out_port(), sweep::SaRequest { port: port as u8, vc, branch: -1 });
                } else {
                    let mc = router.mc(port, vc as usize);
                    for (bi, b) in mc.branches().iter().enumerate() {
                        if b.out_vc.is_some() && !mc.sent(bi) {
                            requests.push(
                                b.port as usize,
                                sweep::SaRequest { port: port as u8, vc, branch: bi as i8 },
                            );
                        }
                    }
                }
            }
        }
        // One buffer read per input port per cycle (the VC it was spent
        // on), except multicast fanout of the same front flit.
        const UNUSED: u8 = u8::MAX;
        let mut used_input = [UNUSED; MAX_ROUTER_PORTS];
        for out in 0..np {
            // `try_grant` never touches `sa_requests`, so the request list
            // can be walked by index — no take/put-back churn.
            let reqs_len = self.buf.sa_requests.of(out).len();
            if reqs_len == 0 {
                continue;
            }
            let capacity = self.routers[rl].out(out).capacity();
            let mut budget = capacity;
            let mut at = self.routers[rl].out(out).rr() % reqs_len;
            for _ in 0..reqs_len {
                if budget == 0 {
                    break;
                }
                let sweep::SaRequest { port: in_port, vc, branch } =
                    self.buf.sa_requests.of(out)[at];
                at += 1;
                if at == reqs_len {
                    at = 0;
                }
                let ip = in_port as usize;
                if used_input[ip] != UNUSED && (used_input[ip] != vc || branch < 0) {
                    continue;
                }
                if self.try_grant(r, ip, vc as usize, out, branch, now, width_bytes) {
                    used_input[ip] = vc;
                    budget -= 1;
                    self.routers[rl].advance_rr(out);
                    // A 16B RF channel drains several buffered narrow flits
                    // of the same packet in one cycle (burst drain).
                    while budget > 0
                        && branch < 0
                        && self.try_grant(r, ip, vc as usize, out, branch, now, width_bytes)
                    {
                        budget -= 1;
                    }
                }
            }
            if self.tel_on() {
                // Requests left ungranted this cycle lost switch
                // arbitration (to competition, capacity, or credits).
                let granted = (capacity - budget) as u64;
                self.buf.tel_counts.sa_stalls += (reqs_len as u64).saturating_sub(granted);
            }
        }
    }

    /// Attempts one switch-allocation grant. Returns true on success.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_grant(
        &mut self,
        r: usize,
        port: usize,
        vci: usize,
        out: usize,
        branch: i8,
        now: u64,
        width_bytes: u64,
    ) -> bool {
        let rl = r - self.base;
        let router = &self.routers[rl];
        // After a burst drain's tail the VC is released and its ring empty
        // (a VC holds one packet at a time), so this also ends the burst.
        let Some(flit) = router.front(port, vci) else { return false };
        if flit.eligible > now {
            return false;
        }
        let is_mc = branch >= 0;
        // What the flit looks like downstream: its packet (a tree branch
        // forwards a child packet) and, on a head, its route information.
        let (out_vc, sent_packet, dest) = if is_mc {
            let b = router.mc(port, vci).branches()[branch as usize];
            let Some(ovc) = b.out_vc else { return false };
            (ovc as usize, b.packet, Arrival::TREE)
        } else {
            let v = router.vc(port, vci);
            debug_assert!(v.allocated() && v.out_port() == out, "grant without an allocation");
            (v.out_vc() as usize, flit.packet, v.dest())
        };
        let op = router.out(out);
        let target = op.target();
        let is_rf = out == router.rf_port();
        let arrival = (now + 2 + op.extra_latency()) as u32;
        let wire_hops = op.is_wire().then(|| op.shortcut_hops());
        // Credit check for non-ejection ports.
        if target.is_some() && router.credits(out, out_vc) == 0 {
            if self.tel_on() {
                self.buf.tel_counts.credit_stalls += 1;
            }
            // Body-flit credit stalls surface in tail serialization; only
            // the head's count toward the hop's credit-wait.
            if self.hop_on && !is_mc && flit.is_head() {
                self.tel(sweep::TelOp::HopCredit { packet: sent_packet });
            }
            return false;
        }
        // Every grant is forward progress for the watchdog.
        self.buf.progress = true;
        let (packet_flits, packet_bytes) = {
            let p = self.packets.get(sent_packet);
            (u32::from(p.flits), u32::from(p.bytes))
        };
        let is_tail = flit.is_tail(packet_flits);
        let mut first_grant = false;
        if flit.is_head() {
            let hg = &self.packets.get(sent_packet).head_grants;
            let grants = hg.load(Relaxed);
            first_grant = grants == 0;
            hg.store(grants + 1, Relaxed);
        }
        // Payload bytes carried by this flit (the tail may be partial).
        let flit_bytes = if is_tail {
            (packet_bytes as u64).saturating_sub((packet_flits as u64 - 1) * width_bytes).max(1)
        } else {
            width_bytes
        };

        if let Some(grants) = self.port_grants.as_deref_mut() {
            grants[rl * self.sh.max_ports + out] += 1;
            self.buf.tel_counts.rf_grants += u64::from(is_rf);
            if first_grant || is_rf {
                self.tel(sweep::TelOp::Grant { packet: sent_packet, first: first_grant, is_rf });
            }
        }
        if self.hop_on && !is_mc && flit.is_head() {
            self.tel(sweep::TelOp::HopGranted { packet: sent_packet, r: r as u32, out: out as u8 });
        }

        // Statistics (per payload byte; see rfnoc-power's ActivityCounters).
        if self.sh.counting {
            self.router_bytes[rl] += flit_bytes;
            self.port_flits[rl * self.sh.max_ports + out] += 1;
            if target.is_some() {
                if !is_rf {
                    self.buf.link_byte_hops += flit_bytes;
                } else if let Some(hops) = wire_hops {
                    // Wire shortcuts burn repeated-wire energy over
                    // their full base-route length.
                    self.buf.link_byte_hops += hops as u64 * flit_bytes;
                } else {
                    self.buf.rf_bytes += flit_bytes;
                }
            }
        }

        // Move the flit.
        let router = &mut self.routers[rl];
        match target {
            None => {
                if is_tail {
                    router.release_out_vc(out, out_vc);
                }
                self.on_flit_ejected(sent_packet, r, now + 2);
            }
            Some((t_router, t_port)) => {
                router.take_credit(out, out_vc);
                if is_tail {
                    router.release_out_vc(out, out_vc);
                }
                self.send_flit(
                    r,
                    t_router,
                    t_port,
                    Arrival {
                        at: arrival,
                        packet: sent_packet,
                        idx: flit.idx,
                        dest,
                        vc: out_vc as u8,
                    },
                );
            }
        }

        // Retire the front flit (immediately for unicast; multicast waits
        // for all branches).
        let retire = !is_mc || self.routers[rl].mc_mark_sent(port, vci, branch as usize);
        if retire {
            self.routers[rl].pop_front(port, vci);
            match self.routers[rl].upstream(port) {
                Some((ur, up)) => self.send_credit(ur, up, vci as u8),
                None => self.routers[rl].return_injection_credit(vci),
            }
            if is_tail {
                self.routers[rl].release_vc(port, vci);
            }
        }
        true
    }
}
