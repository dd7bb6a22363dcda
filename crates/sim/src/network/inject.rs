//! Message injection: packet creation and the per-node injection
//! engine feeding the local ports.

#[allow(clippy::wildcard_imports)]
use super::*;

impl Network {

    /// Whether the message-creation window is currently open.
    pub(super) fn in_window(&self) -> bool {
        self.cycle >= self.config.warmup_cycles
            && self.cycle < self.config.warmup_cycles + self.config.measure_cycles
    }

    pub(super) fn new_packet(&mut self, p: PacketInfo) -> u32 {
        let id = self.packets.push(p);
        if self.telemetry.is_some() {
            self.tel_packet_created(id);
        }
        id
    }

    /// Resets the watchdog baselines when the network transitions from
    /// idle to busy, so a long quiet gap before a lone message is not
    /// mistaken for a stall.
    fn mark_busy(&mut self, now: u64) {
        if self.measured_outstanding == 0 {
            self.last_progress = now;
            self.last_completion = now;
        }
    }

    pub(super) fn flits_for(&self, bytes: u32) -> u32 {
        self.config.link_width.flits_for(bytes)
    }

    /// Creates the packets for one injected message.
    ///
    /// # Panics
    ///
    /// Panics on a unicast message whose source equals its destination, or
    /// an empty multicast set. Prefer [`Network::try_inject_message`]
    /// where a structured error is wanted.
    pub fn inject_message(&mut self, spec: MessageSpec) {
        self.try_inject_message(spec).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Creates the packets for one injected message, rejecting malformed
    /// messages instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SelfUnicast`] for a unicast whose source equals
    /// its destination and [`SimError::EmptyMulticast`] for a multicast
    /// with no destinations.
    pub fn try_inject_message(&mut self, spec: MessageSpec) -> Result<(), SimError> {
        match spec.dest {
            Destination::Unicast(dst) if dst == spec.src => {
                return Err(SimError::SelfUnicast { node: spec.src });
            }
            Destination::Multicast(set) if set.is_empty() => {
                return Err(SimError::EmptyMulticast);
            }
            _ => {}
        }
        let now = self.cycle;
        let measured = self.in_window();
        self.tel_injected();
        if measured {
            self.stats.injected_messages += 1;
            let dist = match spec.dest {
                Destination::Unicast(d) => self.base_routes.hops(spec.src, d) as usize,
                Destination::Multicast(set) => {
                    if set.is_empty() {
                        0
                    } else {
                        let sum: u32 =
                            set.iter().map(|d| self.base_routes.hops(spec.src, d)).sum();
                        (sum as f64 / set.len() as f64).round() as usize
                    }
                }
            };
            let idx = dist.min(self.stats.distance_histogram.len() - 1);
            self.stats.distance_histogram[idx] += 1;
        }
        if !self.stats.pair_counts.is_empty() {
            let n = self.dims.nodes();
            match spec.dest {
                Destination::Unicast(dst) => {
                    self.stats.pair_counts[spec.src * n + dst] += 1;
                }
                Destination::Multicast(set) => {
                    for dst in set.iter() {
                        self.stats.pair_counts[spec.src * n + dst] += 1;
                    }
                }
            }
        }
        match spec.dest {
            Destination::Unicast(dst) => {
                let bytes = spec.bytes();
                let flits = self.flits_for(bytes);
                let pkt = self.new_packet(PacketInfo::new(
                    PacketDest::Unicast(dst as u32),
                    spec.src as u32,
                    flits,
                    bytes,
                    now,
                    measured,
                    None,
                    false,
                ));
                if measured {
                    self.mark_busy(now);
                    self.measured_outstanding += 1;
                }
                self.pending_inj.push((spec.src, pkt, now));
            }
            Destination::Multicast(set) => {
                self.inject_multicast(spec.src, set, spec.bytes(), measured);
            }
        }
        Ok(())
    }

    pub(super) fn inject_multicast(&mut self, src: NodeId, set: DestSet, bytes: u32, measured: bool) {
        let now = self.cycle;
        let original_len = set.len();
        // A destination equal to the source is delivered immediately; the
        // parent's destination set only tracks remote destinations.
        let mut set = set;
        let self_dest = set.contains(src);
        if self_dest {
            set.remove(src);
        }
        self.parents.push(ParentInfo {
            src: src as u32,
            created: now,
            measured,
            remaining: original_len,
            dests: set,
            bytes,
        });
        let parent = (self.parents.len() - 1) as u32;
        if measured {
            self.mark_busy(now);
            self.measured_outstanding += 1;
        }
        if self_dest {
            self.complete_parent_part(parent, 1, now);
            if measured {
                self.stats.per_dest[src] += 1;
            }
            if set.is_empty() {
                return;
            }
        }
        let use_rf = matches!(self.multicast, MulticastMode::Rf)
            && self
                .mc
                .as_ref()
                .is_some_and(|mc| mc.cluster_of[src].is_some());
        if use_rf {
            let mc = self.mc.as_ref().expect("checked above");
            let cluster = mc.cluster_of[src].expect("checked above");
            let tx = mc.transmitters[cluster];
            if src == tx {
                self.mc_enqueues.push((cluster, parent));
            } else {
                let flits = self.flits_for(bytes);
                let pkt = self.new_packet(PacketInfo::new(
                    PacketDest::Unicast(tx as u32),
                    src as u32,
                    flits,
                    bytes,
                    now,
                    measured,
                    Some(parent),
                    true,
                ));
                self.pending_inj.push((src, pkt, now));
            }
            return;
        }
        match &mut self.multicast {
            MulticastMode::Vct(_) => {
                let delay = self
                    .vct_table
                    .as_mut()
                    .expect("VCT mode has a table")
                    .access(src, set);
                let flits = self.flits_for(bytes);
                let dest = self.packets.tree_dest(set);
                let pkt = self.new_packet(PacketInfo::new(
                    dest,
                    src as u32,
                    flits,
                    bytes,
                    now,
                    measured,
                    Some(parent),
                    false,
                ));
                self.pending_inj.push((src, pkt, now + delay));
            }
            // AsUnicasts, or RF multicast from a non-cache source.
            _ => {
                let flits = self.flits_for(bytes);
                for dst in set.iter() {
                    let pkt = self.new_packet(PacketInfo::new(
                        PacketDest::Unicast(dst as u32),
                        src as u32,
                        flits,
                        bytes,
                        now,
                        measured,
                        Some(parent),
                        false,
                    ));
                    self.pending_inj.push((src, pkt, now));
                }
            }
        }
    }

    pub(super) fn apply_pending_injections(&mut self) {
        // Indexed drain (no `mem::take`) so the buffer keeps its capacity.
        // A queued packet makes its router non-quiescent, so mark it for
        // the scheduler sweep. A VCT set-up delay past the end of the stamp
        // range leaves the packet ready at its end, a cycle no run reaches.
        for i in 0..self.pending_inj.len() {
            let (router, packet, ready_at) = self.pending_inj[i];
            let ready_at = u32::try_from(ready_at).unwrap_or(u32::MAX);
            self.routers[router].enqueue_injection(PendingInjection { packet, ready_at });
            self.mark_active(router);
        }
        self.pending_inj.clear();
    }

}

impl sweep::Sweep<'_> {

    /// Starts waiting packets on free local-input VCs and streams their
    /// flits toward the local input port. The caller skips routers with an
    /// idle injector and cycles where a table rewrite stalls injection.
    pub(super) fn step_injector(&mut self, r: usize) {
        let rl = r - self.base;
        let now = self.sh.cycle;
        let router = &mut self.routers[rl];
        // Claim VCs for waiting packets (adaptive class preferred).
        while let Some(PendingInjection { packet, ready_at }) = router.next_injection() {
            if u64::from(ready_at) > now {
                break;
            }
            let Some(vc) = router.free_injection_vc(self.sh.adaptive_vcs, self.sh.escape_vcs)
            else {
                break;
            };
            let p = self.packets.get(packet);
            router.start_injection(vc, u32::from(p.flits), p.head_dest());
        }
        // Stream up to `local_port_speedup` flits per network cycle across
        // the local VCs (the 4 GHz node feeds the 2 GHz network, §3.1).
        let local = self.routers[rl].local_port();
        let at = (now + 1) as u32;
        for _ in 0..self.sh.config.local_port_speedup {
            let Some(flit) = self.routers[rl].next_injection_flit(at) else { break };
            self.routers[rl].push_arrival(local, flit);
        }
    }
}
