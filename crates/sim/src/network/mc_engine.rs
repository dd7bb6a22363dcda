//! The RF-I broadcast (multicast) engine (paper §3.3).

#[allow(clippy::wildcard_imports)]
use super::*;

impl Network {

    pub(super) fn step_mc_engine(&mut self) {
        if !matches!(self.multicast, MulticastMode::Rf) {
            return;
        }
        // Temporarily detach the config to avoid aliasing `self`.
        let Some(mc) = self.mc.take() else { return };
        self.step_mc_engine_inner(&mc);
        self.mc = Some(mc);
    }

    pub(super) fn step_mc_engine_inner(&mut self, mc: &McConfig) {
        if self.mc_current.is_none() {
            let owner = mc.owner_at(self.cycle);
            if let Some(parent) = self.mc_queues[owner].pop_front() {
                let bytes = self.parents[parent as usize].bytes;
                let dests = self.parents[parent as usize].dests;
                let plan = plan_delivery(mc, &dests);
                self.mc_current = Some((
                    McTransmission {
                        parent,
                        total_flits: mc.broadcast_flits(bytes),
                        next_flit: 0,
                    },
                    plan,
                ));
            }
        }
        let Some((tx, plan)) = self.mc_current.take() else { return };
        let arrival = self.cycle + 1;
        if self.counting {
            self.stats.activity.rf_bytes += mc.rf_flit_bytes as u64;
        }
        self.tel_rf_mc_flit();
        let mut tx = tx;
        if tx.next_flit == 1.min(tx.total_flits - 1) {
            // First payload flit: receivers serving neighbour cores start
            // local distribution immediately ("a message flit is duplicated
            // and delivered as soon as it is received", Figure 4).
            let parent_info = &self.parents[tx.parent as usize];
            let bytes = parent_info.bytes;
            let created = parent_info.created;
            let measured = parent_info.measured;
            let flits = self.flits_for(bytes);
            for &(rx, dest) in &plan.forwarded {
                let pkt = self.new_packet(PacketInfo::new(
                    PacketDest::Unicast(dest as u32),
                    rx as u32,
                    flits,
                    bytes,
                    created,
                    measured,
                    Some(tx.parent),
                    false,
                ));
                self.pending_inj.push((rx, pkt, arrival));
            }
        }
        if tx.next_flit + 1 == tx.total_flits {
            // Last flit: destinations co-located with a tuned receiver have
            // now received the whole message.
            let parent = tx.parent;
            let payload_flits = tx.total_flits - 1;
            let measured = self.parents[parent as usize].measured;
            let created = self.parents[parent as usize].created;
            for &dest in &plan.direct {
                self.complete_parent_part(parent, 1, arrival);
                if measured {
                    self.stats.per_dest[dest] += 1;
                    self.stats.ejected_flits += payload_flits as u64;
                    self.stats.flit_latency_sum +=
                        payload_flits as u64 * arrival.saturating_sub(created);
                }
            }
            self.mc_current = None;
        } else {
            tx.next_flit += 1;
            self.mc_current = Some((tx, plan));
        }
    }
}
