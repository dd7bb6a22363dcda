//! RF-I multicast configuration (paper §3.3).
//!
//! One RF-I frequency band acts as a shared broadcast channel. Cache banks
//! are the only multicast senders; each of the four cache-bank clusters
//! designates its central bank as the cluster's multicast transmitter, and a
//! coarse-grain arbiter rotates channel ownership between clusters. All
//! multicast-tuned receivers hear every flit; a 64-bit destination bit
//! vector (DBV) in the first flit tells each receiver whether any of the
//! cores it serves are addressed — if not, it power-gates for the
//! remainder of the message.

use crate::error::SimError;
use crate::packet::DestSet;
use rfnoc_topology::{GridDims, NodeId};

/// Configuration of the RF-I multicast channel.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Designated transmitter router per cache cluster (the cluster's
    /// central cache bank).
    pub transmitters: Vec<NodeId>,
    /// Cluster id of each router that hosts a cache bank (`None` for
    /// non-cache routers).
    pub cluster_of: Vec<Option<usize>>,
    /// Routers whose RF receiver is tuned to the multicast band.
    pub receivers: Vec<NodeId>,
    /// For every router, the receiver router that serves multicast
    /// deliveries to it (`None` if the router never receives multicasts).
    pub serving: Vec<Option<NodeId>>,
    /// Cycles between coarse-grain arbitration decisions (channel ownership
    /// rotates round-robin between clusters every epoch).
    pub epoch_cycles: u64,
    /// Width of one RF broadcast flit in bytes (16 in the paper).
    pub rf_flit_bytes: u32,
}

impl McConfig {
    /// Builds the serving map: each router is served by its nearest
    /// multicast receiver (ties break toward the lower router id).
    ///
    /// With the paper's 50 staggered RF-enabled routers, "every receiver
    /// will handle multicast messages for two cores: the core at the
    /// RF-enabled router and a neighboring core".
    pub fn serving_map(dims: GridDims, receivers: &[NodeId]) -> Vec<Option<NodeId>> {
        let n = dims.nodes();
        (0..n)
            .map(|node| {
                receivers
                    .iter()
                    .copied()
                    .min_by_key(|&rx| (dims.manhattan(node, rx), rx))
            })
            .collect()
    }

    /// Number of RF flits needed to broadcast a `bytes`-byte message: one
    /// DBV/length flit plus the payload flits.
    pub fn broadcast_flits(&self, bytes: u32) -> u32 {
        1 + bytes.div_ceil(self.rf_flit_bytes)
    }

    /// The cluster owning the broadcast channel at `cycle`.
    pub fn owner_at(&self, cycle: u64) -> usize {
        if self.transmitters.is_empty() {
            0
        } else {
            ((cycle / self.epoch_cycles) % self.transmitters.len() as u64) as usize
        }
    }

    /// Validates internal consistency against a grid of `nodes` routers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMcConfig`] for an empty transmitter or
    /// receiver set, a router or cluster id out of range, a map that does
    /// not cover every router, a zero arbitration epoch or a zero flit
    /// width.
    pub fn validate(&self, nodes: usize) -> Result<(), SimError> {
        ensure(!self.transmitters.is_empty(), || "no multicast transmitter".into())?;
        ensure(!self.receivers.is_empty(), || "no multicast receiver".into())?;
        for (name, len) in [("cluster_of", self.cluster_of.len()), ("serving", self.serving.len())]
        {
            ensure(len == nodes, || format!("{name} covers {len} routers, the grid has {nodes}"))?;
        }
        for &t in &self.transmitters {
            ensure(t < nodes, || format!("transmitter {t} out of range"))?;
        }
        for &r in self.receivers.iter().chain(self.serving.iter().flatten()) {
            ensure(r < nodes, || format!("receiver {r} out of range"))?;
        }
        let clusters = self.transmitters.len();
        for &c in self.cluster_of.iter().flatten() {
            ensure(c < clusters, || {
                format!("cluster {c} has no transmitter ({clusters} configured)")
            })?;
        }
        ensure(self.epoch_cycles > 0, || "arbitration epoch must be non-zero".into())?;
        ensure(self.rf_flit_bytes > 0, || "RF flit width must be non-zero".into())
    }
}

/// `Ok` when `ok` holds, otherwise [`SimError::InvalidMcConfig`] with `reason`.
fn ensure(ok: bool, reason: impl FnOnce() -> String) -> Result<(), SimError> {
    if ok {
        Ok(())
    } else {
        Err(SimError::InvalidMcConfig { reason: reason() })
    }
}

/// One queued or in-flight multicast transmission (internal engine state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct McTransmission {
    /// Parent record index of the multicast message.
    pub parent: u32,
    /// Total RF flits (DBV flit + payload).
    pub total_flits: u32,
    /// Next flit index to transmit.
    pub next_flit: u32,
}

/// Multicast destinations split by how the receiver delivers them.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DeliveryPlan {
    /// Destination routers that host a tuned receiver themselves (message
    /// complete when the last broadcast flit lands).
    pub direct: Vec<NodeId>,
    /// (receiver router, destination router) pairs needing local
    /// distribution over mesh links.
    pub forwarded: Vec<(NodeId, NodeId)>,
}

pub(crate) fn plan_delivery(config: &McConfig, dests: &DestSet) -> DeliveryPlan {
    let mut plan = DeliveryPlan::default();
    for dest in dests.iter() {
        match config.serving.get(dest).copied().flatten() {
            Some(rx) if rx == dest => plan.direct.push(dest),
            Some(rx) => plan.forwarded.push((rx, dest)),
            None => plan.direct.push(dest), // unreachable via RF; treat as direct
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_map_picks_nearest() {
        let dims = GridDims::new(4, 4);
        let map = McConfig::serving_map(dims, &[0, 15]);
        assert_eq!(map[0], Some(0));
        assert_eq!(map[1], Some(0));
        assert_eq!(map[14], Some(15));
        // node 5 is distance 2 from node 0 ((1,1)) and 4 from 15 → 0
        assert_eq!(map[5], Some(0));
    }

    #[test]
    fn broadcast_flit_count() {
        let cfg = McConfig {
            transmitters: vec![0],
            cluster_of: vec![None; 16],
            receivers: vec![0],
            serving: vec![Some(0); 16],
            epoch_cycles: 100,
            rf_flit_bytes: 16,
        };
        assert_eq!(cfg.broadcast_flits(39), 1 + 3);
        assert_eq!(cfg.broadcast_flits(7), 1 + 1);
        assert_eq!(cfg.broadcast_flits(16), 1 + 1);
        assert_eq!(cfg.broadcast_flits(17), 1 + 2);
    }

    /// Every way `validate` can fail is an `InvalidMcConfig`, through
    /// `Network::try_new` too, and none of them panics.
    #[test]
    fn inconsistent_configs_are_typed_errors() {
        use crate::{MulticastMode, Network, NetworkSpec, SimConfig};
        let good = McConfig {
            transmitters: vec![0],
            cluster_of: vec![Some(0); 16],
            receivers: vec![5],
            serving: vec![Some(5); 16],
            epoch_cycles: 24,
            rf_flit_bytes: 16,
        };
        assert_eq!(good.validate(16), Ok(()));
        type Breakage = fn(&mut McConfig);
        let broken: [(&str, Breakage); 10] = [
            ("no multicast transmitter", |mc| mc.transmitters.clear()),
            ("no multicast receiver", |mc| mc.receivers.clear()),
            ("cluster_of covers 15", |mc| mc.cluster_of.truncate(15)),
            ("serving covers 17", |mc| mc.serving.push(None)),
            ("transmitter 16 out of range", |mc| mc.transmitters[0] = 16),
            ("receiver 99 out of range", |mc| mc.receivers[0] = 99),
            ("receiver 16 out of range", |mc| mc.serving[3] = Some(16)),
            ("cluster 1 has no transmitter", |mc| mc.cluster_of[7] = Some(1)),
            ("epoch must be non-zero", |mc| mc.epoch_cycles = 0),
            ("flit width must be non-zero", |mc| mc.rf_flit_bytes = 0),
        ];
        for (expected, breakage) in broken {
            let mut mc = good.clone();
            breakage(&mut mc);
            let mut spec =
                NetworkSpec::mesh_baseline(GridDims::new(4, 4), SimConfig::paper_baseline());
            spec.multicast = MulticastMode::Rf;
            spec.mc = Some(mc.clone());
            for result in [mc.validate(16), Network::try_new(spec).map(drop)] {
                match result {
                    Err(SimError::InvalidMcConfig { reason }) => {
                        assert!(reason.contains(expected), "{expected:?} vs {reason:?}")
                    }
                    other => panic!("{expected}: expected InvalidMcConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn ownership_rotates() {
        let cfg = McConfig {
            transmitters: vec![1, 2, 3, 4],
            cluster_of: vec![None; 16],
            receivers: vec![0],
            serving: vec![Some(0); 16],
            epoch_cycles: 10,
            rf_flit_bytes: 16,
        };
        assert_eq!(cfg.owner_at(0), 0);
        assert_eq!(cfg.owner_at(9), 0);
        assert_eq!(cfg.owner_at(10), 1);
        assert_eq!(cfg.owner_at(39), 3);
        assert_eq!(cfg.owner_at(40), 0);
    }

    #[test]
    fn delivery_plan_splits_direct_and_forwarded() {
        let dims = GridDims::new(4, 4);
        let receivers = vec![0, 15];
        let cfg = McConfig {
            transmitters: vec![5],
            cluster_of: vec![None; 16],
            receivers: receivers.clone(),
            serving: McConfig::serving_map(dims, &receivers),
            epoch_cycles: 100,
            rf_flit_bytes: 16,
        };
        let plan = plan_delivery(&cfg, &DestSet::from_nodes([0, 1, 15]));
        assert_eq!(plan.direct, vec![0, 15]);
        assert_eq!(plan.forwarded, vec![(0, 1)]);
    }
}
