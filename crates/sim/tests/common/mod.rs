//! What the golden-statistics and observer pins run: one deterministic
//! workload, the corner shortcuts and the RF multicast clusters of their
//! 6×6 cases.

use rfnoc_sim::{DestSet, McConfig, MessageClass, MessageSpec, Workload};
use rfnoc_topology::{GridDims, Shortcut};

/// A deterministic synthetic workload: xorshift-driven unicasts, and
/// optionally multicasts from [`MC_SRCS`], at a fixed messages-per-cycle
/// probability, independent of any external RNG crate.
pub struct SyntheticWorkload {
    state: u64,
    nodes: usize,
    /// Injection probability per node per cycle, in 1/256ths.
    load_256: u64,
    /// One in `mc_every` messages is a multicast (0 = none).
    mc_every: u64,
    emitted: u64,
    until: u64,
}

impl SyntheticWorkload {
    pub fn new(seed: u64, nodes: usize, load_256: u64, mc_every: u64, until: u64) -> Self {
        Self { state: seed, nodes, load_256, mc_every, emitted: 0, until }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl Workload for SyntheticWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        if cycle >= self.until {
            return;
        }
        for src in 0..self.nodes {
            if self.next() % 256 >= self.load_256 {
                continue;
            }
            self.emitted += 1;
            if self.mc_every > 0 && self.emitted.is_multiple_of(self.mc_every) {
                let tx = MC_SRCS[(self.next() % MC_SRCS.len() as u64) as usize];
                let mut dests = DestSet::empty();
                while dests.len() < 4 {
                    let d = (self.next() % self.nodes as u64) as usize;
                    if d != tx {
                        dests.insert(d);
                    }
                }
                out.push(MessageSpec::multicast(tx, dests));
                continue;
            }
            let mut dst = (self.next() % self.nodes as u64) as usize;
            if dst == src {
                dst = (dst + 1) % self.nodes;
            }
            let class = match self.next() % 3 {
                0 => MessageClass::Request,
                1 => MessageClass::Data,
                _ => MessageClass::Memory,
            };
            out.push(MessageSpec::unicast(src, dst, class));
        }
    }
}

/// The multicast sources of the 6×6 cases, also the RF cluster
/// transmitters.
pub const MC_SRCS: [usize; 4] = [7, 10, 25, 28];

/// Staggered diagonal shortcut set obeying the one-in/one-out constraint.
pub fn shortcuts(dims: GridDims) -> Vec<Shortcut> {
    let n = dims.nodes();
    vec![
        Shortcut::new(0, n - 1),
        Shortcut::new(n - 1, 0),
        Shortcut::new(dims.width() - 1, n - dims.width()),
        Shortcut::new(n - dims.width(), dims.width() - 1),
    ]
}

/// RF multicast from [`MC_SRCS`], each clustered with the router after it,
/// to every third router.
pub fn rf_multicast(dims: GridDims) -> McConfig {
    let receivers: Vec<usize> = (0..dims.nodes()).filter(|i| i % 3 == 0).collect();
    let mut cluster_of = vec![None; dims.nodes()];
    for (cluster, &tx) in MC_SRCS.iter().enumerate() {
        cluster_of[tx] = Some(cluster);
        cluster_of[tx + 1] = Some(cluster);
    }
    McConfig {
        transmitters: MC_SRCS.to_vec(),
        cluster_of,
        serving: McConfig::serving_map(dims, &receivers),
        receivers,
        epoch_cycles: 500,
        rf_flit_bytes: 16,
    }
}
