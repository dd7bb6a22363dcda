//! What the golden-statistics and observer pins run: one deterministic
//! workload, the corner shortcuts and the RF multicast clusters of their
//! 6×6 cases.

use rfnoc_sim::McConfig;
use rfnoc_topology::{GridDims, Shortcut};

mod synthetic;

pub use synthetic::{SyntheticWorkload, MC_SRCS};

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
