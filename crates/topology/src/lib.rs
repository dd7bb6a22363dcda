//! Directed grid graphs, all-pairs shortest paths, and RF-I shortcut
//! selection for the RF-interconnect overlaid CMP NoC.
//!
//! This crate implements the graph substrate of the paper *CMP
//! network-on-chip overlaid with multi-band RF-interconnect* (HPCA 2008) and
//! its power-reduction companion (HPCA 2009):
//!
//! * [`GridGraph`] — the baseline mesh viewed as a directed grid graph `G`
//!   whose vertices are routers, augmented with directed shortcut edges
//!   (paper §3.2.1).
//! * [`DistanceMatrix`] — all-pairs shortest path distances, with the `O(V²)`
//!   incremental re-evaluation used by the selection heuristics.
//! * [`select`] — the two architecture-specific heuristics of Figure 3
//!   (exhaustive permutation-graph greedy and max-cost greedy), the
//!   application-specific `F·W` weighted variant, and the region-based
//!   hotspot-aware selection of §3.2.2.
//!
//! # Example
//!
//! Select 4 architecture-specific shortcuts on an 8×8 mesh:
//!
//! ```
//! use rfnoc_topology::{GridDims, GridGraph, PairWeights, SelectionConstraints};
//! use rfnoc_topology::select::select_max_cost;
//!
//! let dims = GridDims::new(8, 8);
//! let graph = GridGraph::mesh(dims);
//! let weights = PairWeights::uniform(dims.nodes());
//! let constraints = SelectionConstraints::allowing_all(dims.nodes(), 4);
//! let shortcuts = select_max_cost(&graph, &weights, &constraints);
//! assert_eq!(shortcuts.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod error;
mod geom;
mod graph;
mod weights;

pub mod fabric;
pub mod regions;
pub mod routing;
pub mod select;

pub use dist::DistanceMatrix;
pub use error::TopologyError;
pub use fabric::{BaseRoutes, FabricSpec};
pub use geom::{Coord, GridDims};
pub use graph::{GridGraph, NodeId, Shortcut};
pub use routing::DistanceOracle;
pub use select::{Selection, SelectionConstraints};
pub use weights::PairWeights;
