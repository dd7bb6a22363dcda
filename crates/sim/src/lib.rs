//! Cycle-level wormhole NoC simulator with an RF-interconnect overlay.
//!
//! This crate is the Garnet-equivalent substrate of the reproduction of
//! *CMP network-on-chip overlaid with multi-band RF-interconnect* (HPCA
//! 2008) and its HPCA 2009 power-reduction companion:
//!
//! * Wormhole routing with virtual channels and credit-based flow control;
//!   5-cycle pipelined routers for head flits (route computation, VC
//!   allocation, switch allocation, switch traversal, link traversal) and
//!   3 cycles for body/tail flits (§3.1).
//! * XY dimension-order routing on the baseline mesh; shortest-path
//!   routing when RF-I shortcuts are overlaid (§3.2), with
//!   eight reserved escape virtual channels restricted to conventional mesh
//!   links for deadlock freedom (§4).
//! * Single-cycle 16-byte RF-I shortcut channels attached to a sixth router
//!   port on RF-enabled routers.
//! * Three multicast architectures (§3.3, §5.2): per-destination unicast
//!   expansion, Virtual Circuit Tree multicast with in-router flit
//!   replication, and the RF-I broadcast channel with DBV-based receiver
//!   power gating.
//!
//! # Example
//!
//! Send one message across a 4×4 mesh and check it arrives:
//!
//! ```
//! use rfnoc_sim::{
//!     MessageClass, MessageSpec, Network, NetworkSpec, ScriptedWorkload, SimConfig,
//! };
//! use rfnoc_topology::GridDims;
//!
//! let mut config = SimConfig::paper_baseline();
//! config.warmup_cycles = 0;
//! config.measure_cycles = 100;
//! let spec = NetworkSpec::mesh_baseline(GridDims::new(4, 4), config);
//! let mut network = Network::new(spec);
//! let mut workload = ScriptedWorkload::new(vec![(
//!     0,
//!     MessageSpec::unicast(0, 15, MessageClass::Data),
//! )]);
//! let stats = network.run(&mut workload);
//! assert_eq!(stats.completed_messages, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bands;
mod config;
mod error;
mod fault;
mod flit;
mod network;
mod packet;
mod rfmc;
mod router;
mod stats;
mod vct;

pub use config::{SimConfig, LINK_RETRY_CYCLES, RF_CHANNEL_BYTES};
pub use error::{ConfigError, ReconfigError, SimError};
pub use fault::{
    FaultEvent, FaultPlan, FaultRates, HealthDiagnosis, HealthReport, RecoveryConfig,
    RecoveryRecord,
};
pub use network::{
    latency_bucket, latency_bucket_bounds, shard_ranges, DelayBreakdown, HopRecord,
    IntervalSample, LedgerConfig, LedgerRecord, LedgerReport, MulticastMode, Network,
    NetworkSpec, PacketSpan, RoutingKind, ScriptedWorkload, TelemetryConfig, TelemetryReport,
    TimelineEvent, TimelineEventKind, Workload, HOP_ROUTE_CYCLES, HOP_SWITCH_CYCLES,
    LATENCY_BUCKETS,
};
pub use packet::{DestSet, Destination, MessageClass, MessageSpec};
pub use rfmc::McConfig;
pub use stats::RunStats;
pub use vct::{VctConfig, VctTable};
