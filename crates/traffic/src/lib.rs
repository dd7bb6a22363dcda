//! Traffic generation for the RF-I NoC reproduction.
//!
//! Three families of workloads, all implementing
//! [`rfnoc_sim::Workload`]:
//!
//! * [`ProbabilisticWorkload`] — the seven synthetic traces of the paper's
//!   Table 1 (uniform, uni/bidirectional dataflow, hot dataflow, and 1/2/4
//!   hotspot patterns) over the 10×10 component placement of §3.1.
//! * [`AppWorkload`] — synthetic stand-ins for the paper's PARSEC +
//!   SPECjbb2005 traces, parameterised by the Figure 1 distance histograms
//!   and observed hotspot structure (see `DESIGN.md`, substitutions).
//! * [`MulticastTraffic`] — the §5.2 multicast augmentation with 20%/50%
//!   destination-set locality, combinable with any unicast workload via
//!   [`CombinedWorkload`].
//! * [`ProfileWorkload`] — the seeded expected/stress/adversarial
//!   resilience-campaign profiles (see [`Profile`] and
//!   [`compile_profiles`]); the adversarial shape reads the selected
//!   shortcut set and concentrates bursty, self-similar load on it.
//!
//! # Example
//!
//! ```
//! use rfnoc_traffic::{Placement, ProbabilisticWorkload, TraceKind, TrafficConfig};
//! use rfnoc_sim::Workload;
//!
//! let placement = Placement::paper_10x10();
//! let mut trace = ProbabilisticWorkload::new(
//!     placement,
//!     TraceKind::Hotspot1,
//!     TrafficConfig::default(),
//! )
//! .unwrap();
//! let mut messages = Vec::new();
//! trace.messages_at(0, &mut messages);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod arrivals;
mod multicast;
mod patterns;
mod placement;
mod profiles;
mod trace;

pub use apps::{AppProfile, AppWorkload};
pub use multicast::{CombinedWorkload, MulticastConfig, MulticastError, MulticastTraffic};
pub use patterns::{class_for, ProbabilisticWorkload, TraceKind, TrafficConfig, TrafficError};
pub use profiles::{
    compile_profiles, derive_seed, CompiledTrace, Profile, ProfileBundle, ProfileError,
    ProfileSpec, ProfileWorkload,
};
pub use placement::{staggered_rf_routers, ComponentKind, Placement};
pub use trace::{ReadTraceError, Trace, TraceWorkload, TRACE_HEADER};
