//! # rfnoc — CMP network-on-chip overlaid with multi-band RF-interconnect
//!
//! A from-scratch reproduction of the system described in *CMP
//! network-on-chip overlaid with multi-band RF-interconnect* (Chang, Cong,
//! Kaplan, Naik, Reinman, Socher, Tam — HPCA 2008) and its companion
//! *Power Reduction of CMP Communication Networks via RF-Interconnects*
//! (HPCA 2009).
//!
//! The system: a 64-core CMP whose 10×10 mesh NoC is overlaid with
//! multi-band RF-interconnect transmission lines. The RF-I provides
//! single-cycle cross-chip *shortcuts* whose frequency bands can be
//! retuned per application (an adaptive NoC), a natural broadcast medium
//! for coherence *multicast*, and — the headline result — enough added
//! bandwidth that the underlying mesh can be thinned from 16B to 4B links,
//! cutting NoC power by ~65% and area by ~82% at equal performance.
//!
//! This crate is the top of the reproduction stack:
//!
//! * [`Architecture`] / [`SystemConfig`] — the paper's design points
//!   (baseline, static/wire/adaptive shortcuts, VCT and RF multicast).
//! * [`WorkloadSpec`] — Table 1 probabilistic traces, synthetic PARSEC/
//!   SPECjbb application profiles, multicast-augmented traces.
//! * [`Experiment`] → [`RunReport`] — build, profile, simulate (on
//!   [`rfnoc_sim`]), and cost (with [`rfnoc_power`]) in one call.
//!
//! # Quickstart
//!
//! Compare the 16B baseline against adaptive RF-I shortcuts on a 4B mesh:
//!
//! ```no_run
//! use rfnoc::{Architecture, Experiment, SystemConfig, WorkloadSpec};
//! use rfnoc_power::LinkWidth;
//! use rfnoc_traffic::TraceKind;
//!
//! let workload = WorkloadSpec::Trace(TraceKind::Hotspot1);
//! let baseline = Experiment::new(
//!     SystemConfig::new(Architecture::Baseline, LinkWidth::B16),
//!     workload.clone(),
//! )
//! .run();
//! let adaptive = Experiment::new(
//!     SystemConfig::new(
//!         Architecture::AdaptiveShortcuts { access_points: 50 },
//!         LinkWidth::B4,
//!     ),
//!     workload,
//! )
//! .run();
//! let (lat, pow) = adaptive.normalized_to(&baseline);
//! println!("adaptive@4B: {lat:.2}x latency, {pow:.2}x power");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod arch;
mod builder;
pub mod compare;
mod experiment;
pub mod gate;
pub mod json;
pub mod ledger;
pub mod obs;
mod phased;
mod workload;

pub use arch::{Architecture, SystemConfig, DEFAULT_ACCESS_POINTS, DEFAULT_SHORTCUT_BUDGET};
pub use builder::{
    adaptive_shortcuts, build_system, elaborate, static_shortcuts, BuiltSystem, SharedDesign,
    DEFAULT_MC_EPOCH, WIRE_SHORTCUT_CYCLES_PER_HOP,
};
pub use experiment::{
    DesignKey, Experiment, FaultSpec, ProfileSource, RunReport, DEFAULT_PROFILE_CYCLES,
};
pub use phased::{PhasedExperiment, PhasedReport, ReconfigPolicy};
pub use workload::WorkloadSpec;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use rfnoc_power;
pub use rfnoc_sim;
pub use rfnoc_topology;
pub use rfnoc_traffic;
