//! The repo benchmark: six workloads, end-to-end and per-crate metrics,
//! and a traced pass. See `README.md` beside this crate's manifest.

#![warn(missing_docs)]

pub mod alloc;
pub mod checks;
pub mod driver;
pub mod inputs;
pub mod metrics;
pub mod run;
pub mod single;
pub mod stats;
pub mod sweep;
pub mod totals;
pub mod trace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
