//! Observer pins: FNV-1a hashes of everything the engine's observers
//! report — every recorded field of the telemetry report, the per-hop
//! profile included where it is on — for four runs that each reach a
//! different corner of the sweep's observer path:
//!
//! * `vct_tree_mixed`: VCT tree multicast mixed with unicasts, where the
//!   sweep creates child packets (and opens their spans) mid-sweep;
//! * `rf_multicast_shortcuts`: RF multicast on a mesh with shortcuts, the
//!   multicast engine's serial-phase sends beside the sweep's hooks;
//! * `unicast_mesh`: plain unicast traffic on the bare mesh at twice the
//!   load of the multicast cases;
//! * `standard_rf_adaptive`: adaptive shortcut routing near saturation
//!   with the standard telemetry only (no per-hop profile), the telemetry
//!   set most runs record.
//!
//! The golden-stats suite hashes the simulated statistics only; these pins
//! hold the observer output to the same bit-for-bit standard. Every
//! non-VCT case must reproduce the same pins at every engine thread count
//! (VCT multicast always runs on one shard).
//!
//! The pins are in `tests/pins/observer_pins.txt`. Re-bless after an
//! *intentional* change to what an observer records with
//! `PIN_BLESS=1 cargo test -p rfnoc-sim --test observer_pins`.

mod common;

use common::{rf_multicast, shortcuts, SyntheticWorkload};
use rfnoc_pins::{hex, Pins};
use rfnoc_sim::{
    MulticastMode, Network, NetworkSpec, SimConfig, TelemetryConfig, TelemetryReport, VctConfig,
};
use rfnoc_topology::{Fnv, GridDims};

/// FNV-1a over the `{:?}` rendering of every field of a telemetry report
/// except the profile bit, which echoes the configuration rather than
/// anything the run observed.
fn telemetry_hash(report: &TelemetryReport) -> u64 {
    let TelemetryReport {
        interval,
        profile: _,
        routers,
        ports,
        samples,
        spans,
        dropped_spans,
        events,
        hops,
        dropped_hops,
    } = report;
    let fields =
        (interval, routers, ports, samples, spans, dropped_spans, events, hops, dropped_hops);
    let mut h = Fnv::new();
    h.bytes(format!("{fields:?}").bytes());
    h.finish()
}

fn observed_config(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline().with_threads(threads);
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1_200;
    cfg.drain_cycles = 6_000;
    cfg.telemetry = Some(TelemetryConfig::profiling(100));
    cfg
}

/// The observed runs; every one but the first also runs sharded.
const CASES: [&str; 4] =
    ["vct_tree_mixed", "rf_multicast_shortcuts", "unicast_mesh", "standard_rf_adaptive"];

/// The telemetry hash of one run.
fn run_case(name: &str, threads: usize) -> u64 {
    let dims = GridDims::new(6, 6);
    let n = dims.nodes();
    let workload = |seed, load, mc_every| SyntheticWorkload::new(seed, n, load, mc_every, 1_400);
    let (spec, mut w) = match name {
        "vct_tree_mixed" => {
            let mut spec = NetworkSpec::mesh_baseline(dims, observed_config(threads));
            spec.multicast = MulticastMode::Vct(VctConfig::default());
            (spec, workload(0x0b5e_0001, 12, 4))
        }
        "rf_multicast_shortcuts" => {
            let mut spec =
                NetworkSpec::with_shortcuts(dims, observed_config(threads), shortcuts(dims));
            spec.multicast = MulticastMode::Rf;
            spec.mc = Some(rf_multicast(dims));
            (spec, workload(0x0b5e_0002, 12, 4))
        }
        "unicast_mesh" => {
            let spec = NetworkSpec::mesh_baseline(dims, observed_config(threads));
            (spec, workload(0x0b5e_0003, 24, 0))
        }
        "standard_rf_adaptive" => {
            let mut cfg = observed_config(threads);
            cfg.telemetry = Some(TelemetryConfig::every(100));
            let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts(dims));
            (spec, workload(0x0b5e_0004, 64, 0))
        }
        other => panic!("unknown observer case {other:?}"),
    };
    let stats = Network::new(spec).run(&mut w);
    let telemetry = stats.telemetry.as_ref().expect("telemetry configured");
    let profiled = name != "standard_rf_adaptive";
    assert_eq!(!telemetry.hops.is_empty(), profiled, "{name}: hop records iff profiled");
    telemetry_hash(telemetry)
}

/// The telemetry pins of `cases` at `threads` engine threads.
fn pins_at(cases: &[&str], threads: usize) -> Vec<(String, String)> {
    cases.iter().map(|&case| (case.to_string(), hex(run_case(case, threads)))).collect()
}

fn observer_pins() -> Pins {
    Pins::load(env!("CARGO_MANIFEST_DIR"), "observer_pins", &CASES)
}

#[test]
fn observer_output_matches_pins() {
    observer_pins().check(&pins_at(&CASES, 1));
}

/// The sharded engine's observer output equals the serial engine's: the
/// non-VCT pins reproduce at every thread count in `GOLDEN_THREADS`
/// (default 2, 3, 4).
#[test]
fn observer_pins_reproduce_at_every_thread_count() {
    observer_pins().check_threads(&rfnoc_pins::threads(&[2, 3, 4]), |t| pins_at(&CASES[1..], t));
}
