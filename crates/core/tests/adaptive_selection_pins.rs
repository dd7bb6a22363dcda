//! The literal 16-shortcut sets `select_application_specific` picks on the
//! paper's 10×10 placement, through the same call `build_system` makes
//! (`adaptive_shortcuts`: staggered access points, corners excluded), from
//! 20 000-cycle generator profiles at the default seed. Pins the profile
//! stream and the alternating router-pair / region-pair selection at once.
//!
//! The pins are in `tests/pins/adaptive_selection_pins.txt`; re-bless only
//! for an intended change:
//! `PIN_BLESS=1 cargo test -p rfnoc --test adaptive_selection_pins`.

use rfnoc::{adaptive_shortcuts, WorkloadSpec, DEFAULT_PROFILE_CYCLES, DEFAULT_SHORTCUT_BUDGET};
use rfnoc_topology::Shortcut;
use rfnoc_traffic::{
    staggered_rf_routers, Placement, Profile, ProfileSpec, TraceKind, TrafficConfig,
};

/// `<workload>.<access points>`: the selected `(src, dst)` list.
fn selected(workload: &WorkloadSpec, access_points: usize) -> (String, String) {
    let placement = Placement::paper_10x10();
    let profile = workload.profile(&placement, &TrafficConfig::default(), DEFAULT_PROFILE_CYCLES);
    let rf_enabled = staggered_rf_routers(placement.dims(), access_points);
    let set: Vec<(usize, usize)> =
        adaptive_shortcuts(&placement, &rf_enabled, &profile, DEFAULT_SHORTCUT_BUDGET)
            .into_iter()
            .map(|Shortcut { src, dst }| (src, dst))
            .collect();
    (format!("{}.{access_points}", workload.name()), format!("{set:?}"))
}

#[test]
fn application_specific_sets_match_their_pins() {
    let workloads = [
        WorkloadSpec::Trace(TraceKind::Uniform),
        WorkloadSpec::Trace(TraceKind::Hotspot1),
        WorkloadSpec::Trace(TraceKind::BiDf),
        WorkloadSpec::Profile(ProfileSpec::new(Profile::Stress, 1)),
    ];
    let got: Vec<_> = workloads.iter().flat_map(|w| [selected(w, 50), selected(w, 25)]).collect();
    rfnoc_pins::check_file(env!("CARGO_MANIFEST_DIR"), "adaptive_selection_pins", &got);
}
