//! The literal 16-shortcut sets `select_application_specific` picks on the
//! paper's 10×10 placement, through the same call `build_system` makes
//! (`adaptive_shortcuts`: staggered access points, corners excluded), from
//! 20 000-cycle generator profiles at the default seed. Pins the profile
//! stream and the alternating router-pair / region-pair selection at once.

use rfnoc::{adaptive_shortcuts, WorkloadSpec, DEFAULT_PROFILE_CYCLES, DEFAULT_SHORTCUT_BUDGET};
use rfnoc_topology::Shortcut;
use rfnoc_traffic::{
    staggered_rf_routers, Placement, Profile, ProfileSpec, TraceKind, TrafficConfig,
};

/// A budget's worth of `(src, dst)`, in selection order.
type Pin = [(usize, usize); 16];

fn selected(workload: &WorkloadSpec, access_points: usize) -> Vec<(usize, usize)> {
    let placement = Placement::paper_10x10();
    let profile = workload.profile(&placement, &TrafficConfig::default(), DEFAULT_PROFILE_CYCLES);
    let rf_enabled = staggered_rf_routers(placement.dims(), access_points);
    adaptive_shortcuts(&placement, &rf_enabled, &profile, DEFAULT_SHORTCUT_BUDGET)
        .into_iter()
        .map(|Shortcut { src, dst }| (src, dst))
        .collect()
}

#[test]
fn application_specific_sets_match_their_pins() {
    let uniform = WorkloadSpec::Trace(TraceKind::Uniform);
    let hotspot1 = WorkloadSpec::Trace(TraceKind::Hotspot1);
    let bidf = WorkloadSpec::Trace(TraceKind::BiDf);
    let stress = WorkloadSpec::Profile(ProfileSpec::new(Profile::Stress, 1));
    #[rustfmt::skip]
    let pins: [(&WorkloadSpec, usize, Pin); 8] = [
        (&uniform, 50, [
            (8, 82), (11, 97), (84, 8), (68, 11), (59, 6), (60, 26), (28, 40), (51, 68),
            (73, 4), (22, 48), (95, 71), (24, 77), (79, 44), (55, 91), (15, 39), (42, 75),
        ]),
        (&uniform, 25, [
            (8, 82), (20, 88), (84, 8), (68, 2), (28, 40), (60, 26), (4, 48), (82, 22),
            (42, 6), (22, 84), (80, 64), (88, 62), (46, 80), (62, 68), (48, 20), (6, 86),
        ]),
        (&hotspot1, 50, [
            (95, 17), (40, 39), (17, 93), (53, 26), (2, 80), (22, 8), (59, 91), (80, 35),
            (11, 77), (79, 15), (57, 31), (60, 6), (84, 2), (20, 28), (8, 24), (66, 19),
        ]),
        (&hotspot1, 25, [
            (2, 80), (62, 28), (88, 20), (48, 60), (84, 2), (40, 88), (8, 24), (22, 8),
            (28, 84), (20, 46), (66, 42), (4, 68), (44, 6), (6, 40), (68, 4), (82, 86),
        ]),
        (&bidf, 50, [
            (91, 57), (57, 95), (4, 71), (82, 2), (19, 42), (40, 26), (51, 79), (24, 40),
            (42, 24), (6, 39), (60, 84), (39, 6), (22, 19), (44, 20), (26, 88), (11, 44),
        ]),
        (&bidf, 25, [
            (4, 40), (68, 84), (82, 2), (80, 68), (42, 24), (6, 48), (22, 44), (48, 6),
            (64, 80), (44, 20), (26, 88), (20, 4), (40, 26), (2, 82), (86, 60), (46, 28),
        ]),
        (&stress, 50, [
            (6, 40), (2, 79), (59, 91), (62, 28), (28, 86), (68, 2), (15, 75), (8, 60),
            (17, 82), (82, 4), (73, 22), (20, 19), (88, 6), (64, 88), (66, 51), (19, 53),
        ]),
        (&stress, 25, [
            (6, 40), (2, 88), (62, 28), (68, 2), (28, 86), (48, 80), (88, 6), (8, 60),
            (20, 64), (82, 4), (26, 68), (84, 22), (40, 24), (60, 46), (44, 82), (4, 26),
        ]),
    ];
    for (workload, access_points, want) in pins {
        assert_eq!(
            selected(workload, access_points),
            want,
            "{} with {access_points} access points",
            workload.name()
        );
    }
}
