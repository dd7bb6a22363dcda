//! Random configs, edge values among them, for every generator: each one
//! either refuses its config with a typed error or runs 1,000 cycles within
//! a message bound its config implies, every message well formed. A case
//! is bounded by cycles, never by wall time: a generator that loops without
//! end inside one cycle hangs the test rather than passing it.

use proptest::prelude::*;
use rfnoc_sim::{Destination, MessageSpec, Workload};
use rfnoc_topology::{GridDims, Shortcut};
use rfnoc_traffic::{
    AppProfile, AppWorkload, MulticastConfig, MulticastTraffic, Placement, ProbabilisticWorkload,
    Profile, ProfileError, ProfileSpec, ProfileWorkload, TraceKind, TrafficConfig,
};

const CYCLES: u64 = 1_000;

/// Values every float field is tried at: non-finite, beyond every counter,
/// negative, and the whole-number edges of the arrival kernel.
const EDGES: [f64; 8] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e17, -1.0, 0.0, 1.0, 2.5];

/// An edge value for one `pick` in eight, else `valid`, a value in the
/// field's range.
fn field(pick: usize, valid: f64) -> f64 {
    EDGES.get(pick % (8 * EDGES.len())).copied().unwrap_or(valid)
}

/// The 10×10 paper placement for four `pick`s in ten; else a 12×12 one,
/// whose router ids reach 143; a 16×16 one (ids to 255); cores on every
/// router of an 8×8 grid, with no cache; the 6×6 quadrant placement, whose
/// caches and memory ports leave no core; a single core, with no other to
/// send to; or a column of four cores, which leaves dataflow groups 0 and 3
/// empty.
fn placement(pick: usize) -> Placement {
    match pick % 10 {
        4 => Placement::quadrant_clusters(GridDims::new(12, 12)),
        5 => Placement::quadrant_clusters(GridDims::new(16, 16)),
        6 => Placement::cores_only(GridDims::new(8, 8)),
        7 => Placement::quadrant_clusters(GridDims::new(6, 6)),
        8 => Placement::cores_only(GridDims::new(1, 1)),
        9 => Placement::cores_only(GridDims::new(1, 4)),
        _ => Placement::paper_10x10(),
    }
}

/// A traffic config with every float field drawn by [`field`]: field `i`
/// from `picks[i]`, its in-range value scaled from `units[i]`.
fn traffic(picks: &[usize], units: &[f64], seed: u64) -> TrafficConfig {
    let f = |i: usize| field(picks[i], units[i]);
    TrafficConfig {
        injection_rate: field(picks[0], units[0] * 0.05),
        seed,
        hot_fraction: f(1),
        hot_multiplier: field(picks[2], 1.0 + 4.0 * units[2]),
        hot_group_multiplier: field(picks[3], 1.0 + units[3]),
        intra_group: f(4) * 0.5,
        neighbor_group: f(5) * 0.5,
        memory_fraction: f(6),
        response_delay: picks[7].is_multiple_of(2).then_some(picks[7] as u64 % 40),
    }
}

/// Runs `workload` for [`CYCLES`] cycles; every message must pass
/// `well_formed`, and there must be at most `per_cycle` a cycle.
fn run_bounded(
    mut workload: impl Workload,
    per_cycle: f64,
    well_formed: impl Fn(&MessageSpec) -> bool,
) -> Result<(), TestCaseError> {
    let mut out = Vec::new();
    for cycle in 0..CYCLES {
        out.clear();
        workload.messages_at(cycle, &mut out);
        prop_assert!(out.len() as f64 <= per_cycle, "{} messages at cycle {}", out.len(), cycle);
        for m in &out {
            prop_assert!(well_formed(m), "malformed {:?} at cycle {}", m, cycle);
        }
    }
    Ok(())
}

/// A unicast between two routers of an `n`-router placement.
fn unicast_within(n: usize) -> impl Fn(&MessageSpec) -> bool {
    move |m| matches!(m.dest, Destination::Unicast(d) if d < n && m.src < n && d != m.src)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn probabilistic_traces_refuse_or_stay_bounded(
        kind in 0usize..7,
        layout in 0usize..10,
        picks in collection::vec(0usize..128, 8),
        units in collection::vec(0.0f64..1.0, 8),
        seed in any::<u64>(),
    ) {
        let placement = placement(layout);
        let n = placement.dims().nodes();
        let config = traffic(&picks, &units, seed);
        let kind = TraceKind::all()[kind];
        let Ok(workload) = ProbabilisticWorkload::new(placement, kind, config.clone()) else {
            return Ok(());
        };
        // Each source sends at most the ceiling of its peak rate a cycle,
        // and each request draws at most one response.
        let multiplier = config.hot_multiplier.max(config.hot_group_multiplier).max(1.0);
        let peak = (config.injection_rate * multiplier).ceil();
        run_bounded(workload, 2.0 * peak * n as f64, unicast_within(n))?;
    }

    #[test]
    fn app_traces_refuse_or_stay_bounded(
        app in 0usize..5,
        layout in 0usize..10,
        picks in collection::vec(0usize..128, 3),
        units in collection::vec(0.0f64..1.0, 3),
        weight_at in 0usize..19,
        hotspots in 0usize..6,
        seed in any::<u64>(),
    ) {
        let placement = placement(layout);
        let n = placement.dims().nodes();
        let mut profile = AppProfile::paper_suite().swap_remove(app);
        profile.hot_fraction = field(picks[0], units[0]);
        profile.distance_weights[weight_at] = field(picks[1], units[1] * 4.0);
        profile.hotspot_count = hotspots;
        let rate = field(picks[2], units[2] * 0.05);
        let Ok(workload) = AppWorkload::new(placement, profile, rate, seed) else {
            return Ok(());
        };
        run_bounded(workload, n as f64, unicast_within(n))?;
    }

    #[test]
    fn campaign_profiles_refuse_or_stay_bounded(
        profile in 0usize..3,
        layout in 0usize..10,
        picks in collection::vec(0usize..128, 6),
        units in collection::vec(0.0f64..1.0, 6),
        ends in collection::vec(0usize..1_000, 4),
        stray_pick in 0usize..8,
        seed in any::<u64>(),
    ) {
        let placement = placement(layout);
        let n = placement.dims().nodes();
        let spec = ProfileSpec {
            burst_gain: field(picks[0], 1.0 + 9.0 * units[0]),
            pareto_alpha: field(picks[1], 1.0 + units[1].max(1e-3)),
            mean_on: field(picks[2], 1.0 + 50.0 * units[2]),
            mean_off: field(picks[3], 1.0 + 200.0 * units[3]),
            target_fraction: field(picks[4], units[4]),
            ..ProfileSpec::new(Profile::all()[profile], seed)
        };
        let traffic = TrafficConfig {
            injection_rate: field(picks[5], units[5] * 0.05),
            ..TrafficConfig::default()
        };
        // An endpoint falls outside the placement once in eight cases,
        // whatever its size; the other endpoints stay inside it.
        let stray = stray_pick == 0;
        let end = |i: usize| if stray && i == 0 { n + ends[i] } else { ends[i] % n };
        let shortcuts = [Shortcut::new(end(0), end(1)), Shortcut::new(end(2), end(3))];
        let valid = spec.validate().is_ok() && traffic.validate().is_ok();
        match ProfileWorkload::new(placement, spec, traffic, &shortcuts) {
            Ok(workload) => {
                prop_assert!(n >= 2 && !stray, "built on {} routers, stray {}", n, stray);
                run_bounded(workload, n as f64, unicast_within(n))?;
            }
            // A one-router placement is refused for its size, before its
            // shortcut endpoints are read.
            Err(e) if valid && n < 2 => {
                prop_assert_eq!(e, ProfileError::TooFewRouters { routers: n });
            }
            Err(e) if valid => {
                prop_assert_eq!(e, ProfileError::ShortcutOutOfRange { router: end(0) });
            }
            Err(_) => {}
        }
    }

    #[test]
    fn multicast_refuses_or_stays_bounded(
        layout in 0usize..10,
        picks in collection::vec(0usize..128, 2),
        units in collection::vec(0.0f64..1.0, 2),
        min_dests in 0usize..12,
        max_dests in 0usize..30,
        seed in any::<u64>(),
    ) {
        let placement = placement(layout);
        let config = MulticastConfig {
            rate_per_cache: field(picks[0], units[0] * 0.05),
            locality: field(picks[1], units[1].max(1e-3)),
            min_dests,
            max_dests,
            seed,
        };
        let Ok(workload) = MulticastTraffic::new(placement.clone(), config.clone()) else {
            return Ok(());
        };
        let per_cycle = (config.rate_per_cache * placement.caches().len() as f64).ceil();
        let (caches, cores) = (placement.caches(), placement.cores());
        run_bounded(workload, per_cycle, |m| {
            let Destination::Multicast(set) = m.dest else { return false };
            caches.contains(&m.src) && !set.is_empty() && set.iter().all(|d| cores.contains(&d))
        })?;
    }
}
