//! Builds simulatable networks and physical design specs from a
//! [`SystemConfig`].

use crate::arch::{Architecture, SystemConfig};
use rfnoc_power::{DesignSpec, RouterConfig};
use rfnoc_sim::{McConfig, MulticastMode, NetworkSpec, RoutingKind, VctConfig};
use rfnoc_topology::select::{
    application_specific_selection, max_cost_selection, Selection, SelectionConstraints,
};
use rfnoc_topology::{GridGraph, NodeId, PairWeights, Shortcut};
use rfnoc_traffic::{staggered_rf_routers, Placement};

/// Cycles between coarse-grain multicast-channel arbitration decisions.
///
/// A cluster owns the broadcast band for a whole epoch ("only one of our
/// four cache bank clusters is selected as the sender of multicasts for
/// some fixed amount of time", §3.3). One multicast occupies the band for
/// ~4–9 flit cycles, so a 24-cycle epoch still amortises arbitration over
/// several messages while keeping the worst-case wait for a non-owning
/// cluster well below the mesh traversal it replaces.
pub const DEFAULT_MC_EPOCH: u64 = 24;

/// Latency of a buffered RC wire shortcut in network cycles per mesh hop:
/// a repeated wire crosses the 400 mm² die in ≈4 ns (§2) — 8 cycles at
/// 2 GHz over ~18 hops ≈ 0.45, rounded up for driver overhead.
pub const WIRE_SHORTCUT_CYCLES_PER_HOP: f64 = 0.5;

/// A fully elaborated system, ready to simulate and to cost.
#[derive(Debug, Clone)]
pub struct BuiltSystem {
    /// The simulator specification.
    pub network: NetworkSpec,
    /// The physical design for the power/area models.
    pub design: DesignSpec,
    /// The selected shortcut set (empty for non-shortcut designs).
    pub shortcuts: Vec<Shortcut>,
    /// RF-enabled routers (access points) of the design.
    pub rf_enabled: Vec<NodeId>,
}

/// Number of directed base-fabric links (each undirected link counts
/// twice). On a W×H mesh this is `2·((W−1)·H + (H−1)·W)`; a ring-mesh
/// additionally carries its ring wrap edges and gateway chains.
fn directed_mesh_links(placement: &Placement) -> usize {
    let fabric = placement.fabric();
    (0..fabric.nodes()).map(|r| fabric.degree(r)).sum()
}

/// Selects the architecture-specific (design-time) shortcut set: uniform
/// weights, max-cost heuristic (Figure 3b), corners excluded (§3.2.1).
pub fn static_shortcuts(placement: &Placement, budget: usize) -> Vec<Shortcut> {
    static_selection(placement, budget).shortcuts
}

fn static_selection(placement: &Placement, budget: usize) -> Selection {
    let graph = GridGraph::from_fabric(&placement.fabric(), &[]);
    let n = graph.node_count();
    let weights = PairWeights::uniform(n);
    let constraints =
        SelectionConstraints::allowing_all(n, budget).excluding_corners(&graph);
    max_cost_selection(&graph, &weights, &constraints)
}

/// Selects application-specific shortcuts over the RF-enabled router set
/// using a communication-frequency profile (§3.2.2).
pub fn adaptive_shortcuts(
    placement: &Placement,
    rf_enabled: &[NodeId],
    profile: &PairWeights,
    budget: usize,
) -> Vec<Shortcut> {
    adaptive_selection(placement, rf_enabled, profile, budget).shortcuts
}

fn adaptive_selection(
    placement: &Placement,
    rf_enabled: &[NodeId],
    profile: &PairWeights,
    budget: usize,
) -> Selection {
    let graph = GridGraph::from_fabric(&placement.fabric(), &[]);
    let n = graph.node_count();
    let constraints = SelectionConstraints::for_enabled(n, budget, rf_enabled)
        .excluding_corners(&graph);
    application_specific_selection(&graph, profile, &constraints)
}

/// The part of a built system that costs something to compute and that
/// every system of the same design shares: the selected shortcut set.
/// Empty for the architectures that select no shortcuts.
#[derive(Debug, Clone, Default)]
pub struct SharedDesign {
    /// The selected shortcuts of a selecting architecture, whose networks
    /// route by shortest paths even if the selection came back empty.
    selection: Option<Vec<Shortcut>>,
}

impl SharedDesign {
    /// Runs the shortcut selection of `system`'s architecture over
    /// `placement` — everything [`build_system`] does that is worth doing
    /// once per design.
    ///
    /// # Panics
    ///
    /// Panics if an adaptive architecture is given no profile.
    pub fn select(
        system: &SystemConfig,
        placement: &Placement,
        profile: Option<&PairWeights>,
    ) -> Self {
        let adaptive = |access_points: usize, budget: usize| {
            let profile = profile.expect("adaptive architectures require a traffic profile");
            let rf_enabled = staggered_rf_routers(placement.dims(), access_points);
            adaptive_selection(placement, &rf_enabled, profile, budget)
        };
        let selection = match system.arch {
            Architecture::Baseline
            | Architecture::VctMulticast
            | Architecture::RfMulticast { .. } => return Self::default(),
            Architecture::StaticShortcuts | Architecture::WireShortcuts => {
                static_selection(placement, system.shortcut_budget)
            }
            Architecture::AdaptiveShortcuts { access_points } => {
                adaptive(access_points, system.shortcut_budget)
            }
            Architecture::AdaptiveWithMulticast { access_points, shortcut_budget } => {
                adaptive(access_points, shortcut_budget)
            }
        };
        Self { selection: Some(selection.shortcuts) }
    }

    /// The selected shortcuts (none for a design without an RF overlay).
    pub fn shortcuts(&self) -> &[Shortcut] {
        self.selection.as_deref().unwrap_or_default()
    }
}

/// Per-router port configurations given the shortcut endpoints and the
/// (tunable) access-point set.
fn router_configs(
    placement: &Placement,
    shortcuts: &[Shortcut],
    tunable_aps: &[NodeId],
    extra_tx: &[NodeId],
) -> Vec<RouterConfig> {
    let n = placement.dims().nodes();
    let mut has_tx = vec![false; n];
    let mut has_rx = vec![false; n];
    for s in shortcuts {
        has_tx[s.src] = true;
        has_rx[s.dst] = true;
    }
    for &ap in tunable_aps {
        has_tx[ap] = true;
        has_rx[ap] = true;
    }
    for &t in extra_tx {
        has_tx[t] = true;
    }
    (0..n)
        .map(|r| match (has_rx[r], has_tx[r]) {
            (true, true) => RouterConfig::rf_both(),
            (false, true) => RouterConfig::rf_tx(),
            (true, false) => RouterConfig::rf_rx(),
            (false, false) => RouterConfig::standard(),
        })
        .collect()
}

/// RF multicast configuration: cluster-central cache banks transmit; the
/// given receivers are tuned to the broadcast band.
fn mc_config(placement: &Placement, receivers: Vec<NodeId>) -> McConfig {
    let serving = McConfig::serving_map(placement.dims(), &receivers);
    McConfig {
        transmitters: placement.cluster_centers().to_vec(),
        cluster_of: placement.cluster_map().to_vec(),
        receivers,
        serving,
        epoch_cycles: DEFAULT_MC_EPOCH,
        rf_flit_bytes: 16,
    }
}

/// Elaborates `system` over `placement`.
///
/// Adaptive architectures need a communication-frequency `profile`
/// (see [`crate::WorkloadSpec::profile`]).
///
/// # Panics
///
/// Panics if an adaptive architecture is built without a profile.
pub fn build_system(
    system: &SystemConfig,
    placement: &Placement,
    profile: Option<&PairWeights>,
) -> BuiltSystem {
    elaborate(system, placement, &SharedDesign::select(system, placement, profile))
}

/// Elaborates `system` over `placement` around a design `shared` with
/// other systems: one selected for exactly this architecture, shortcut
/// budget and placement (and, for the adaptive architectures, this
/// workload's profile) — by [`SharedDesign::select`] on the same arguments,
/// or on those of another system that differs in nothing the selection
/// reads.
pub fn elaborate(
    system: &SystemConfig,
    placement: &Placement,
    shared: &SharedDesign,
) -> BuiltSystem {
    let dims = placement.dims();
    let mesh_links = directed_mesh_links(placement);
    let width = system.link_width;
    let sim = system.sim.clone().with_link_width(width);
    let clock = 2.0e9;

    let shortcuts = shared.shortcuts().to_vec();
    let mut network = NetworkSpec::with_fabric(placement.fabric(), sim, shortcuts.clone());
    if shared.selection.is_some() {
        network.routing = RoutingKind::ShortestPath;
    }
    let mut rf_enabled: Vec<NodeId> = Vec::new();
    let mut design = DesignSpec::mesh_baseline(dims.nodes(), mesh_links, width);

    match &system.arch {
        Architecture::Baseline => {}
        Architecture::StaticShortcuts => {
            rf_enabled = shortcut_endpoints(&shortcuts);
            design.routers = router_configs(placement, &shortcuts, &[], &[]);
            design.rf_provisioned_gbps =
                rfnoc_power::static_provision_gbps(shortcuts.len(), 16, clock);
        }
        Architecture::WireShortcuts => {
            rf_enabled = shortcut_endpoints(&shortcuts);
            network.wire_shortcut_cycles_per_hop = Some(WIRE_SHORTCUT_CYCLES_PER_HOP);
            design.routers = router_configs(placement, &shortcuts, &[], &[]);
            // Wire shortcuts add repeated-wire area/leakage proportional to
            // the base-route length they replace (counted as extra directed
            // links).
            let fabric = placement.fabric();
            let wire_hops: usize = shortcuts
                .iter()
                .map(|s| fabric.base_route_len(s.src, s.dst) as usize)
                .sum();
            design.mesh_links += wire_hops;
        }
        Architecture::AdaptiveShortcuts { access_points } => {
            rf_enabled = staggered_rf_routers(dims, *access_points);
            design.routers = router_configs(placement, &[], &rf_enabled, &[]);
            design.rf_provisioned_gbps =
                rfnoc_power::adaptive_provision_gbps(*access_points, 16, clock);
        }
        Architecture::VctMulticast => {
            network.multicast = MulticastMode::Vct(VctConfig::default());
            design.vct_tables = true;
        }
        Architecture::RfMulticast { access_points } => {
            rf_enabled = staggered_rf_routers(dims, *access_points);
            let extra_tx: Vec<NodeId> = placement
                .cluster_centers()
                .iter()
                .copied()
                .filter(|t| !rf_enabled.contains(t))
                .collect();
            network.multicast = MulticastMode::Rf;
            network.mc = Some(mc_config(placement, rf_enabled.clone()));
            design.routers = router_configs(placement, &[], &rf_enabled, &extra_tx);
            design.rf_provisioned_gbps =
                rfnoc_power::adaptive_provision_gbps(*access_points, 16, clock)
                    + rfnoc_power::static_provision_gbps(extra_tx.len(), 16, clock);
        }
        Architecture::AdaptiveWithMulticast { access_points, .. } => {
            rf_enabled = staggered_rf_routers(dims, *access_points);
            // Receivers not consumed by shortcuts tune to the multicast
            // band (§3.3: "the remaining 35 Rx's are tuned to the multicast
            // channel").
            let shortcut_rx: Vec<NodeId> = shortcuts.iter().map(|s| s.dst).collect();
            let receivers: Vec<NodeId> = rf_enabled
                .iter()
                .copied()
                .filter(|r| !shortcut_rx.contains(r))
                .collect();
            let extra_tx: Vec<NodeId> = placement
                .cluster_centers()
                .iter()
                .copied()
                .filter(|t| !rf_enabled.contains(t))
                .collect();
            network.multicast = MulticastMode::Rf;
            network.mc = Some(mc_config(placement, receivers));
            design.routers = router_configs(placement, &[], &rf_enabled, &extra_tx);
            design.rf_provisioned_gbps =
                rfnoc_power::adaptive_provision_gbps(*access_points, 16, clock)
                    + rfnoc_power::static_provision_gbps(extra_tx.len(), 16, clock);
        }
    }

    BuiltSystem { network, design, shortcuts, rf_enabled }
}

fn shortcut_endpoints(shortcuts: &[Shortcut]) -> Vec<NodeId> {
    let mut endpoints: Vec<NodeId> =
        shortcuts.iter().flat_map(|s| [s.src, s.dst]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use rfnoc_power::LinkWidth;
    use rfnoc_traffic::{TraceKind, TrafficConfig};

    fn placement() -> Placement {
        Placement::paper_10x10()
    }

    #[test]
    fn baseline_build() {
        let sys = SystemConfig::new(Architecture::Baseline, LinkWidth::B16);
        let built = build_system(&sys, &placement(), None);
        assert!(built.shortcuts.is_empty());
        assert_eq!(built.design.mesh_links, 360);
        assert!(built
            .design
            .routers
            .iter()
            .all(|c| *c == RouterConfig::standard()));
    }

    #[test]
    fn static_build_has_16_shortcuts_and_ports() {
        let sys = SystemConfig::new(Architecture::StaticShortcuts, LinkWidth::B16);
        let built = build_system(&sys, &placement(), None);
        assert_eq!(built.shortcuts.len(), 16);
        let six_port = built
            .design
            .routers
            .iter()
            .filter(|c| **c != RouterConfig::standard())
            .count();
        // 16 Tx + 16 Rx endpoints, all distinct under the port constraints
        // unless a router is both a source and a destination.
        assert!((17..=32).contains(&six_port), "six-port routers: {six_port}");
        assert!((built.design.rf_provisioned_gbps - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_build_respects_access_points() {
        let p = placement();
        let spec = WorkloadSpec::Trace(TraceKind::Hotspot1);
        let profile = spec.profile(&p, &TrafficConfig::default(), 2_000);
        let sys = SystemConfig::new(
            Architecture::AdaptiveShortcuts { access_points: 50 },
            LinkWidth::B4,
        );
        let built = build_system(&sys, &p, Some(&profile));
        assert_eq!(built.rf_enabled.len(), 50);
        assert_eq!(built.shortcuts.len(), 16);
        for s in &built.shortcuts {
            assert!(built.rf_enabled.contains(&s.src));
            assert!(built.rf_enabled.contains(&s.dst));
        }
        let both = built
            .design
            .routers
            .iter()
            .filter(|c| **c == RouterConfig::rf_both())
            .count();
        assert_eq!(both, 50);
        assert!((built.design.rf_provisioned_gbps - 12_800.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "require a traffic profile")]
    fn adaptive_without_profile_panics() {
        let sys = SystemConfig::new(
            Architecture::AdaptiveShortcuts { access_points: 50 },
            LinkWidth::B16,
        );
        build_system(&sys, &placement(), None);
    }

    #[test]
    fn mc_plus_sc_splits_receivers() {
        let p = placement();
        let spec = WorkloadSpec::Trace(TraceKind::Uniform);
        let profile = spec.profile(&p, &TrafficConfig::default(), 1_000);
        let sys = SystemConfig::new(
            Architecture::AdaptiveWithMulticast { access_points: 50, shortcut_budget: 15 },
            LinkWidth::B4,
        );
        let built = build_system(&sys, &p, Some(&profile));
        assert_eq!(built.shortcuts.len(), 15);
        let mc = built.network.mc.as_ref().expect("MC config present");
        assert_eq!(mc.receivers.len(), 35, "50 APs minus 15 shortcut Rx");
        assert_eq!(mc.transmitters.len(), 4);
        for s in &built.shortcuts {
            assert!(!mc.receivers.contains(&s.dst), "shortcut Rx not on MC band");
        }
    }

    #[test]
    fn wire_shortcuts_charge_wire_links() {
        let sys = SystemConfig::new(Architecture::WireShortcuts, LinkWidth::B16);
        let built = build_system(&sys, &placement(), None);
        assert!(built.network.wire_shortcut_cycles_per_hop.is_some());
        assert!(built.design.mesh_links > 360, "wire shortcuts add repeater links");
        assert_eq!(built.design.rf_provisioned_gbps, 0.0);
    }

    #[test]
    fn vct_build_sets_tables() {
        let sys = SystemConfig::new(Architecture::VctMulticast, LinkWidth::B16);
        let built = build_system(&sys, &placement(), None);
        assert!(built.design.vct_tables);
        assert!(matches!(built.network.multicast, MulticastMode::Vct(_)));
    }

    #[test]
    fn rf_mc_transmitters_have_tx_ports() {
        let p = placement();
        let sys =
            SystemConfig::new(Architecture::RfMulticast { access_points: 50 }, LinkWidth::B16);
        let built = build_system(&sys, &p, None);
        for &t in p.cluster_centers() {
            let cfg = built.design.routers[t];
            assert!(cfg.out_ports == 6, "transmitter {t} needs an RF Tx port");
        }
    }
}
