//! Network construction: wiring routers, links, and the RF-I overlay.

#[allow(clippy::wildcard_imports)]
use super::*;

impl Network {

    /// Builds a network from its specification.
    ///
    /// # Panics
    ///
    /// Panics if the specification is inconsistent: invalid config,
    /// degenerate fabric, more than one inbound or outbound shortcut per
    /// router (or a self-loop), shortcuts present in XY mode, an invalid
    /// fault plan, or a missing/invalid multicast configuration. Prefer
    /// [`Network::try_new`] where a structured error is wanted.
    pub fn new(spec: NetworkSpec) -> Self {
        Self::try_new(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a network from its specification, rejecting inconsistent
    /// specs instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for a degenerate config or fabric, an illegal
    /// shortcut set (out-of-range endpoint, self-loop, or more than one
    /// inbound or outbound shortcut per router), shortcuts on an XY-routed
    /// network, a fault plan [`FaultPlan::validate`] refuses, RF
    /// multicast without an [`McConfig`] or with an inconsistent one, RF
    /// broadcast multicast on a non-mesh fabric (the broadcast medium spans
    /// the mesh only), VCT or RF multicast on more routers than a
    /// [`DestSet`] holds, or a fabric with more ports per router than the
    /// engine supports.
    ///
    /// A shortest-path network routes from a [`DistanceOracle`] over the
    /// fabric and its shortcuts, so it holds no table of router pairs.
    pub fn try_new(spec: NetworkSpec) -> Result<Self, SimError> {
        spec.config.validate()?;
        let fabric = spec.fabric;
        fabric.validate()?;
        let dims = fabric.dims();
        let n = dims.nodes();
        let vcs = spec.config.total_vcs();
        let max_base = fabric.max_base_slots();
        let max_ports = max_base + 2;
        check_port_count(max_ports)?;
        let base_ports: Vec<u8> = (0..n).map(|r| fabric.base_slot_count(r) as u8).collect();

        if spec.routing == RoutingKind::Xy && !spec.shortcuts.is_empty() {
            return Err(SimError::ShortcutsOnXy);
        }
        check_shortcut_set(&spec.shortcuts, n)?;
        if !spec.shortcuts.is_empty() && spec.config.vcs_adaptive == 0 {
            // Escape VCs never ride RF, so a shortcut-bearing network needs
            // at least one adaptive VC (vcs_escape < total_vcs).
            return Err(SimError::Config(ConfigError::NoAdaptiveVcs));
        }
        spec.faults.validate(&fabric)?;
        if !matches!(spec.multicast, MulticastMode::AsUnicasts) && n > DestSet::CAPACITY {
            return Err(SimError::MulticastBeyondDestSet { routers: n });
        }
        if matches!(spec.multicast, MulticastMode::Rf) {
            spec.mc.as_ref().ok_or(SimError::MissingMcConfig)?.validate(n)?;
            if !fabric.is_mesh() {
                return Err(SimError::RfMulticastNeedsMesh);
            }
        }
        let mut rf_out: Vec<Option<NodeId>> = vec![None; n];
        let mut rf_in: Vec<Option<NodeId>> = vec![None; n];
        for s in &spec.shortcuts {
            rf_out[s.src] = Some(s.dst);
            rf_in[s.dst] = Some(s.src);
        }

        let routes = (spec.routing == RoutingKind::ShortestPath).then(|| Routes {
            oracle: DistanceOracle::new(&fabric, &spec.shortcuts),
            detour: None,
        });

        // Wire up routers, sized to each router's own degree.
        let mut routers = Vec::with_capacity(n);
        for r in 0..n {
            let base = base_ports[r] as usize;
            let mut router =
                Router::new(base + 2, vcs, spec.config.vcs_escape, spec.config.buffer_depth);
            for slot in 0..base {
                if let Some(nb) = fabric.port_neighbor(r, slot as u8) {
                    let back = fabric
                        .port_between(nb, r)
                        .expect("base fabric links are bidirectional");
                    router.connect_input(slot, Some((nb, back)));
                    router.connect_output(
                        slot,
                        OutLink { target: Some((nb, back)), capacity: 1, ..OutLink::default() },
                    );
                }
            }
            // Local port: injection in, ejection out.
            router.connect_input(base, None);
            router.connect_output(
                base,
                OutLink { capacity: spec.config.local_port_speedup, ..OutLink::default() },
            );
            // RF port.
            if let Some(dst) = rf_out[r] {
                let hops = fabric.base_route_len(r, dst);
                let mut link = OutLink {
                    target: Some((dst, base_ports[dst] + 1)),
                    capacity: spec.config.rf_flits_per_cycle(),
                    shortcut_hops: hops,
                    ..OutLink::default()
                };
                if let Some(cph) = spec.wire_shortcut_cycles_per_hop {
                    // Conventional buffered wire: multi-cycle traversal,
                    // same width as the mesh links it replaces.
                    link.capacity = 1;
                    link.is_wire = true;
                    link.extra_latency = ((cph * hops as f64).ceil() as u32).saturating_sub(1);
                }
                router.connect_output(base + 1, link);
            }
            if let Some(src) = rf_in[r] {
                router.connect_input(base + 1, Some((src, base_ports[src] + 1)));
            }
            routers.push(router);
        }

        let (mc_queues, vct_table) = match &spec.multicast {
            MulticastMode::Rf => {
                let mc = spec.mc.as_ref().expect("checked above");
                (vec![VecDeque::new(); mc.transmitters.len()], None)
            }
            MulticastMode::Vct(cfg) => (Vec::new(), Some(VctTable::new(*cfg))),
            MulticastMode::AsUnicasts => (Vec::new(), None),
        };

        let max_dist = fabric.max_route_len().max(1) as usize;
        let mut stats = RunStats::with_ports(n, max_dist, max_ports);
        if spec.config.collect_pair_counts {
            stats.pair_counts = vec![0; n * n];
        }
        // The sweep's shards: VCT multicast allocates tree-child packets
        // mid-sweep, which needs exclusive packet-table access, so it runs
        // on one shard.
        let threads = match spec.multicast {
            MulticastMode::Vct(_) => 1,
            _ => spec.config.threads,
        };
        let shard_ranges = sweep::shard_ranges(n, threads);
        let shards = shard_ranges.len();
        let pool = (shards > 1).then(|| rfnoc_parallel::WorkerPool::new(shards));
        // Per-shard sweep timing is only worth the clock reads when the run
        // ledger will consume it, and only a sweep over several shards
        // reports it.
        let time_sweeps = spec.config.ledger.is_some() && shards > 1;
        let shard_bufs = (0..shards)
            .map(|_| sweep::ShardBuf { timed: time_sweeps, ..Default::default() })
            .collect();
        Ok(Self {
            dims,
            fabric,
            base_routes: BaseRoutes::of(&fabric),
            base_ports,
            max_ports,
            routes,
            routers,
            packets: PacketTable::default(),
            parents: Vec::new(),
            multicast: spec.multicast,
            mc: spec.mc,
            mc_queues,
            mc_current: None,
            vct_table,
            stats,
            cycle: 0,
            measured_outstanding: 0,
            counting: false,
            mc_enqueues: Vec::new(),
            pending_inj: Vec::new(),
            shard_ranges,
            shard_bufs,
            pool,
            telemetry: spec
                .config
                .telemetry
                .map(|t| Box::new(telemetry::TelemetryState::new(t, n, max_ports))),
            recovery: spec.config.recovery.map(|r| Box::new(faults::RecoveryState::new(r))),
            ledger: spec
                .config
                .ledger
                .map(|c| Box::new(ledger::LedgerState::new(c, shards))),
            reconfig: ReconfigState::Idle,
            reconfigurations: 0,
            active_shortcuts: spec.shortcuts,
            pending_target: None,
            failed_rf_tx: vec![false; n],
            link_failed: vec![false; n * max_base],
            mesh_link_failures: 0,
            escape: None,
            faults: spec.faults,
            last_progress: 0,
            last_completion: 0,
            active_epoch: 1,
            active_stamp: vec![0; n],
            config: spec.config,
        })
    }
}

/// Rejects a fabric whose widest router has more ports than the engine's
/// per-router port masks and scratch arrays hold.
fn check_port_count(max_ports: usize) -> Result<(), ConfigError> {
    if max_ports > MAX_ROUTER_PORTS {
        return Err(ConfigError::ShapeTooLarge {
            parameter: "ports per router",
            value: max_ports,
            limit: MAX_ROUTER_PORTS,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_topology::select::{max_cost_selection, SelectionConstraints};
    use rfnoc_topology::{GridGraph, PairWeights};

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
        let mut h = rfnoc_topology::Fnv::new();
        h.bytes(bytes);
        rfnoc_pins::hex(h.finish())
    }

    /// `(bare|selected).<fabric>`: FNV-1a of the port table and of the
    /// distances (each a little-endian `u32`) that the oracle of a
    /// shortest-path network over `fabric` gives every ordered pair, and of
    /// the network's base-route out port for every ordered pair (its local
    /// slot on the diagonal). With `select`, the network carries the
    /// uniform max-cost set of budget 16 (corners excluded, as
    /// `build_system` selects it).
    fn table_hashes((fabric, select): (FabricSpec, bool)) -> (String, String) {
        let mut spec = NetworkSpec::with_fabric(fabric, SimConfig::paper_baseline(), Vec::new());
        spec.routing = RoutingKind::ShortestPath;
        if select {
            let graph = GridGraph::from_fabric(&fabric, &[]);
            let n = graph.node_count();
            let constraints =
                SelectionConstraints::allowing_all(n, 16).excluding_corners(&graph);
            spec.shortcuts =
                max_cost_selection(&graph, &PairWeights::uniform(n), &constraints).shortcuts;
        }
        let net = Network::new(spec);
        let oracle = &net.routes.as_ref().expect("a shortest-path network routes").oracle;
        let n = fabric.nodes();
        let pairs = || (0..n).flat_map(|r| (0..n).map(move |d| (r, d)));
        let hashes = [
            fnv1a(pairs().map(|(r, d)| oracle.route_port(r, d))),
            fnv1a(pairs().flat_map(|(r, d)| oracle.distance(r, d).to_le_bytes())),
            fnv1a(pairs().map(|(r, d)| {
                if r == d { net.local_port(r) as u8 } else { net.base_routes.port(r, d) }
            })),
        ];
        let key = format!("{}.{fabric}", if select { "selected" } else { "bare" });
        (key, hashes.join(" "))
    }

    #[test]
    fn too_many_ports_per_router_is_a_config_error() {
        assert_eq!(check_port_count(MAX_ROUTER_PORTS), Ok(()));
        assert_eq!(
            check_port_count(MAX_ROUTER_PORTS + 1),
            Err(ConfigError::ShapeTooLarge {
                parameter: "ports per router",
                value: MAX_ROUTER_PORTS + 1,
                limit: MAX_ROUTER_PORTS,
            })
        );
    }

    /// The port and distance pins were computed on the dense tables a
    /// shortest-path network held before it routed from the oracle (and,
    /// before those, on the two-step build: next-hop table, then per-pair
    /// slot search; per-pair `base_port` loop). The base-route pins were
    /// computed on the ring-mesh's dense base-port table and the mesh's
    /// XY comparison of grid coordinates, before both became one closed
    /// form over the fabric's spots. They are in
    /// `tests/pins/routing_tables.txt`, `[ports, distances, base route]`.
    #[test]
    fn routing_tables_hash_to_their_pins() {
        let mesh = |side| FabricSpec::mesh(GridDims::new(side, side));
        let ring = |side| FabricSpec::ring_mesh(GridDims::new(side, side), 4);
        let rect = |w, h, tile| FabricSpec::ring_mesh(GridDims::new(w, h), tile);
        let fabrics = [mesh(16), ring(16), mesh(32), ring(32), rect(12, 8, 4)];
        let mut cases: Vec<_> = fabrics.iter().flat_map(|&f| [(f, false), (f, true)]).collect();
        cases.extend([(rect(9, 6, 3), false), (rect(6, 4, 2), false)]);
        let got: Vec<_> = cases.into_iter().map(table_hashes).collect();
        rfnoc_pins::check_file(env!("CARGO_MANIFEST_DIR"), "routing_tables", &got);
    }

    /// 65,535 routers build, with every coordinate intact; one more, on
    /// any shape, is a typed error before anything is allocated.
    #[test]
    fn router_count_is_bounded() {
        // The smallest router there is: what is tested is the grid.
        let config = SimConfig {
            vcs_adaptive: 0,
            vcs_escape: 1,
            buffer_depth: 1,
            ..SimConfig::paper_baseline()
        };
        let spec = |w, h| NetworkSpec::mesh_baseline(GridDims::new(w, h), config.clone());
        let net = Network::try_new(spec(255, 257)).expect("65,535 routers build");
        // The last router, at (254, 256), routes west first to the first.
        assert_eq!(net.base_routes.hops(65_534, 0), 254 + 256);
        assert_eq!(net.base_routes.port(65_534, 0), rfnoc_topology::fabric::SLOT_W);
        drop(net);
        for (w, h) in [(256, 256), (70_000, 2)] {
            assert_eq!(
                Network::try_new(spec(w, h)).map(|_| "a network"),
                Err(SimError::Fabric(rfnoc_topology::TopologyError::TooManyRouters {
                    routers: w * h,
                    limit: 65_535,
                })),
                "{w}x{h}"
            );
        }
    }

    /// VCT and RF multicast address their destinations with a `DestSet`:
    /// on more routers than it holds they are a typed error, while
    /// expanding multicasts into unicasts builds at any size.
    #[test]
    fn multicast_beyond_the_dest_set_is_refused() {
        let spec = |w, h, multicast| NetworkSpec {
            multicast,
            ..NetworkSpec::mesh_baseline(GridDims::new(w, h), SimConfig::paper_baseline())
        };
        let vct = MulticastMode::Vct(VctConfig::default());
        assert!(Network::try_new(spec(8, 16, vct.clone())).is_ok(), "128 routers fit");
        for mode in [vct, MulticastMode::Rf] {
            assert_eq!(
                Network::try_new(spec(12, 12, mode)).map(|_| "a network"),
                Err(SimError::MulticastBeyondDestSet { routers: 144 }),
            );
        }
        assert!(Network::try_new(spec(12, 12, MulticastMode::AsUnicasts)).is_ok());
    }
}
