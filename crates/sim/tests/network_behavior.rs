//! End-to-end behavioural tests of the NoC simulator.

use rfnoc_power::LinkWidth;
use rfnoc_sim::{
    DestSet, McConfig, MessageClass, MessageSpec, MulticastMode, Network, NetworkSpec,
    ReconfigError, RoutingKind, ScriptedWorkload, SimConfig, SimError, VctConfig, Workload,
};
use rfnoc_topology::{GridDims, Shortcut};

fn quick_config() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1_000;
    cfg.drain_cycles = 20_000;
    cfg
}

fn run_scripted(spec: NetworkSpec, events: Vec<(u64, MessageSpec)>) -> rfnoc_sim::RunStats {
    let mut network = Network::new(spec);
    let mut workload = ScriptedWorkload::new(events);
    network.run(&mut workload)
}

#[test]
fn single_message_crosses_mesh() {
    let dims = GridDims::new(4, 4);
    let spec = NetworkSpec::mesh_baseline(dims, quick_config());
    let stats = run_scripted(spec, vec![(0, MessageSpec::unicast(0, 15, MessageClass::Data))]);
    assert_eq!(stats.injected_messages, 1);
    assert_eq!(stats.completed_messages, 1);
    assert!(!stats.saturated);
    // 6 hops × 5-cycle head pipeline + ejection + serialization of 3 flits:
    // zero-load latency must land in a tight band around 38 cycles.
    let lat = stats.avg_message_latency();
    assert!((30.0..=45.0).contains(&lat), "unexpected zero-load latency {lat}");
    // 3 flits ejected; 39 payload bytes traverse 7 routers (6 hops +
    // destination).
    assert_eq!(stats.ejected_flits, 3);
    assert_eq!(stats.activity.total_router_bytes(), 39 * 7);
    // 39 bytes cross 6 links (ejection is not a link).
    assert_eq!(stats.activity.link_byte_hops, 39 * 6);
    assert_eq!(stats.activity.rf_bytes, 0);
}

#[test]
fn adjacent_message_is_fast() {
    let dims = GridDims::new(4, 4);
    let spec = NetworkSpec::mesh_baseline(dims, quick_config());
    let stats = run_scripted(spec, vec![(0, MessageSpec::unicast(0, 1, MessageClass::Request))]);
    assert_eq!(stats.completed_messages, 1);
    let lat = stats.avg_message_latency();
    assert!(lat <= 16.0, "one-hop request latency {lat}");
}

#[test]
fn narrower_links_serialize_more_flits() {
    let dims = GridDims::new(4, 4);
    let lat_at = |width: LinkWidth| {
        let cfg = quick_config().with_link_width(width);
        let spec = NetworkSpec::mesh_baseline(dims, cfg);
        let stats =
            run_scripted(spec, vec![(0, MessageSpec::unicast(0, 15, MessageClass::Memory))]);
        assert_eq!(stats.completed_messages, 1);
        stats.avg_message_latency()
    };
    let l16 = lat_at(LinkWidth::B16);
    let l8 = lat_at(LinkWidth::B8);
    let l4 = lat_at(LinkWidth::B4);
    // 132B = 9/17/33 flits: zero-load latency grows by the extra
    // serialization cycles.
    assert!(l8 > l16 + 5.0, "8B {l8} vs 16B {l16}");
    assert!(l4 > l8 + 10.0, "4B {l4} vs 8B {l8}");
}

#[test]
fn shortcut_cuts_cross_chip_latency() {
    let dims = GridDims::new(10, 10);
    let base = NetworkSpec::mesh_baseline(dims, quick_config());
    let base_stats =
        run_scripted(base, vec![(0, MessageSpec::unicast(0, 99, MessageClass::Data))]);
    let rf = NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 99)]);
    let rf_stats = run_scripted(rf, vec![(0, MessageSpec::unicast(0, 99, MessageClass::Data))]);
    assert_eq!(base_stats.completed_messages, 1);
    assert_eq!(rf_stats.completed_messages, 1);
    let b = base_stats.avg_message_latency();
    let r = rf_stats.avg_message_latency();
    // 18 hops collapse to a single-cycle RF hop.
    assert!(r < b / 3.0, "shortcut latency {r} vs baseline {b}");
    assert_eq!(rf_stats.activity.rf_bytes, 39, "all payload bytes cross the shortcut");
    assert_eq!(rf_stats.activity.link_byte_hops, 0, "no mesh hops on the direct shortcut");
}

#[test]
fn shortcut_attracts_nearby_traffic() {
    let dims = GridDims::new(10, 10);
    let spec = NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(11, 88)]);
    // 1 -> 88: shortest path goes through the shortcut at 11.
    let stats = run_scripted(spec, vec![(0, MessageSpec::unicast(1, 88, MessageClass::Data))]);
    assert_eq!(stats.completed_messages, 1);
    assert_eq!(stats.activity.rf_bytes, 39);
    // 1 hop to 11, RF to 88: 39 bytes cross one mesh link.
    assert_eq!(stats.activity.link_byte_hops, 39);
}

#[test]
fn wormhole_stream_on_shared_path_completes() {
    let dims = GridDims::new(4, 4);
    // 30 back-to-back data messages all crossing the same row.
    let events: Vec<(u64, MessageSpec)> = (0..30)
        .map(|i| (i as u64, MessageSpec::unicast(0, 3, MessageClass::Data)))
        .collect();
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), events);
    assert_eq!(stats.completed_messages, 30);
    assert!(!stats.saturated);
    // Bandwidth bound: 3 flits per message over one link, 1 flit/cycle.
    assert!(stats.avg_message_latency() >= 30.0);
}

#[test]
fn multicast_as_unicasts_completes_once() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([5, 10, 15]);
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, quick_config()),
        vec![(0, MessageSpec::multicast(0, dests))],
    );
    assert_eq!(stats.injected_messages, 1);
    assert_eq!(stats.completed_messages, 1, "multicast counts once");
    // three unicast legs of 3 flits each
    assert_eq!(stats.ejected_flits, 9);
}

#[test]
fn multicast_including_source_is_handled() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([0, 15]);
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, quick_config()),
        vec![(0, MessageSpec::multicast(0, dests))],
    );
    assert_eq!(stats.completed_messages, 1);
}

fn vct_spec(dims: GridDims) -> NetworkSpec {
    let mut spec = NetworkSpec::mesh_baseline(dims, quick_config());
    spec.multicast = MulticastMode::Vct(VctConfig::default());
    spec
}

#[test]
fn vct_multicast_completes_and_saves_link_traversals() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([12, 13, 14, 15]); // bottom row
    let unicast_stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, quick_config()),
        vec![(0, MessageSpec::multicast(0, dests))],
    );
    let vct_stats = run_scripted(vct_spec(dims), vec![(0, MessageSpec::multicast(0, dests))]);
    assert_eq!(vct_stats.completed_messages, 1);
    // The tree shares the column 0 path; unicast expansion retransmits it.
    assert!(
        vct_stats.activity.link_byte_hops < unicast_stats.activity.link_byte_hops,
        "VCT {} vs unicasts {}",
        vct_stats.activity.link_byte_hops,
        unicast_stats.activity.link_byte_hops
    );
}

#[test]
fn vct_tree_reuse_skips_setup() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([15]);
    // Two identical multicasts: the second reuses the tree and finishes
    // sooner after its creation.
    let stats = run_scripted(
        vct_spec(dims),
        vec![
            (0, MessageSpec::multicast(0, dests)),
            (200, MessageSpec::multicast(0, dests)),
        ],
    );
    assert_eq!(stats.completed_messages, 2);
    // total latency = (setup + t) + t  =>  average below setup + t
    let setup = VctConfig::default().setup_latency as f64;
    let avg = stats.avg_message_latency();
    assert!(avg < setup + 45.0, "avg {avg} suggests both paid setup");
}

fn rf_mc_spec(dims: GridDims) -> NetworkSpec {
    let receivers: Vec<usize> = (0..dims.nodes()).filter(|i| i % 2 == 0).collect();
    let serving = McConfig::serving_map(dims, &receivers);
    let mut cluster_of = vec![None; dims.nodes()];
    cluster_of[5] = Some(0); // cache bank + transmitter
    cluster_of[6] = Some(0); // another cache in the cluster
    let mc = McConfig {
        transmitters: vec![5],
        cluster_of,
        receivers,
        serving,
        epoch_cycles: 1_000,
        rf_flit_bytes: 16,
    };
    let mut spec = NetworkSpec::mesh_baseline(dims, quick_config());
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    spec
}

#[test]
fn rf_multicast_from_transmitter_completes() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([0, 3, 12, 15]);
    let stats = run_scripted(rf_mc_spec(dims), vec![(0, MessageSpec::multicast(5, dests))]);
    assert_eq!(stats.completed_messages, 1);
    assert!(stats.activity.rf_bytes >= 4 * 16, "DBV + payload flits broadcast");
    let lat = stats.avg_message_latency();
    assert!(lat < 60.0, "broadcast latency {lat}");
}

#[test]
fn rf_multicast_from_non_central_cache_routes_via_transmitter() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([0, 15]);
    let direct = run_scripted(rf_mc_spec(dims), vec![(0, MessageSpec::multicast(5, dests))]);
    let carried = run_scripted(rf_mc_spec(dims), vec![(0, MessageSpec::multicast(6, dests))]);
    assert_eq!(carried.completed_messages, 1);
    // The carry hop to the central bank adds mesh latency.
    assert!(
        carried.avg_message_latency() > direct.avg_message_latency(),
        "carried {} vs direct {}",
        carried.avg_message_latency(),
        direct.avg_message_latency()
    );
    assert!(carried.activity.link_byte_hops > 0);
}

#[test]
fn rf_multicast_from_non_cache_falls_back_to_unicasts() {
    let dims = GridDims::new(4, 4);
    let dests = DestSet::from_nodes([0, 15]);
    // Router 9 is not a cache bank in rf_mc_spec.
    let stats = run_scripted(rf_mc_spec(dims), vec![(0, MessageSpec::multicast(9, dests))]);
    assert_eq!(stats.completed_messages, 1);
}

#[test]
fn deterministic_repeat_runs() {
    let dims = GridDims::new(6, 6);
    let events: Vec<(u64, MessageSpec)> = (0..200u64)
        .map(|i| {
            let src = (i * 7 % 36) as usize;
            let dst = (i * 13 % 36) as usize;
            let dst = if dst == src { (dst + 1) % 36 } else { dst };
            (i / 2, MessageSpec::unicast(src, dst, MessageClass::Data))
        })
        .collect();
    let spec = NetworkSpec::with_shortcuts(
        dims,
        quick_config(),
        vec![Shortcut::new(0, 35), Shortcut::new(30, 5)],
    );
    let a = run_scripted(spec.clone(), events.clone());
    let b = run_scripted(spec, events);
    assert_eq!(a, b, "simulation must be deterministic");
    assert_eq!(a.completed_messages, 200);
}

#[test]
fn heavy_crossing_load_eventually_drains() {
    // Adversarial all-to-opposite traffic with table routing exercises the
    // escape VCs; everything must still complete.
    let dims = GridDims::new(6, 6);
    let mut events = Vec::new();
    for round in 0..20u64 {
        for src in 0..36usize {
            let dst = 35 - src;
            if dst != src {
                events.push((round * 3, MessageSpec::unicast(src, dst, MessageClass::Data)));
            }
        }
    }
    let spec = NetworkSpec::with_shortcuts(
        dims,
        quick_config(),
        vec![Shortcut::new(1, 34), Shortcut::new(34, 1), Shortcut::new(6, 29)],
    );
    let stats = run_scripted(spec, events);
    assert_eq!(stats.completed_messages, stats.injected_messages);
    assert!(!stats.saturated);
}

#[test]
fn flit_conservation_under_random_load() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let dims = GridDims::new(6, 6);
    let mut rng = StdRng::seed_from_u64(42);
    let mut events = Vec::new();
    for cycle in 0..800u64 {
        if rng.gen_bool(0.3) {
            let src = rng.gen_range(0..36);
            let mut dst = rng.gen_range(0..36);
            if dst == src {
                dst = (dst + 1) % 36;
            }
            let class = match rng.gen_range(0..3) {
                0 => MessageClass::Request,
                1 => MessageClass::Data,
                _ => MessageClass::Memory,
            };
            events.push((cycle, MessageSpec::unicast(src, dst, class)));
        }
    }
    let expected_flits: u64 = events
        .iter()
        .map(|(_, m)| LinkWidth::B16.flits_for(m.bytes()) as u64)
        .sum();
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), events);
    assert_eq!(stats.completed_messages, stats.injected_messages);
    assert_eq!(stats.ejected_flits, expected_flits, "every flit must eject exactly once");
}

#[test]
fn distance_histogram_records_injections() {
    let dims = GridDims::new(4, 4);
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, quick_config()),
        vec![
            (0, MessageSpec::unicast(0, 1, MessageClass::Request)), // 1 hop
            (0, MessageSpec::unicast(0, 15, MessageClass::Request)), // 6 hops
            (0, MessageSpec::unicast(0, 5, MessageClass::Request)), // 2 hops
        ],
    );
    assert_eq!(stats.distance_histogram[1], 1);
    assert_eq!(stats.distance_histogram[2], 1);
    assert_eq!(stats.distance_histogram[6], 1);
}

#[test]
fn warmup_messages_are_not_measured() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 1_000;
    let spec = NetworkSpec::mesh_baseline(dims, cfg);
    let stats = run_scripted(
        spec,
        vec![
            (0, MessageSpec::unicast(0, 15, MessageClass::Data)), // warmup
            (200, MessageSpec::unicast(0, 15, MessageClass::Data)), // measured
        ],
    );
    assert_eq!(stats.injected_messages, 1);
    assert_eq!(stats.completed_messages, 1);
}

/// A workload that floods the network far beyond capacity.
struct Flood;

impl Workload for Flood {
    fn messages_at(&mut self, _cycle: u64, out: &mut Vec<MessageSpec>) {
        for src in 0..16usize {
            out.push(MessageSpec::unicast(src, 15 - src.min(14), MessageClass::Memory));
        }
    }
}

#[test]
fn saturation_is_detected_not_hung() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.measure_cycles = 500;
    cfg.drain_cycles = 200;
    let mut network = Network::new(NetworkSpec::mesh_baseline(dims, cfg));
    let stats = network.run(&mut Flood);
    assert!(stats.saturated, "flood must saturate");
    assert!(stats.end_cycle <= 500 + 200, "drain limit must bound the run");
}

#[test]
#[should_panic(expected = "two outbound shortcuts")]
fn duplicate_outbound_shortcut_rejected() {
    let dims = GridDims::new(4, 4);
    Network::new(NetworkSpec::with_shortcuts(
        dims,
        quick_config(),
        vec![Shortcut::new(0, 15), Shortcut::new(0, 12)],
    ));
}

#[test]
#[should_panic(expected = "XY routing cannot use shortcuts")]
fn xy_with_shortcuts_rejected() {
    let dims = GridDims::new(4, 4);
    let mut spec = NetworkSpec::mesh_baseline(dims, quick_config());
    spec.shortcuts = vec![Shortcut::new(0, 15)];
    spec.routing = RoutingKind::Xy;
    Network::new(spec);
}

#[test]
fn wire_shortcut_slower_than_rf_but_faster_than_mesh() {
    let dims = GridDims::new(10, 10);
    let message = vec![(0u64, MessageSpec::unicast(0, 99, MessageClass::Data))];
    let rf = run_scripted(
        NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 99)]),
        message.clone(),
    );
    let mut wire_spec =
        NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 99)]);
    wire_spec.wire_shortcut_cycles_per_hop = Some(0.5);
    let wire = run_scripted(wire_spec, message.clone());
    let mesh = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), message);
    let (r, w, m) =
        (rf.avg_message_latency(), wire.avg_message_latency(), mesh.avg_message_latency());
    assert!(r < w, "RF ({r}) must beat wire ({w})");
    assert!(w < m, "wire shortcut ({w}) must still beat the full mesh path ({m})");
    // Wire traffic is charged as repeated-wire energy over 18 hops.
    assert_eq!(wire.activity.rf_bytes, 0);
    assert_eq!(wire.activity.link_byte_hops, 39 * 18);
}

#[test]
fn rf_channel_drains_narrow_flit_bursts() {
    // At 4B mesh width the 16B RF channel moves up to 4 flits/cycle, so a
    // message that queued up behind a busy shortcut drains faster than a
    // 4B mesh link could.
    let dims = GridDims::new(10, 10);
    let cfg = quick_config().with_link_width(LinkWidth::B4);
    let spec = NetworkSpec::with_shortcuts(dims, cfg, vec![Shortcut::new(11, 88)]);
    // Two competing streams from different input ports of router 11.
    let events = vec![
        (0u64, MessageSpec::unicast(1, 88, MessageClass::Memory)),
        (0u64, MessageSpec::unicast(10, 88, MessageClass::Memory)),
        (0u64, MessageSpec::unicast(12, 88, MessageClass::Memory)),
    ];
    let stats = run_scripted(spec, events);
    assert_eq!(stats.completed_messages, 3);
    assert!(!stats.saturated);
    // All three 132B messages crossed the RF channel.
    assert_eq!(stats.activity.rf_bytes, 3 * 132);
}

#[test]
fn mc_arbitration_makes_non_owner_wait() {
    // Two clusters; the broadcast channel rotates ownership every 200
    // cycles. A multicast from the cluster that owns the channel at cycle
    // 0 starts immediately; one from the other cluster waits for its
    // epoch.
    let dims = GridDims::new(4, 4);
    let receivers: Vec<usize> = (0..16).collect();
    let serving = McConfig::serving_map(dims, &receivers);
    let mut cluster_of = vec![None; 16];
    cluster_of[5] = Some(0);
    cluster_of[10] = Some(1);
    let mc = McConfig {
        transmitters: vec![5, 10],
        cluster_of,
        receivers,
        serving,
        epoch_cycles: 200,
        rf_flit_bytes: 16,
    };
    let mut spec = NetworkSpec::mesh_baseline(dims, quick_config());
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    let dests = DestSet::from_nodes([0, 15]);
    let owner = run_scripted(spec.clone(), vec![(0, MessageSpec::multicast(5, dests))]);
    let waiter = run_scripted(spec, vec![(0, MessageSpec::multicast(10, dests))]);
    assert_eq!(owner.completed_messages, 1);
    assert_eq!(waiter.completed_messages, 1);
    assert!(
        waiter.avg_message_latency() > owner.avg_message_latency() + 100.0,
        "non-owner ({}) should wait ~an epoch vs owner ({})",
        waiter.avg_message_latency(),
        owner.avg_message_latency()
    );
}

#[test]
fn local_port_speedup_raises_ejection_throughput() {
    // 20 single-hop messages into one router: with speedup 2 the sink
    // drains twice as fast.
    let dims = GridDims::new(4, 4);
    let events: Vec<(u64, MessageSpec)> = (0..20)
        .map(|i| (i as u64, MessageSpec::unicast((i % 2) * 2, 1, MessageClass::Data)))
        .collect();
    let run_with = |speedup: u32| {
        let mut cfg = quick_config();
        cfg.local_port_speedup = speedup;
        run_scripted(NetworkSpec::mesh_baseline(dims, cfg), events.clone())
    };
    let slow = run_with(1);
    let fast = run_with(2);
    assert_eq!(slow.completed_messages, 20);
    assert_eq!(fast.completed_messages, 20);
    assert!(
        fast.avg_message_latency() < slow.avg_message_latency(),
        "speedup 2 ({}) should beat speedup 1 ({})",
        fast.avg_message_latency(),
        slow.avg_message_latency()
    );
}

#[test]
fn multicast_histogram_uses_mean_distance() {
    let dims = GridDims::new(4, 4);
    // dests at distances 2 and 4 from node 0 → mean 3
    let dests = DestSet::from_nodes([5, 10]);
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, quick_config()),
        vec![(0, MessageSpec::multicast(0, dests))],
    );
    assert_eq!(stats.distance_histogram[3], 1);
}

#[test]
fn contended_shortcut_traffic_detours_over_mesh() {
    // Many simultaneous streams all wanting the single 0->99 shortcut.
    // With adaptive shortcut routing (default), blocked packets take the
    // mesh; everything completes and the mesh carries real traffic.
    let dims = GridDims::new(10, 10);
    let mut events = Vec::new();
    for burst in 0..10u64 {
        for src in [0usize, 1, 10, 11] {
            events.push((burst, MessageSpec::unicast(src, 99, MessageClass::Memory)));
        }
    }
    let adaptive = run_scripted(
        NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 99)]),
        events.clone(),
    );
    assert_eq!(adaptive.completed_messages, 40);
    assert!(!adaptive.saturated);
    assert!(adaptive.activity.rf_bytes > 0, "shortcut used");
    assert!(
        adaptive.activity.link_byte_hops > 0,
        "contention must push some traffic onto the mesh"
    );

    // With the detour disabled, everything funnels through the shortcut
    // (or the slow escape path) — more RF bytes, longer latency.
    let mut cfg = quick_config();
    cfg.adaptive_shortcut_routing = false;
    let strict = run_scripted(
        NetworkSpec::with_shortcuts(dims, cfg, vec![Shortcut::new(0, 99)]),
        events,
    );
    assert_eq!(strict.completed_messages, 40);
    assert!(
        adaptive.avg_message_latency() <= strict.avg_message_latency() + 1.0,
        "adaptive routing ({}) should not lose to strict ({})",
        adaptive.avg_message_latency(),
        strict.avg_message_latency()
    );
}

#[test]
fn escape_only_configuration_still_delivers() {
    // With zero adaptive VCs every packet rides the escape (XY) network.
    let dims = GridDims::new(6, 6);
    let mut cfg = quick_config();
    cfg.vcs_adaptive = 0;
    let events: Vec<(u64, MessageSpec)> = (0..50u64)
        .map(|i| {
            let src = (i * 7 % 36) as usize;
            let dst = (35 + i as usize * 5) % 36;
            let dst = if dst == src { (dst + 1) % 36 } else { dst };
            (i, MessageSpec::unicast(src, dst, MessageClass::Data))
        })
        .collect();
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, cfg), events);
    assert_eq!(stats.completed_messages, 50);
    assert!(!stats.saturated);
}

#[test]
fn vct_delivers_full_payload_to_every_destination() {
    let dims = GridDims::new(6, 6);
    // A spread-out destination set forcing several forks.
    let dests = DestSet::from_nodes([5, 30, 35, 17, 23]);
    let stats = run_scripted(vct_spec(dims), vec![(0, MessageSpec::multicast(0, dests))]);
    assert_eq!(stats.completed_messages, 1);
    // Every destination ejects all 3 flits of the 39B message.
    assert_eq!(stats.ejected_flits, 5 * 3);
}

#[test]
fn vct_fork_heavy_sets_complete_under_load() {
    let dims = GridDims::new(6, 6);
    let mut events = Vec::new();
    for i in 0..30u64 {
        let dests = DestSet::from_nodes([
            (i as usize % 6) + 30,
            (i as usize % 5) + 6,
            35 - (i as usize % 7),
        ]);
        events.push((i * 2, MessageSpec::multicast((i as usize * 3) % 36, dests)));
    }
    let stats = run_scripted(vct_spec(dims), events);
    assert_eq!(stats.completed_messages, 30);
    assert!(!stats.saturated);
}

#[test]
fn rf_port_capacity_matches_width() {
    // At 8B the 16B RF channel moves two flits per cycle: a long message
    // over the shortcut finishes faster per-byte than at capacity 1.
    let dims = GridDims::new(10, 10);
    let run_width = |width: LinkWidth| {
        let cfg = quick_config().with_link_width(width);
        let spec = NetworkSpec::with_shortcuts(dims, cfg, vec![Shortcut::new(0, 99)]);
        run_scripted(spec, vec![(0, MessageSpec::unicast(0, 99, MessageClass::Memory))])
    };
    let s16 = run_width(LinkWidth::B16);
    let s8 = run_width(LinkWidth::B8);
    // 132B: 9 flits @16B vs 17 flits @8B, but the RF hop moves 2 narrow
    // flits/cycle, so the 8B penalty stays bounded (injection serialises
    // at 1 flit/cycle per VC).
    assert!(s8.avg_message_latency() < s16.avg_message_latency() + 15.0);
}

#[test]
fn run_without_warmup_or_drain_is_clean() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 50;
    cfg.drain_cycles = 1_000;
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, cfg),
        vec![(40, MessageSpec::unicast(0, 15, MessageClass::Data))],
    );
    // Injected inside the window, drains after it.
    assert_eq!(stats.injected_messages, 1);
    assert_eq!(stats.completed_messages, 1);
    assert!(stats.end_cycle > 50);
}

#[test]
fn port_utilization_reflects_traffic() {
    let dims = GridDims::new(4, 4);
    let events: Vec<(u64, MessageSpec)> = (0..40)
        .map(|i| (i as u64, MessageSpec::unicast(0, 3, MessageClass::Data)))
        .collect();
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), events);
    // Router 1's east port carries every flit of the stream (XY row 0).
    let east_util = stats.port_utilization(1, 2, 1);
    assert!(east_util > 0.05, "east port utilization {east_util}");
    let (hot_r, _, _) = stats.hottest_port().expect("traffic moved");
    assert!(hot_r <= 3, "hottest port must be on row 0, got router {hot_r}");
    // An idle router's ports are silent.
    assert_eq!(stats.port_utilization(12, 2, 1), 0.0);
}

#[test]
fn rf_multicast_with_sparse_receivers_serves_all_cores() {
    // Only 4 receivers on a 4x4 mesh: each serves several routers, so
    // most deliveries need a local mesh hop from the receiver.
    let dims = GridDims::new(4, 4);
    let receivers = vec![0usize, 3, 12, 15];
    let serving = McConfig::serving_map(dims, &receivers);
    let mut cluster_of = vec![None; 16];
    cluster_of[5] = Some(0);
    let mc = McConfig {
        transmitters: vec![5],
        cluster_of,
        receivers,
        serving,
        epoch_cycles: 100,
        rf_flit_bytes: 16,
    };
    let mut spec = NetworkSpec::mesh_baseline(dims, quick_config());
    spec.multicast = MulticastMode::Rf;
    spec.mc = Some(mc);
    // every router except the transmitter is a destination
    let dests = DestSet::from_nodes((0..16).filter(|&r| r != 5));
    let stats = run_scripted(spec, vec![(0, MessageSpec::multicast(5, dests))]);
    assert_eq!(stats.completed_messages, 1);
    // local-distribution packets moved over the mesh
    assert!(stats.activity.link_byte_hops > 0);
}

#[test]
fn band_plan_matches_built_shortcut_set() {
    use rfnoc_sim::bands::{BandPlan, RfBudget, Tuning};
    let shortcuts = vec![Shortcut::new(0, 99), Shortcut::new(45, 54)];
    let plan = BandPlan::new(RfBudget::paper_default(), &shortcuts, &[2, 4]).unwrap();
    assert_eq!(plan.tx_tuning(0), Tuning::Shortcut(0));
    assert_eq!(plan.rx_tuning(54), Tuning::Shortcut(1));
    assert_eq!(plan.rx_tuning(4), Tuning::Broadcast);
    assert_eq!(plan.bands_used(), 3);
    // The same shortcut set drives a simulatable network.
    let spec = NetworkSpec::with_shortcuts(GridDims::new(10, 10), quick_config(), shortcuts);
    let stats = run_scripted(
        spec,
        vec![(0, MessageSpec::unicast(0, 99, MessageClass::Data))],
    );
    assert_eq!(stats.completed_messages, 1);
}

#[test]
fn hop_accounting_matches_route_lengths() {
    let dims = GridDims::new(10, 10);
    // Pure mesh XY: 0 -> 99 is exactly 18 hops.
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, quick_config()),
        vec![(0, MessageSpec::unicast(0, 99, MessageClass::Data))],
    );
    assert_eq!(stats.hop_packets, 1);
    assert_eq!(stats.hops_sum, 18);
    assert_eq!(stats.avg_hops(), 18.0);
    // With a direct shortcut the same pair is one hop.
    let rf = run_scripted(
        NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 99)]),
        vec![(0, MessageSpec::unicast(0, 99, MessageClass::Data))],
    );
    assert_eq!(rf.avg_hops(), 1.0);
}

#[test]
fn live_reconfiguration_retunes_shortcuts_mid_run() {
    // Start with a shortcut 0->99; drive traffic over it, then retune to
    // 90->9 while traffic keeps flowing. Both phases must complete, the
    // reconfiguration must be counted, and post-retune traffic must ride
    // the new shortcut.
    let dims = GridDims::new(10, 10);
    let mut cfg = quick_config();
    cfg.measure_cycles = 4_000;
    let spec = NetworkSpec::with_shortcuts(dims, cfg, vec![Shortcut::new(0, 99)]);
    let mut network = Network::new(spec);

    // Phase 1: traffic using the 0->99 shortcut.
    let mut phase1 = ScriptedWorkload::new(
        (0..20u64)
            .map(|i| (i * 3, MessageSpec::unicast(0, 99, MessageClass::Data)))
            .collect(),
    );
    let mut buf = Vec::new();
    for _ in 0..400 {
        buf.clear();
        phase1.messages_at(network.cycle(), &mut buf);
        for m in buf.drain(..) {
            network.inject_message(m);
        }
        network.step();
    }
    let rf_bytes_phase1 = {
        // peek at counters through a fresh run? use reconfigurations API +
        // later assertions instead; here just retune.
        network.reconfigure(vec![Shortcut::new(90, 9)]).expect("legal retune accepted");
        0
    };
    let _ = rf_bytes_phase1;
    // Let the drain + 99-cycle table rewrite complete.
    for _ in 0..400 {
        network.step();
    }
    assert_eq!(network.reconfigurations(), 1, "retuning must complete");

    // Phase 2: traffic for the new shortcut; it must arrive fast (1 RF hop).
    let mut phase2 = ScriptedWorkload::new(
        (0..10u64)
            .map(|i| (network.cycle() + i * 3, MessageSpec::unicast(90, 9, MessageClass::Data)))
            .collect(),
    );
    for _ in 0..600 {
        buf.clear();
        phase2.messages_at(network.cycle(), &mut buf);
        for m in buf.drain(..) {
            network.inject_message(m);
        }
        network.step();
    }
    let stats = {
        // drive to quiescence and collect
        for _ in 0..2_000 {
            network.step();
        }
        network.run(&mut ScriptedWorkload::default())
    };
    assert_eq!(stats.completed_messages, 30, "both phases fully delivered");
    assert!(!stats.saturated);
    // Post-retune messages 90->9 must have used the new single-hop path:
    // average hops over all 30 messages = (20*1 + 10*1)/30 = 1 if both
    // shortcut generations worked.
    assert!(
        stats.avg_hops() < 2.0,
        "both shortcut generations should give ~1-hop routes, got {}",
        stats.avg_hops()
    );
}

#[test]
fn reconfigure_rejected_on_xy_network() {
    let dims = GridDims::new(4, 4);
    let mut network = Network::new(NetworkSpec::mesh_baseline(dims, quick_config()));
    let err = network.reconfigure(vec![Shortcut::new(0, 15)]);
    assert_eq!(err, Err(ReconfigError::XyRouting));
    assert!(err.unwrap_err().to_string().contains("requires shortest-path"));
}

#[test]
fn reconfigure_rejects_self_loops_and_double_booked_ports() {
    let dims = GridDims::new(4, 4);
    let spec = NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(0, 15)]);
    let mut network = Network::new(spec);
    assert_eq!(
        network.reconfigure(vec![Shortcut::new(7, 7)]),
        Err(ReconfigError::SelfLoop { router: 7 }),
        "the seed accepted self-loop shortcuts silently; they must be rejected"
    );
    assert_eq!(
        network.reconfigure(vec![Shortcut::new(1, 5), Shortcut::new(1, 9)]),
        Err(ReconfigError::DuplicateSource { router: 1 })
    );
    assert_eq!(
        network.reconfigure(vec![Shortcut::new(1, 5), Shortcut::new(9, 5)]),
        Err(ReconfigError::DuplicateDest { router: 5 })
    );
    assert_eq!(
        network.reconfigure(vec![Shortcut::new(0, 99)]),
        Err(ReconfigError::EndpointOutOfRange { src: 0, dst: 99 })
    );
    // A rejected request leaves the network reconfigurable.
    network.reconfigure(vec![Shortcut::new(3, 12)]).expect("legal set accepted");
    assert_eq!(
        network.reconfigure(vec![Shortcut::new(0, 15)]),
        Err(ReconfigError::InProgress)
    );
}

#[test]
fn self_loop_shortcut_rejected_at_build() {
    let dims = GridDims::new(4, 4);
    let spec =
        NetworkSpec::with_shortcuts(dims, quick_config(), vec![Shortcut::new(5, 5)]);
    match Network::try_new(spec) {
        Err(SimError::Shortcuts(ReconfigError::SelfLoop { router: 5 })) => {}
        other => panic!("expected self-loop rejection, got {other:?}"),
    }
}

/// The head flit's trace through the profile channel's hop records: it
/// enters at router 0's local port, is granted east at routers 0, 1 and 2
/// on the 5-cycle pipeline, and leaves through router 3's local port.
#[test]
fn flit_trace_follows_pipeline_timing() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.telemetry = Some(rfnoc_sim::TelemetryConfig::profiling(64));
    let mut network = Network::new(NetworkSpec::mesh_baseline(dims, cfg));
    let mut workload = ScriptedWorkload::new(vec![(
        0,
        MessageSpec::unicast(0, 3, MessageClass::Request),
    )]);
    let stats = network.run(&mut workload);
    let report = stats.telemetry.as_ref().expect("telemetry enabled");
    // One 7B request at 16B = a single head/tail flit: one hop record per
    // router 0, 1, 2, 3, in traversal order.
    let hops = report.hops_of(report.spans[0].packet);
    assert_eq!(hops.len(), 4, "hops: {hops:?}");
    const EAST: u8 = 2;
    const LOCAL: u8 = 4;
    for (i, h) in hops.iter().enumerate() {
        assert_eq!(h.router as usize, i, "hop {i}");
        let out = if i == 3 { LOCAL } else { EAST };
        assert_eq!(h.port_out, out, "hop {i} out port");
    }
    assert_eq!(hops[0].port_in, LOCAL, "injected at the source's local port");
    // Per-hop spacing of a head flit is the 5-cycle pipeline.
    for pair in hops[..3].windows(2) {
        assert_eq!(pair[1].granted_at - pair[0].granted_at, 5, "head pipeline spacing");
    }
}

#[test]
fn latency_percentiles_are_consistent() {
    let dims = GridDims::new(6, 6);
    let events: Vec<(u64, MessageSpec)> = (0..100u64)
        .map(|i| {
            let src = (i * 7 % 36) as usize;
            let dst = (i as usize * 11 + 1) % 36;
            let dst = if dst == src { (dst + 1) % 36 } else { dst };
            (i, MessageSpec::unicast(src, dst, MessageClass::Data))
        })
        .collect();
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), events);
    assert_eq!(stats.message_latencies.len(), 100);
    let p0 = stats.latency_percentile(0.0);
    let p50 = stats.latency_percentile(50.0);
    let p99 = stats.latency_percentile(99.0);
    let p100 = stats.latency_percentile(100.0);
    assert!(p0 <= p50 && p50 <= p99 && p99 <= p100);
    assert!(p50 > 0.0);
    // mean lies between min and max
    let mean = stats.avg_message_latency();
    assert!(p0 <= mean && mean <= p100);
    // max equals the largest individual latency
    assert_eq!(p100 as u32, *stats.message_latencies.iter().max().unwrap());
}
