//! Integration tests of the telemetry subsystem: interval bucketing,
//! inertness of the hooks when enabled, span timing pinned against the
//! router pipeline, per-endpoint completion counters, and the
//! fault/retune event timeline.

use proptest::prelude::*;
use rfnoc_sim::{
    latency_bucket, latency_bucket_bounds, ConfigError, DestSet, FaultEvent, FaultPlan,
    MessageClass, MessageSpec, Network, NetworkSpec, RunStats, ScriptedWorkload, SimConfig,
    SimError, TelemetryConfig, TimelineEventKind, LATENCY_BUCKETS,
};
use rfnoc_topology::{GridDims, Shortcut};

fn quick_config() -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1_000;
    cfg.drain_cycles = 20_000;
    cfg
}

fn run_scripted(spec: NetworkSpec, events: Vec<(u64, MessageSpec)>) -> RunStats {
    let mut network = Network::new(spec);
    let mut workload = ScriptedWorkload::new(events);
    network.run(&mut workload)
}

/// A deterministic all-to-few stream that keeps several routers busy.
fn stream(n: usize, count: u64) -> Vec<(u64, MessageSpec)> {
    (0..count)
        .map(|i| {
            let src = (i as usize * 7) % n;
            let dst = (i as usize * 11 + 1) % n;
            let dst = if dst == src { (dst + 1) % n } else { dst };
            (i * 3, MessageSpec::unicast(src, dst, MessageClass::Data))
        })
        .collect()
}

#[test]
fn zero_interval_rejected_at_build() {
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::every(0));
    let spec = NetworkSpec::mesh_baseline(GridDims::new(4, 4), cfg);
    match Network::try_new(spec) {
        Err(SimError::Config(ConfigError::ZeroTelemetryInterval)) => {}
        other => panic!("expected zero-interval rejection, got {other:?}"),
    }
}

/// Samples tile the run exactly: contiguous starts, every sample but the
/// last covers the configured interval, and the covered cycles sum to the
/// run's end cycle even when the interval does not divide it.
#[test]
fn interval_bucketing_covers_the_run_exactly() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    // 300 will not divide the end cycle (measure 1 000 plus drain).
    cfg.telemetry = Some(TelemetryConfig::every(300));
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, cfg), stream(16, 200));
    let report = stats.telemetry.as_ref().expect("telemetry enabled");

    assert_eq!(report.interval, 300);
    assert_eq!(report.routers, 16);
    assert!(report.samples.len() >= 2, "run spans several intervals");
    let mut expected_start = 0;
    for (i, s) in report.samples.iter().enumerate() {
        assert_eq!(s.start, expected_start, "sample {i} start");
        if i + 1 < report.samples.len() {
            assert_eq!(s.cycles, 300, "sample {i} covers a full interval");
        } else {
            assert!(s.cycles > 0 && s.cycles <= 300, "final sample is partial");
        }
        expected_start += s.cycles;
    }
    assert_eq!(expected_start, stats.end_cycle, "samples tile the whole run");
    assert_eq!(report.sample_index_at(0), Some(0));
    assert_eq!(report.sample_index_at(299), Some(0));
    assert_eq!(report.sample_index_at(300), Some(1));
    assert_eq!(report.sample_index_at(stats.end_cycle + 1000), None);
}

/// With warmup 0 every cycle is counted, so the telemetry time series must
/// reconcile exactly with the scalar `RunStats` counters.
#[test]
fn samples_reconcile_with_run_totals() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::every(128));
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, cfg), stream(16, 300));
    let report = stats.telemetry.as_ref().expect("telemetry enabled");

    assert_eq!(report.total_port_grants(), stats.port_flits);
    let injected: u64 = report.samples.iter().map(|s| s.injected).sum();
    let ejected: u64 = report.samples.iter().map(|s| s.ejected_flits).sum();
    let completed: u64 = report.samples.iter().map(|s| s.completed_packets).sum();
    let hist: u64 =
        report.samples.iter().map(|s| s.latency_hist.iter().sum::<u64>()).sum();
    assert_eq!(injected, stats.injected_messages);
    assert_eq!(ejected, stats.ejected_flits);
    assert_eq!(completed, stats.completed_messages);
    assert_eq!(hist, stats.completed_messages, "every completion is bucketed");
    assert_eq!(report.samples.last().unwrap().in_flight_end, 0, "run drained");
    let peak: u32 =
        report.samples.iter().flat_map(|s| s.buffered_peak.iter().copied()).max().unwrap();
    assert!(peak > 0, "traffic must buffer at least one flit somewhere");
    // Every completed packet has a complete span whose latency matches the
    // histogram population.
    assert_eq!(report.spans.len(), stats.injected_messages as usize);
    assert_eq!(report.dropped_spans, 0);
    assert!(report.spans.iter().all(|s| s.is_complete() && s.measured));
}

/// Turning telemetry on (all channels) must not perturb the simulation:
/// the rest of `RunStats` is bit-identical to a telemetry-off run.
#[test]
fn telemetry_is_a_pure_observer() {
    let dims = GridDims::new(6, 6);
    let shortcuts = vec![Shortcut::new(0, 35), Shortcut::new(35, 0)];
    let events = stream(36, 500);

    let off = run_scripted(
        NetworkSpec::with_shortcuts(dims, quick_config(), shortcuts.clone()),
        events.clone(),
    );
    assert!(off.telemetry.is_none(), "telemetry defaults off");

    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::every(100));
    let mut on =
        run_scripted(NetworkSpec::with_shortcuts(dims, cfg, shortcuts), events);
    assert!(on.telemetry.is_some());
    on.telemetry = None;
    assert_eq!(on, off, "telemetry must not change simulated behaviour");
}

/// The packet span agrees cycle-for-cycle with the head flit's hop
/// records and the 5-cycle head pipeline on a 3-hop unicast.
#[test]
fn span_timing_pins_the_pipeline() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::profiling(64));
    let stats = run_scripted(
        NetworkSpec::mesh_baseline(dims, cfg),
        vec![(0, MessageSpec::unicast(0, 3, MessageClass::Request))],
    );
    let report = stats.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(report.spans.len(), 1);
    let span = &report.spans[0];
    let hops = report.hops_of(span.packet);
    let (first, last) = (hops.first().expect("hop records"), hops.last().expect("hop records"));

    assert_eq!(span.src, 0);
    assert_eq!(span.dest, 3);
    assert_eq!(span.injected_at, 0);
    assert_eq!(span.first_grant_at, first.granted_at);
    // The local-port grant is followed by switch + link traversal before
    // the flit lands at the destination core.
    assert_eq!(span.ejected_at, last.granted_at + 2);
    assert_eq!(span.hops, 3, "0→1→2→3 traverses three links");
    assert_eq!(hops.len(), 4, "one hop record per router traversed");
    assert!(!span.took_rf, "no shortcuts on a bare mesh");
    assert_eq!(span.latency(), Some(span.ejected_at));
    // Head grants at routers 0,1,2 are spaced by the 5-cycle pipeline, so
    // the whole span is pinned once its endpoints are.
    assert_eq!(last.granted_at - first.granted_at, 3 * 5);
}

/// A packet routed over an RF shortcut is flagged in its span.
#[test]
fn span_records_rf_traversal() {
    let dims = GridDims::new(8, 8);
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::every(100));
    let spec =
        NetworkSpec::with_shortcuts(dims, cfg, vec![Shortcut::new(0, 63)]);
    let stats =
        run_scripted(spec, vec![(0, MessageSpec::unicast(0, 63, MessageClass::Data))]);
    let report = stats.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(report.spans.len(), 1);
    assert!(report.spans[0].took_rf, "corner-to-corner traffic takes the shortcut");
    assert_eq!(report.spans[0].hops, 1, "one shortcut hop");
    let rf: u64 = report.samples.iter().map(|s| s.rf_grants).sum();
    assert!(rf > 0, "RF grants show up in the link channel");
}

/// Spans past the cap are dropped and counted, never silently lost.
#[test]
fn span_cap_counts_dropped_spans() {
    let dims = GridDims::new(4, 4);
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig { span_limit: 2, ..TelemetryConfig::every(100) });
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, cfg), stream(16, 5));
    let report = stats.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(report.spans.len(), 2, "cap respected");
    assert_eq!(report.dropped_spans, 3, "overflow counted");
}

/// Per-endpoint completion counters attribute traffic to sources and
/// destinations, including multicast deliveries and self-destinations.
#[test]
fn per_source_and_per_dest_count_completions() {
    let dims = GridDims::new(4, 4);
    let events = vec![
        (0, MessageSpec::unicast(0, 3, MessageClass::Data)),
        (5, MessageSpec::unicast(0, 3, MessageClass::Request)),
        (10, MessageSpec::unicast(1, 3, MessageClass::Data)),
        (15, MessageSpec::unicast(2, 5, MessageClass::Data)),
    ];
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), events);
    assert_eq!(stats.completed_messages, 4);
    assert_eq!(stats.per_source[0], 2);
    assert_eq!(stats.per_source[1], 1);
    assert_eq!(stats.per_source[2], 1);
    assert_eq!(stats.per_source.iter().map(|&c| u64::from(c)).sum::<u64>(), 4);
    assert_eq!(stats.per_dest[3], 3);
    assert_eq!(stats.per_dest[5], 1);
    assert_eq!(stats.per_dest.iter().map(|&c| u64::from(c)).sum::<u64>(), 4);

    // A multicast counts once at its source and once per destination
    // reached, the sender's own core included (AsUnicasts is the default
    // multicast mode).
    let events = vec![(
        0,
        MessageSpec::multicast(4, DestSet::from_nodes([0, 4, 9])),
    )];
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, quick_config()), events);
    assert_eq!(stats.completed_messages, 1);
    assert_eq!(stats.per_source[4], 1);
    assert_eq!(stats.per_dest[0], 1);
    assert_eq!(stats.per_dest[4], 1);
    assert_eq!(stats.per_dest[9], 1);
}

/// A scheduled fault and its recovery land on the telemetry timeline in
/// the interval where they occurred, so a utilization dip in the heatmap
/// can be attributed to the event that caused it.
#[test]
fn fault_and_retune_events_land_on_the_timeline() {
    let dims = GridDims::new(6, 6);
    let shortcuts = vec![Shortcut::new(0, 35), Shortcut::new(30, 5)];
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::every(100));
    let plan = FaultPlan::new(vec![(250, FaultEvent::ShortcutDown { src: 0 })]);
    let spec = NetworkSpec::with_shortcuts(dims, cfg, shortcuts).with_fault_plan(plan);
    let stats = run_scripted(spec, stream(36, 300));
    let report = stats.telemetry.as_ref().expect("telemetry enabled");

    let fault = report
        .events
        .iter()
        .find(|e| matches!(e.kind, TimelineEventKind::Fault(FaultEvent::ShortcutDown { src: 0 })))
        .expect("fault on the timeline");
    assert_eq!(fault.cycle, 250);
    assert_eq!(report.sample_index_at(fault.cycle), Some(2));
    assert!(
        report.events_in_sample(2).any(|e| e.cycle == 250),
        "event attributed to its interval"
    );
    // The degradation machinery follows: a retune installing the surviving
    // shortcut, then the table rewrite completing.
    let retune = report
        .events
        .iter()
        .find(|e| matches!(e.kind, TimelineEventKind::RetuneApplied { installed: 1 }))
        .expect("retune follows the fault");
    assert!(retune.cycle >= fault.cycle);
    let rewrite = report
        .events
        .iter()
        .find(|e| e.kind == TimelineEventKind::TablesRewritten)
        .expect("table rewrite completes");
    assert!(rewrite.cycle >= retune.cycle);
    assert_eq!(stats.shortcut_faults, 1);
}

/// The log2 bucket edges at and around every boundary map to the
/// documented bucket: bucket 0 is `< 16`, bucket i is `[16·2^(i-1),
/// 16·2^i)`, and the last bucket is unbounded.
#[test]
fn latency_bucket_edges_match_documented_bounds() {
    assert_eq!(latency_bucket(0), 0);
    assert_eq!(latency_bucket(1), 0);
    assert_eq!(latency_bucket(15), 0);
    assert_eq!(latency_bucket(16), 1);
    for i in 1..LATENCY_BUCKETS {
        let (lo, hi) = latency_bucket_bounds(i);
        assert_eq!(lo, 16u64 << (i - 1));
        assert_eq!(latency_bucket(lo), i);
        assert_eq!(latency_bucket(lo - 1), i - 1);
        if i + 1 == LATENCY_BUCKETS {
            assert_eq!(hi, u64::MAX);
            assert_eq!(latency_bucket(u64::MAX), i, "last bucket is unbounded");
        } else {
            assert_eq!(latency_bucket(hi - 1), i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The 8 log2 buckets partition the latency axis: every latency lands
    /// in exactly one bucket, and that bucket's bounds contain it. Each
    /// case checks an arbitrary latency, a small one, and one hugging a
    /// power-of-two edge where an off-by-one would hide.
    #[test]
    fn latency_buckets_partition_all_latencies(
        raw in any::<u64>(),
        small in 0u64..2048,
        shift in 0u32..40,
        nudge in 0u64..3,
    ) {
        let edge = (1u64 << shift).saturating_sub(1).saturating_add(nudge);
        for latency in [raw, small, edge] {
            let holders: Vec<usize> = (0..LATENCY_BUCKETS)
                .filter(|&i| {
                    let (lo, hi) = latency_bucket_bounds(i);
                    lo <= latency && (latency < hi || hi == u64::MAX)
                })
                .collect();
            prop_assert_eq!(holders.len(), 1, "exactly one bucket holds {}", latency);
            prop_assert_eq!(holders[0], latency_bucket(latency));
        }
    }
}

/// The run-total histogram reconciles three ways: against the per-sample
/// histograms it sums, against a histogram rebuilt from the recorded
/// spans, and against the completed-message count.
#[test]
fn total_latency_histogram_reconciles_with_spans_and_completions() {
    let dims = GridDims::new(6, 6);
    let mut cfg = quick_config();
    cfg.telemetry = Some(TelemetryConfig::every(100));
    let stats = run_scripted(NetworkSpec::mesh_baseline(dims, cfg), stream(36, 400));
    let report = stats.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(report.dropped_spans, 0, "all spans retained for this run");

    let total = report.total_latency_histogram();
    assert_eq!(total.iter().sum::<u64>(), stats.completed_messages);

    let mut from_samples = [0u64; LATENCY_BUCKETS];
    for s in &report.samples {
        for (t, &v) in from_samples.iter_mut().zip(&s.latency_hist) {
            *t += v;
        }
    }
    assert_eq!(total, from_samples);

    let mut from_spans = [0u64; LATENCY_BUCKETS];
    for span in report.spans.iter().filter(|s| s.measured) {
        from_spans[latency_bucket(span.latency().expect("run drained"))] += 1;
    }
    assert_eq!(total, from_spans, "histogram and spans bucket identically");
    assert!(total.iter().filter(|&&b| b > 0).count() >= 2, "traffic spreads over buckets");
}
