//! Property-based tests over the traffic generators.

use proptest::prelude::*;
use rfnoc_sim::{Destination, Workload};
use rfnoc_traffic::{
    AppProfile, AppWorkload, ComponentKind, MulticastConfig, MulticastTraffic, Placement,
    ProbabilisticWorkload, Trace, TraceKind, TrafficConfig,
};

fn trace_kind(idx: usize) -> TraceKind {
    TraceKind::all()[idx % 7]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No generator ever produces a self-message or an out-of-range node,
    /// for any trace kind, seed, and rate.
    #[test]
    fn generated_messages_are_well_formed(
        kind_idx in 0usize..7,
        seed in any::<u64>(),
        rate in 0.001f64..0.05,
    ) {
        let placement = Placement::paper_10x10();
        let config = TrafficConfig { injection_rate: rate, seed, ..TrafficConfig::default() };
        let mut w = ProbabilisticWorkload::new(placement.clone(), trace_kind(kind_idx), config)
            .unwrap();
        let mut out = Vec::new();
        for cycle in 0..200 {
            w.messages_at(cycle, &mut out);
        }
        for m in &out {
            prop_assert!(m.src < 100);
            match m.dest {
                Destination::Unicast(d) => {
                    prop_assert!(d < 100);
                    prop_assert_ne!(d, m.src);
                }
                Destination::Multicast(_) => prop_assert!(false, "unexpected multicast"),
            }
        }
    }

    /// Memory ports only ever exchange 132-byte messages with caches.
    #[test]
    fn memory_traffic_is_cache_only(kind_idx in 0usize..7, seed in any::<u64>()) {
        let placement = Placement::paper_10x10();
        let config = TrafficConfig { seed, ..TrafficConfig::default() };
        let mut w = ProbabilisticWorkload::new(placement.clone(), trace_kind(kind_idx), config)
            .unwrap();
        let mut out = Vec::new();
        for cycle in 0..300 {
            w.messages_at(cycle, &mut out);
        }
        for m in &out {
            let Destination::Unicast(d) = m.dest else { unreachable!() };
            let pair = (placement.kind(m.src), placement.kind(d));
            if pair.0 == ComponentKind::Memory {
                prop_assert_eq!(pair.1, ComponentKind::Cache);
                prop_assert_eq!(m.bytes(), 132);
            }
            if pair.1 == ComponentKind::Memory {
                prop_assert_eq!(pair.0, ComponentKind::Cache);
                prop_assert_eq!(m.bytes(), 132);
            }
        }
    }

    /// Any recorded trace survives a serialize → parse round trip exactly.
    #[test]
    fn trace_file_roundtrip(kind_idx in 0usize..7, seed in any::<u64>(), mc_rate in 0.0f64..0.05) {
        let placement = Placement::paper_10x10();
        let config = TrafficConfig { seed, ..TrafficConfig::default() };
        let mut uni = ProbabilisticWorkload::new(placement.clone(), trace_kind(kind_idx), config)
            .unwrap();
        let trace = if mc_rate > 0.0 {
            let mut mc = MulticastTraffic::new(
                placement,
                MulticastConfig { rate_per_cache: mc_rate, seed, ..MulticastConfig::default() },
            )
            .unwrap();
            let mut records = Vec::new();
            let mut buf = Vec::new();
            for cycle in 0..100u64 {
                buf.clear();
                uni.messages_at(cycle, &mut buf);
                mc.messages_at(cycle, &mut buf);
                records.extend(buf.iter().map(|m| (cycle, *m)));
            }
            Trace::from_records(records)
        } else {
            Trace::record(&mut uni, 100)
        };
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let parsed = Trace::read_from(bytes.as_slice()).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// App workloads respect the zero-weight tail: a profile with no
    /// long-range weight never emits messages beyond its cut-off (modulo
    /// hotspot redirection, disabled here).
    #[test]
    fn app_distance_cutoff_respected(seed in any::<u64>()) {
        let placement = Placement::paper_10x10();
        let dims = placement.dims();
        let mut profile = AppProfile::fluidanimate();
        profile.hotspot_count = 0;
        profile.hot_fraction = 0.0;
        // fluidanimate has zero weight beyond 11 hops
        let cutoff = 11u32;
        let mut w = AppWorkload::new(placement, profile, 0.05, seed).unwrap();
        let mut out = Vec::new();
        for cycle in 0..300 {
            w.messages_at(cycle, &mut out);
        }
        prop_assert!(!out.is_empty());
        for m in &out {
            let Destination::Unicast(d) = m.dest else { unreachable!() };
            prop_assert!(dims.manhattan(m.src, d) <= cutoff);
        }
    }

    /// The multicast pool honours its locality bound for any locality.
    #[test]
    fn multicast_locality_bound(locality in 0.05f64..1.0, seed in any::<u64>()) {
        let placement = Placement::paper_10x10();
        let config = MulticastConfig {
            rate_per_cache: 0.05,
            locality,
            seed,
            ..MulticastConfig::default()
        };
        let mut w = MulticastTraffic::new(placement, config).unwrap();
        let mut out = Vec::new();
        for cycle in 0..300 {
            w.messages_at(cycle, &mut out);
        }
        prop_assert!(w.generated() > 0);
        let bound = (w.generated() as f64 * locality).ceil() as usize;
        prop_assert!(w.distinct_pairs() <= bound.max(1));
    }
}
