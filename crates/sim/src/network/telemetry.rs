//! Telemetry: interval-sampled counters, packet-lifecycle spans, the
//! fault/retune event timeline, and the opt-in per-hop profile.
//!
//! The aggregate [`crate::RunStats`] answer "how did the run end"; this
//! module answers "where and *when* did congestion form". When enabled via
//! [`crate::SimConfig::telemetry`] the network samples a time series of
//! [`IntervalSample`]s — per-link and per-RF-band flit grants, per-router
//! buffer occupancy (average and peak), injection/ejection rates, in-flight
//! counts, stall cycles by cause, and a latency histogram per interval —
//! plus one [`PacketSpan`] per packet (inject → first grant → eject) and a
//! [`TimelineEvent`] log of faults, retunes, and watchdog trips, so a
//! health report can be correlated with the interval where progress
//! stalled.
//!
//! # Overhead model
//!
//! Every hook is an increment on a preallocated accumulator, gated on one
//! `Option` check; the steady state allocates nothing. The only
//! allocations happen at *interval boundaries* (one `IntervalSample` per
//! `interval` cycles) and when the packet table itself grows (span slots
//! grow in step with `Network::packets`). Buffer occupancy is read off the
//! routers at each cycle boundary, visiting only routers with a claimed
//! VC. The sweep's counts are per-shard deltas summed at replay, like the
//! run statistics; only span and hop events, whose order matters under
//! their caps, are replayed one by one ([`TelemetryState::apply_op`]).
//! With telemetry disabled the engine takes a single never-taken branch
//! per hook site, and the golden-determinism suite proves the results
//! are bit-identical.
//!
//! The opt-in profile ([`TelemetryConfig::profile`], per-hop delay
//! attribution, see [`HopRecord`]) adds one amortized `Vec` push per
//! router traversal, bounded by [`TelemetryConfig::hop_limit`]; it is off
//! in [`TelemetryConfig::every`] so the standard telemetry overhead
//! envelope is unchanged.

#[allow(clippy::wildcard_imports)]
use super::*;

/// Configuration of the telemetry subsystem
/// ([`crate::SimConfig::telemetry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sampling interval in cycles; one [`IntervalSample`] is emitted per
    /// `interval` cycles (the last sample may be shorter). Must be
    /// non-zero — [`crate::SimConfig::validate`] rejects 0.
    pub interval: u64,
    /// Whether the per-hop profile records: one [`HopRecord`] per
    /// (packet, router) traversal splitting the hop into route-compute,
    /// VA-wait, switch traversal, SA-wait, and credit-wait cycles.
    pub profile: bool,
    /// Maximum packet spans to record; spans past the cap are counted in
    /// [`TelemetryReport::dropped_spans`].
    pub span_limit: usize,
    /// Maximum hop records to record over the run (profile only); hops
    /// past the cap are counted in [`TelemetryReport::dropped_hops`].
    pub hop_limit: usize,
}

impl TelemetryConfig {
    /// Every time series, span and event at the given sampling interval,
    /// with the default span cap (65 536 spans ≈ 1.8 MB). The per-hop
    /// profile stays off; see [`TelemetryConfig::profiling`].
    pub const fn every(interval: u64) -> Self {
        Self {
            interval,
            profile: false,
            span_limit: 1 << 16,
            hop_limit: 1 << 19,
        }
    }

    /// [`TelemetryConfig::every`] *plus* the per-hop profile at the given
    /// sampling interval, with the default span and hop caps (2^19 hops
    /// ≈ 20 MB worst case).
    pub const fn profiling(interval: u64) -> Self {
        Self { profile: true, ..Self::every(interval) }
    }
}

/// Number of buckets in the per-interval latency histogram.
pub const LATENCY_BUCKETS: usize = 8;

/// The bucket index for a completion latency: bucket `i` holds latencies
/// in `[16·2^(i-1), 16·2^i)` cycles (bucket 0 is `< 16`, the last bucket
/// is unbounded).
pub fn latency_bucket(latency: u64) -> usize {
    let mut bucket = 0;
    let mut edge = 16u64;
    while bucket + 1 < LATENCY_BUCKETS && latency >= edge {
        edge *= 2;
        bucket += 1;
    }
    bucket
}

/// The inclusive-exclusive cycle bounds of latency bucket `i`, for report
/// rendering. The last bucket's upper bound is `u64::MAX`.
pub fn latency_bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < LATENCY_BUCKETS, "bucket index out of range");
    let lo = if i == 0 { 0 } else { 16u64 << (i - 1) };
    let hi = if i + 1 == LATENCY_BUCKETS { u64::MAX } else { 16u64 << i };
    (lo, hi)
}

/// One sampling interval's worth of counters.
///
/// Vector fields are sized `routers * ports` (per output port, indexed
/// `router * ports + port`, in fabric slot order then Local then RF —
/// `ports` is the network's widest per-router port count, 6 on the mesh)
/// or `routers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSample {
    /// First cycle covered by this sample.
    pub start: u64,
    /// Cycles covered (equals the configured interval except possibly for
    /// the final, partial sample).
    pub cycles: u64,
    /// Stride of the per-port vectors: the network's widest per-router
    /// port count (6 on the mesh, 8 on the ring-mesh).
    pub ports: usize,
    /// Flit grants per output port (`router * ports + port`) — the
    /// time-series counterpart of [`crate::RunStats::port_flits`].
    pub port_grants: Vec<u64>,
    /// Flit grants onto RF shortcut ports (the point-to-point RF band).
    pub rf_grants: u64,
    /// Flits transmitted on the RF broadcast (multicast) band.
    pub rf_mc_flits: u64,
    /// Per-router sum over the interval's cycles of the flits buffered at
    /// each cycle boundary (divide by `cycles` for the average).
    pub buffered_cycles: Vec<u64>,
    /// Per-router peak buffered flit count within the interval.
    pub buffered_peak: Vec<u32>,
    /// Messages injected (all traffic, warmup included).
    pub injected: u64,
    /// Flits ejected at local ports.
    pub ejected_flits: u64,
    /// Packets whose last flit ejected this interval.
    pub completed_packets: u64,
    /// Measured messages still in flight at the end of the interval.
    pub in_flight_end: u64,
    /// VC-allocation failures: per cycle, each head flit that found no
    /// free output VC (a parked head counts).
    pub va_stalls: u64,
    /// Switch-allocation losses (an eligible request not granted this
    /// cycle).
    pub sa_stalls: u64,
    /// Grants refused for lack of downstream credits.
    pub credit_stalls: u64,
    /// Histogram of packet completion latencies (creation → last flit
    /// ejected), bucketed by [`latency_bucket`].
    pub latency_hist: [u64; LATENCY_BUCKETS],
}

impl IntervalSample {
    fn zeroed(start: u64, routers: usize, ports: usize) -> Self {
        Self {
            start,
            cycles: 0,
            ports,
            port_grants: vec![0; routers * ports],
            rf_grants: 0,
            rf_mc_flits: 0,
            buffered_cycles: vec![0; routers],
            buffered_peak: vec![0; routers],
            injected: 0,
            ejected_flits: 0,
            completed_packets: 0,
            in_flight_end: 0,
            va_stalls: 0,
            sa_stalls: 0,
            credit_stalls: 0,
            latency_hist: [0; LATENCY_BUCKETS],
        }
    }
}

/// The lifecycle of one network packet: inject → first switch grant →
/// last flit ejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpan {
    /// Packet table index.
    pub packet: u32,
    /// Router where the packet entered the network.
    pub src: u32,
    /// Destination router, or `u32::MAX` for a multicast tree packet.
    pub dest: u32,
    /// Cycle the message was created (injection request).
    pub injected_at: u64,
    /// Cycle of the head flit's first switch grant, or `u64::MAX` if it
    /// never won allocation.
    pub first_grant_at: u64,
    /// Cycle the packet's last flit landed at its destination's local
    /// port, or `u64::MAX` while in flight.
    pub ejected_at: u64,
    /// Routers traversed minus one (valid once ejected).
    pub hops: u32,
    /// Whether any flit of this packet was granted onto an RF shortcut
    /// port.
    pub took_rf: bool,
    /// Whether the packet was created inside the measurement window.
    pub measured: bool,
}

impl PacketSpan {
    /// Whether the packet fully left the network.
    pub fn is_complete(&self) -> bool {
        self.ejected_at != u64::MAX
    }

    /// Creation-to-ejection latency, when complete.
    pub fn latency(&self) -> Option<u64> {
        self.is_complete().then(|| self.ejected_at.saturating_sub(self.injected_at))
    }
}

/// Head-flit pipeline constants the delay attribution is built on: route
/// computation (+ head decode) occupies the two cycles between arrival and
/// VA eligibility…
pub const HOP_ROUTE_CYCLES: u64 = 2;
/// …and switch traversal occupies the one cycle between a VA grant and SA
/// eligibility. Everything else a head flit spends inside a router is a
/// stall, attributed by [`HopRecord::va_wait`] / [`HopRecord::sa_wait`].
pub const HOP_SWITCH_CYCLES: u64 = 1;

/// One router traversal of a profiled packet's head flit, recorded by the
/// per-hop profile ([`TelemetryConfig::profile`]): the raw pipeline timestamps from
/// which the RC / VA-stall / ST / SA-stall decomposition derives.
///
/// Only unicast packets (including RF-multicast carrier packets) get hop
/// chains — tree-routed multicast packets fork mid-network and have no
/// single head-flit timeline. A packet's records are stored sorted by
/// `(packet, arrived_at)`, so one chain is a contiguous run in
/// [`TelemetryReport::hops`] in traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Packet table index.
    pub packet: u32,
    /// Router traversed.
    pub router: u32,
    /// Input port the head flit arrived on (Local at the source).
    pub port_in: u8,
    /// Output port the head flit was granted to (Local at the
    /// destination).
    pub port_out: u8,
    /// Credit-refused switch grants of the head flit at this router — a
    /// subset of the [`HopRecord::sa_wait`] cycles, identifying stalls
    /// caused by downstream backpressure rather than switch competition.
    pub credit_waits: u32,
    /// Cycle the head flit entered this router's input buffer.
    pub arrived_at: u64,
    /// Cycle VC allocation succeeded.
    pub va_done_at: u64,
    /// Cycle switch allocation granted the head flit to `port_out`.
    pub granted_at: u64,
}

impl HopRecord {
    /// Cycles the head flit waited for a free output VC beyond the
    /// pipeline minimum ([`HOP_ROUTE_CYCLES`] after arrival).
    pub fn va_wait(&self) -> u64 {
        self.va_done_at
            .saturating_sub(self.arrived_at + HOP_ROUTE_CYCLES)
    }

    /// Cycles the head flit waited for a switch grant beyond the pipeline
    /// minimum ([`HOP_SWITCH_CYCLES`] after the VA grant). Includes the
    /// [`HopRecord::credit_waits`] cycles lost to missing credits.
    pub fn sa_wait(&self) -> u64 {
        self.granted_at
            .saturating_sub(self.va_done_at + HOP_SWITCH_CYCLES)
    }

    /// Total head-flit occupancy of this router (arrival to switch
    /// grant) — the hop's span length on a Perfetto track.
    pub fn occupancy(&self) -> u64 {
        self.granted_at.saturating_sub(self.arrived_at)
    }
}

/// The additive decomposition of one profiled packet's end-to-end latency,
/// from [`TelemetryReport::attribution`]. The components partition
/// `ejected − injected` exactly:
///
/// `total = source_queue + route + va_wait + switch + sa_wait + link +
/// tail_serialization`
///
/// where `route`/`switch` are the fixed pipeline stages
/// ([`HOP_ROUTE_CYCLES`] / [`HOP_SWITCH_CYCLES`] per hop), the waits are
/// contention, `link` covers every link traversal (RF extra latency
/// included) plus the ejection port crossing, and `tail_serialization` is
/// the body/tail flits still streaming after the head ejected.
/// `credit_wait` is informational — a subset of `sa_wait`, not an eighth
/// additive term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DelayBreakdown {
    /// Cycles between message creation and the head flit entering the
    /// source router's local input buffer (injection VC queueing).
    pub source_queue: u64,
    /// Route-computation pipeline cycles over all hops.
    pub route: u64,
    /// VC-allocation contention cycles over all hops.
    pub va_wait: u64,
    /// Switch-traversal pipeline cycles over all hops.
    pub switch: u64,
    /// Switch-allocation contention cycles over all hops.
    pub sa_wait: u64,
    /// Of [`DelayBreakdown::sa_wait`], the cycles refused for missing
    /// downstream credits (informational subset, not additive).
    pub credit_wait: u64,
    /// Link-traversal cycles: inter-router crossings (RF shortcut extra
    /// latency included) plus the final ejection-port crossing.
    pub link: u64,
    /// Cycles after the head flit ejected until the packet's last flit
    /// ejected (body/tail serialization and their contention).
    pub tail_serialization: u64,
    /// End-to-end latency, `ejected_at − injected_at`; equals the sum of
    /// the seven additive components above.
    pub total: u64,
    /// Router traversals in the chain.
    pub hops: u32,
    /// Whether any hop exited through an RF shortcut port.
    pub took_rf: bool,
}

impl DelayBreakdown {
    /// Sum of the additive components — equals
    /// [`DelayBreakdown::total`]; the reconciliation the profiler
    /// guarantees and the integration tests assert.
    pub fn component_sum(&self) -> u64 {
        self.source_queue
            + self.route
            + self.va_wait
            + self.switch
            + self.sa_wait
            + self.link
            + self.tail_serialization
    }

    /// Contention cycles (VA + SA waits) — the blame the packet assigns
    /// to the links it crossed.
    pub fn contention(&self) -> u64 {
        self.va_wait + self.sa_wait
    }
}

/// A non-traffic event on the telemetry timeline, so degradation can be
/// correlated with the interval where utilization changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEventKind {
    /// A scheduled fault event was applied.
    Fault(FaultEvent),
    /// RF transmitters/receivers retuned; `installed` shortcuts are now
    /// active (the routing-table rewrite stall begins here).
    RetuneApplied {
        /// Shortcuts installed by the retune.
        installed: usize,
    },
    /// A routing-table rewrite completed and injection resumed.
    TablesRewritten,
    /// A tracked fault's windowed mean latency re-converged to its
    /// pre-fault baseline (see [`crate::RecoveryRecord`]); only emitted
    /// when [`crate::SimConfig::recovery`] is enabled.
    RecoveryConverged {
        /// Cycle the fault was applied.
        fault_cycle: u64,
        /// Cycles from fault to convergence.
        after: u64,
    },
    /// The forward-progress watchdog stopped the run (see
    /// [`crate::RunStats::health`] for the diagnosis).
    WatchdogFired,
}

/// A short stable label, used in the telemetry, profile and Perfetto
/// artifacts and in timeline tables.
impl std::fmt::Display for TimelineEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fault(e) => write!(f, "fault: {e:?}"),
            Self::RetuneApplied { installed } => {
                write!(f, "retune_applied({installed} shortcuts)")
            }
            Self::TablesRewritten => f.write_str("tables_rewritten"),
            Self::WatchdogFired => f.write_str("watchdog_fired"),
            Self::RecoveryConverged { fault_cycle, after } => {
                write!(f, "recovery_converged(fault@{fault_cycle} after {after})")
            }
        }
    }
}

/// One timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: TimelineEventKind,
}

/// The full telemetry record of one run, returned through
/// [`crate::RunStats::telemetry`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Sampling interval in cycles.
    pub interval: u64,
    /// Whether the per-hop profile recorded ([`TelemetryConfig::profile`]).
    pub profile: bool,
    /// Routers in the network (sizes the per-router vectors).
    pub routers: usize,
    /// Stride of the per-port vectors: the network's widest per-router
    /// port count (6 on the mesh, 8 on the ring-mesh).
    pub ports: usize,
    /// The time series, in cycle order; the final sample may cover fewer
    /// than `interval` cycles.
    pub samples: Vec<IntervalSample>,
    /// Packet lifecycle spans, in packet-id order, capped at
    /// [`TelemetryConfig::span_limit`].
    pub spans: Vec<PacketSpan>,
    /// Packets whose span was not recorded because the cap was reached.
    pub dropped_spans: u64,
    /// Fault/retune/watchdog events, in cycle order.
    pub events: Vec<TimelineEvent>,
    /// Per-hop delay-attribution records, sorted by `(packet,
    /// arrived_at)` so each packet's chain is contiguous and in traversal
    /// order. Empty unless the profile was on.
    pub hops: Vec<HopRecord>,
    /// Hop records not recorded because [`TelemetryConfig::hop_limit`]
    /// was reached.
    pub dropped_hops: u64,
}

impl TelemetryReport {
    /// Index of the sample covering `cycle`, if any.
    pub fn sample_index_at(&self, cycle: u64) -> Option<usize> {
        self.samples
            .iter()
            .position(|s| cycle >= s.start && cycle < s.start + s.cycles.max(1))
    }

    /// Total flit grants per output port (`router * ports + port`) summed
    /// over every sample — equals `RunStats::port_flits` plus warmup/drain
    /// traffic.
    pub fn total_port_grants(&self) -> Vec<u64> {
        let mut total = vec![0u64; self.routers * self.ports];
        for s in &self.samples {
            for (t, g) in total.iter_mut().zip(&s.port_grants) {
                *t += g;
            }
        }
        total
    }

    /// The events whose cycle falls inside sample `i`.
    pub fn events_in_sample(&self, i: usize) -> impl Iterator<Item = &TimelineEvent> {
        let (start, end) = match self.samples.get(i) {
            Some(s) => (s.start, s.start + s.cycles.max(1)),
            None => (u64::MAX, u64::MAX),
        };
        self.events.iter().filter(move |e| e.cycle >= start && e.cycle < end)
    }

    /// Whole-run completion-latency histogram: the per-interval
    /// [`IntervalSample::latency_hist`] summed over every sample. Bucket
    /// `i` spans [`latency_bucket_bounds`]`(i)`; bucket counts sum to the
    /// total completed-packet count.
    pub fn total_latency_histogram(&self) -> [u64; LATENCY_BUCKETS] {
        let mut hist = [0u64; LATENCY_BUCKETS];
        for s in &self.samples {
            for (h, &v) in hist.iter_mut().zip(&s.latency_hist) {
                *h += v;
            }
        }
        hist
    }

    /// The recorded span of `packet`, if any. Spans are stored in packet-id
    /// order, so this is a binary search.
    pub fn span_of_packet(&self, packet: u32) -> Option<&PacketSpan> {
        self.spans
            .binary_search_by_key(&packet, |s| s.packet)
            .ok()
            .map(|i| &self.spans[i])
    }

    /// The hop chain of `packet` in traversal order (empty unless the
    /// profile recorded it).
    pub fn hops_of(&self, packet: u32) -> &[HopRecord] {
        let lo = self.hops.partition_point(|h| h.packet < packet);
        let hi = self.hops.partition_point(|h| h.packet <= packet);
        &self.hops[lo..hi]
    }

    /// Per-output-port contention blame (`router * ports + port`): the total
    /// VA + SA wait cycles packets spent acquiring each output link or RF
    /// band. Each stalled packet-cycle is attributed to exactly *one*
    /// port — the one the packet was ultimately granted at that hop — so
    /// summing blame over ports equals summing contention over packets
    /// (no double counting). A packet that waited on a busy RF port and
    /// then adaptively detoured to the mesh blames the mesh port it took;
    /// the approximation is documented in DESIGN.md. Empty unless the
    /// profile was on.
    pub fn contention_blame(&self) -> Vec<u64> {
        if self.hops.is_empty() {
            return Vec::new();
        }
        let mut blame = vec![0u64; self.routers * self.ports];
        for h in &self.hops {
            blame[h.router as usize * self.ports + h.port_out as usize] +=
                h.va_wait() + h.sa_wait();
        }
        blame
    }

    /// The delay attribution of one profiled packet, or `None` when the
    /// packet has no complete span + hop chain (profile off, span or hop
    /// cap hit, still in flight, or a tree-multicast packet).
    ///
    /// The returned components partition the packet's end-to-end latency
    /// exactly — see [`DelayBreakdown`].
    pub fn attribution(&self, packet: u32) -> Option<DelayBreakdown> {
        let span = self.span_of_packet(packet)?;
        if !span.is_complete() {
            return None;
        }
        let chain = self.hops_of(packet);
        // A complete unicast chain has exactly hops+1 router traversals
        // (span.hops counts routers minus one); anything shorter was
        // truncated by the hop cap.
        if chain.is_empty() || chain.len() != span.hops as usize + 1 {
            return None;
        }
        let mut b = DelayBreakdown {
            source_queue: chain[0].arrived_at.saturating_sub(span.injected_at),
            hops: chain.len() as u32,
            took_rf: span.took_rf,
            total: span.ejected_at - span.injected_at,
            ..DelayBreakdown::default()
        };
        for (i, h) in chain.iter().enumerate() {
            b.route += HOP_ROUTE_CYCLES;
            b.switch += HOP_SWITCH_CYCLES;
            b.va_wait += h.va_wait();
            b.sa_wait += h.sa_wait();
            b.credit_wait += h.credit_waits as u64;
            // Link traversal to the next router; the destination hop ends
            // with the 2-cycle ejection-port crossing instead.
            b.link += match chain.get(i + 1) {
                Some(next) => next.arrived_at.saturating_sub(h.granted_at),
                None => 2,
            };
        }
        // Body/tail flits stream behind the head: ejection completes the
        // head 2 cycles after its final grant, the packet when the last
        // flit lands.
        let head_ejected = chain.last().map_or(0, |h| h.granted_at + 2);
        b.tail_serialization = span.ejected_at.saturating_sub(head_ejected);
        Some(b)
    }
}

/// Live telemetry accumulator state, attached to the network when
/// [`crate::SimConfig::telemetry`] is set.
#[derive(Debug)]
pub(super) struct TelemetryState {
    cfg: TelemetryConfig,
    routers: usize,
    /// Stride of the per-port vectors (the network's `max_ports`).
    ports: usize,
    /// First cycle of the interval being accumulated.
    interval_start: u64,
    /// The interval currently accumulating: the sweep writes its port
    /// grants here, and the replay adds the shards' counters.
    pub(super) cur: IntervalSample,
    /// Flushed samples.
    samples: Vec<IntervalSample>,
    /// Span index per packet id (`u32::MAX` = none), grown on demand so it
    /// stays parallel with the packet table across runs.
    span_of: Vec<u32>,
    spans: Vec<PacketSpan>,
    dropped_spans: u64,
    events: Vec<TimelineEvent>,
    /// The in-progress hop of each span's packet (parallel to `spans`,
    /// profile only): timestamps accumulate here between the
    /// head's arrival and its switch grant, then flush into `hops`.
    open_hops: Vec<OpenHop>,
    hops: Vec<HopRecord>,
    dropped_hops: u64,
}

const NO_SPAN: u32 = u32::MAX;

/// Scratch for the hop a profiled packet currently occupies.
#[derive(Debug, Clone, Copy)]
struct OpenHop {
    router: u32,
    port_in: u8,
    credit_waits: u32,
    /// `u64::MAX` = no hop open.
    arrived_at: u64,
    va_done_at: u64,
}

const NO_HOP: OpenHop = OpenHop {
    router: 0,
    port_in: 0,
    credit_waits: 0,
    arrived_at: u64::MAX,
    va_done_at: u64::MAX,
};

impl TelemetryState {
    pub(super) fn new(cfg: TelemetryConfig, routers: usize, ports: usize) -> Self {
        Self {
            cfg,
            routers,
            ports,
            interval_start: 0,
            cur: IntervalSample::zeroed(0, routers, ports),
            samples: Vec::new(),
            span_of: Vec::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            events: Vec::new(),
            open_hops: Vec::new(),
            hops: Vec::new(),
            dropped_hops: 0,
        }
    }

    /// Whether the per-hop profile is recording.
    pub(super) fn profiling(&self) -> bool {
        self.cfg.profile
    }

    /// The open-hop scratch slot of `packet`, when the profile is on and
    /// the packet holds a span slot.
    fn open_hop(&mut self, packet: u32) -> Option<&mut OpenHop> {
        if !self.profiling() {
            return None;
        }
        let idx = *self.span_of.get(packet as usize)?;
        if idx == NO_SPAN {
            return None;
        }
        self.open_hops.get_mut(idx as usize)
    }

    /// Closes the current interval at `end` cycles covered and opens the
    /// next one.
    fn flush_interval(&mut self, covered: u64, in_flight: u64) {
        self.cur.cycles = covered;
        self.cur.in_flight_end = in_flight;
        let next_start = self.interval_start + covered;
        let next = IntervalSample::zeroed(next_start, self.routers, self.ports);
        self.samples.push(std::mem::replace(&mut self.cur, next));
        self.interval_start = next_start;
    }

    fn span_slot(&mut self, packet: u32) -> Option<&mut PacketSpan> {
        let idx = *self.span_of.get(packet as usize)?;
        if idx == NO_SPAN {
            return None;
        }
        self.spans.get_mut(idx as usize)
    }

    /// Applies one telemetry operation. Every sweep-phase hook arrives
    /// here from `replay_shards`, one shard buffer after another in shard
    /// order, whatever the shard count; serial-phase packet creations
    /// arrive directly ([`Network::tel_packet_created`]). `now` is the
    /// cycle being stepped.
    pub(super) fn apply_op(&mut self, now: u64, op: sweep::TelOp) {
        use sweep::TelOp as Op;
        match op {
            Op::PacketCreated { packet, src, dest, created, measured } => {
                self.on_packet_created(packet, src, dest, created, measured);
            }
            Op::HopArrived { packet, r, port, at } => {
                self.on_hop_arrived(packet, r as usize, port as usize, at);
            }
            Op::HopVa { packet } => self.on_hop_va(packet, now),
            Op::HopCredit { packet } => self.on_hop_credit(packet),
            Op::Grant { packet, first, is_rf } => self.on_grant(packet, first, is_rf, now),
            Op::HopGranted { packet, r, out } => {
                self.on_hop_granted(packet, r as usize, out as usize, now);
            }
            Op::PacketDone { packet, created, head_grants, at } => {
                self.on_packet_done(packet, created, head_grants, at);
            }
        }
    }

    /// Registers a freshly created packet: opens its lifecycle span.
    /// `dest` is the destination router (`u32::MAX` for a multicast tree
    /// packet).
    pub(super) fn on_packet_created(
        &mut self,
        packet: u32,
        src: u32,
        dest: u32,
        injected_at: u64,
        measured: bool,
    ) {
        if self.span_of.len() <= packet as usize {
            self.span_of.resize(packet as usize + 1, NO_SPAN);
        }
        if self.spans.len() >= self.cfg.span_limit {
            self.dropped_spans += 1;
            return;
        }
        self.span_of[packet as usize] = self.spans.len() as u32;
        if self.profiling() {
            self.open_hops.push(NO_HOP);
        }
        self.spans.push(PacketSpan {
            packet,
            src,
            dest,
            injected_at,
            first_grant_at: u64::MAX,
            ejected_at: u64::MAX,
            hops: 0,
            took_rf: false,
            measured,
        });
    }

    /// Marks a switch grant on the packet's span: `first` for the head
    /// flit's first grant anywhere, `is_rf` for a grant onto an RF port.
    fn on_grant(&mut self, packet: u32, first: bool, is_rf: bool, now: u64) {
        if let Some(span) = self.span_slot(packet) {
            if first {
                span.first_grant_at = now;
            }
            if is_rf {
                span.took_rf = true;
            }
        }
    }

    /// Records one flit transmitted on the RF broadcast band.
    pub(super) fn on_rf_mc_flit(&mut self) {
        self.cur.rf_mc_flits += 1;
    }

    /// Records one injected message.
    pub(super) fn on_injected(&mut self) {
        self.cur.injected += 1;
    }

    /// Records a packet whose last flit just ejected: the completion
    /// count, the latency histogram, and the span's eject stamp. `created`
    /// and `head_grants` are the packet's values at ejection.
    fn on_packet_done(&mut self, packet: u32, created: u64, head_grants: u32, at: u64) {
        self.cur.completed_packets += 1;
        self.cur.latency_hist[latency_bucket(at.saturating_sub(created))] += 1;
        if let Some(span) = self.span_slot(packet) {
            span.ejected_at = at;
            span.hops = head_grants.saturating_sub(1);
        }
    }

    /// Opens a hop record: a profiled unicast head flit entered router
    /// `r`'s input buffer on `port` at cycle `at`. (The unicast-only gate
    /// lives at the emission site, which has packet-table access.)
    fn on_hop_arrived(&mut self, packet: u32, r: usize, port: usize, at: u64) {
        if let Some(h) = self.open_hop(packet) {
            *h = OpenHop {
                router: r as u32,
                port_in: port as u8,
                credit_waits: 0,
                arrived_at: at,
                va_done_at: u64::MAX,
            };
        }
    }

    /// Stamps the open hop's VC-allocation success cycle.
    fn on_hop_va(&mut self, packet: u32, now: u64) {
        if let Some(h) = self.open_hop(packet) {
            if h.arrived_at != u64::MAX {
                h.va_done_at = now;
            }
        }
    }

    /// Counts one credit-refused head-flit switch grant on the open hop.
    fn on_hop_credit(&mut self, packet: u32) {
        if let Some(h) = self.open_hop(packet) {
            if h.arrived_at != u64::MAX {
                h.credit_waits += 1;
            }
        }
    }

    /// Closes the open hop on a head-flit switch grant at router `r`
    /// toward `out`, flushing the [`HopRecord`] (hop-cap permitting).
    fn on_hop_granted(&mut self, packet: u32, r: usize, out: usize, now: u64) {
        let Some(h) = self.open_hop(packet) else { return };
        if h.arrived_at == u64::MAX || h.va_done_at == u64::MAX || h.router != r as u32 {
            return;
        }
        let done = *h;
        *h = NO_HOP;
        if self.hops.len() >= self.cfg.hop_limit {
            self.dropped_hops += 1;
            return;
        }
        self.hops.push(HopRecord {
            packet,
            router: done.router,
            port_in: done.port_in,
            port_out: out as u8,
            credit_waits: done.credit_waits,
            arrived_at: done.arrived_at,
            va_done_at: done.va_done_at,
            granted_at: now,
        });
    }

    /// Appends a timeline event at `cycle`.
    pub(super) fn on_event(&mut self, cycle: u64, kind: TimelineEventKind) {
        self.events.push(TimelineEvent { cycle, kind });
    }
}

impl Network {
    /// Per-cycle telemetry work, called once at the end of every
    /// [`Network::step`]: adds each router's buffered flits to the
    /// occupancy series and flushes the interval at its boundary. No-op
    /// when telemetry is disabled.
    ///
    /// Input buffers change only inside the sweep (`deliver_arrivals`
    /// and the retire in `try_grant`), so at this cycle boundary the
    /// routers hold the cycle's final count.
    #[inline]
    pub(super) fn step_telemetry(&mut self) {
        let cycle = self.cycle;
        let in_flight = self.measured_outstanding;
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        for (r, router) in self.routers.iter().enumerate() {
            if router.occupied_ports() == 0 {
                continue;
            }
            let b = router.buffered_flits();
            t.cur.buffered_cycles[r] += u64::from(b);
            if b > t.cur.buffered_peak[r] {
                t.cur.buffered_peak[r] = b;
            }
        }
        let covered = cycle - t.interval_start;
        if covered >= t.cfg.interval {
            t.flush_interval(covered, in_flight);
        }
    }

    /// Flushes the partial final interval and moves the report into
    /// `self.stats.telemetry`; the accumulator is reset so a subsequent
    /// `run` starts a fresh time series.
    pub(super) fn finish_telemetry(&mut self) {
        let cycle = self.cycle;
        let in_flight = self.measured_outstanding;
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        let covered = cycle - t.interval_start;
        if covered > 0 {
            t.flush_interval(covered, in_flight);
        }
        // Hop records land in switch-grant order; each packet's chain is
        // made contiguous here so report queries are range lookups.
        t.hops.sort_unstable_by_key(|h| (h.packet, h.arrived_at));
        let report = TelemetryReport {
            interval: t.cfg.interval,
            profile: t.cfg.profile,
            routers: t.routers,
            ports: t.ports,
            samples: std::mem::take(&mut t.samples),
            spans: std::mem::take(&mut t.spans),
            dropped_spans: std::mem::take(&mut t.dropped_spans),
            events: std::mem::take(&mut t.events),
            hops: std::mem::take(&mut t.hops),
            dropped_hops: std::mem::take(&mut t.dropped_hops),
        };
        t.span_of.clear();
        t.open_hops.clear();
        self.stats.telemetry = Some(Box::new(report));
    }

    /// Registers a packet created in a serial phase (injection, the
    /// multicast engine): opens its lifecycle span at once. A packet created
    /// mid-sweep (a tree-multicast child, [`super::sweep::Sweep::new_packet`])
    /// buffers the same [`sweep::TelOp::PacketCreated`] for the replay
    /// instead.
    #[inline]
    pub(super) fn tel_packet_created(&mut self, packet: u32) {
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        t.apply_op(self.cycle, sweep::TelOp::packet_created(packet, self.packets.get(packet)));
    }

    /// Records one flit transmitted on the RF broadcast band.
    #[inline]
    pub(super) fn tel_rf_mc_flit(&mut self) {
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        t.on_rf_mc_flit();
    }

    /// Records one injected message.
    #[inline]
    pub(super) fn tel_injected(&mut self) {
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        t.on_injected();
    }

    /// The one timeline call: hands an event at the current cycle to
    /// every observer that is on — the recovery tracker, the run ledger's
    /// stream (which carries the events even with telemetry off) and the
    /// telemetry timeline.
    #[inline]
    pub(super) fn tel_event(&mut self, kind: TimelineEventKind) {
        let cycle = self.cycle;
        if let Some(r) = self.recovery.as_deref_mut() {
            r.on_event(cycle, kind);
        }
        if let Some(l) = self.ledger.as_deref_mut() {
            l.on_event(cycle, kind);
        }
        let Some(t) = self.telemetry.as_deref_mut() else { return };
        t.on_event(cycle, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_cover_the_line() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(15), 0);
        assert_eq!(latency_bucket(16), 1);
        assert_eq!(latency_bucket(31), 1);
        assert_eq!(latency_bucket(32), 2);
        assert_eq!(latency_bucket(1023), 6);
        assert_eq!(latency_bucket(1024), 7);
        assert_eq!(latency_bucket(u64::MAX), 7);
        for i in 0..LATENCY_BUCKETS {
            let (lo, hi) = latency_bucket_bounds(i);
            assert!(lo < hi);
            assert_eq!(latency_bucket(lo), i);
            if hi != u64::MAX {
                assert_eq!(latency_bucket(hi - 1), i);
            }
        }
    }
}
