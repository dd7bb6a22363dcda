//! The sharded sweep: per-shard state for multi-threaded router stepping.
//!
//! `step_routers` is the only engine phase that parallelises: every other
//! phase (fault application, reconfiguration, injection bookkeeping, the
//! multicast engine, telemetry interval flushes) stays serial. The fabric
//! is partitioned into [`shard_ranges`] — contiguous router ranges, fixed
//! at construction — and each shard steps its routers through the full
//! per-router pipeline (arrival delivery, injection, VC allocation, switch
//! allocation) using only state it owns:
//!
//! * its slice of the router array, the active-stamp list, the
//!   per-router statistics vectors (`router_bytes`, `port_flits`,
//!   `per_dest`) and, with telemetry on, the open interval sample's
//!   `port_grants`;
//! * a private [`ShardBuf`] collecting what leaves the shard or touches
//!   global state: flit deliveries and credit returns addressed to
//!   *another* shard's routers, multicast enqueues, message completions,
//!   order-dependent telemetry operations, and scalar statistics and
//!   telemetry counter deltas — plus the shard-local credit list and the
//!   fixed-capacity switch-allocation request scratch ([`SaRequests`]).
//!
//! A shard is the only writer of its routers during the sweep, so a link
//! event (a granted flit, or the credit its departure frees) has one of
//! three destinations:
//!
//! 1. **In place.** A flit whose target router is in the shard is pushed
//!    onto the target's arrival FIFO at the grant, and the target is
//!    stamped for the next sweep ([`Sweep::send_flit`]).
//! 2. **Shard-local list.** A credit whose upstream router is in the shard
//!    is listed and returned by the same worker at the end of `run_shard`,
//!    after its last router visit.
//! 3. **Boundary outbox.** A flit or credit addressed to another shard is
//!    listed in `ShardBuf::deliveries` / `credit_returns`; the main thread
//!    applies those in shard order after the barrier (`apply_outboxes`).
//!
//! A router visit tests the router's header masks before each stage (see
//! `crate::router`): no link arrivals, an idle injector, no unparked head
//! awaiting VA, or no claimed VC each skip their stage with one compare,
//! and a stage that runs walks only the ports whose bit is set.
//!
//! Shared state is read-only during the sweep ([`SweepShared`] snapshots
//! the routes and per-cycle flags) except for three per-packet
//! fields (`ejected`, `head_grants`, `mesh_only`) which are atomics with
//! relaxed ordering: each has exactly one logical writer per cycle (a
//! packet's head flit sits in one router; its ejections all happen at its
//! single destination), so the atomics only serve to make the concurrent
//! *reads* from other shards well-defined, and the pool's cycle-boundary
//! barriers provide the cross-cycle happens-before edges.
//!
//! Determinism: what a router visit does depends on the router's state as
//! the visit finds it, and none of the three destinations changes what any
//! visit of the *same* sweep finds. A flit sent at cycle `now` lands at
//! `now + 2` or later and arrivals are popped against `now`, so a target
//! visited later in the sweep leaves it on the link; each input port has
//! one upstream router, so its FIFO holds that sender's flits in grant
//! order whichever thread appends them; credits are returned only after
//! the shard's last visit, and returning a credit commutes with every
//! other credit return. The network at every cycle boundary — all that
//! the serial phases, `debug_validate` and the observers read — is
//! therefore the same whatever the shard count, and the same as if every
//! event had gone through one ordered outbox. The observer side effects
//! are of two kinds. Plain counts — the statistics deltas and the
//! telemetry counters ([`TelCounts`]) — are summed at replay, where order
//! cannot matter. Completions and the telemetry operations whose effect
//! depends on their order ([`TelOp`]: span slots and hop records are
//! handed out under caps) are buffered by every shard and replayed in
//! shard order — ascending-router order, the visit order of the one-shard
//! engine — so they land in the bit-identical sequence at any shard
//! count. The serial engine is the
//! one-shard case of this same code path: every link event is in place or
//! shard-local, its one view runs inline on the calling thread, and its
//! observer side effects take the same buffer and replay as a shard's.
//! That is how the golden-hash and observer-pin suites pin both.
//!
//! Allocation: the shard buffers, the request scratch and the shard ranges
//! persist across cycles, so a one-shard cycle allocates nothing in the
//! steady state. A sharded cycle still builds its vector of shard tasks
//! in `step_routers` — the one break in the rule, see the comment there.

#[allow(clippy::wildcard_imports)]
use super::*;
use std::sync::atomic::Ordering::Relaxed;

/// The contiguous router ranges the sharded engine assigns to `threads`
/// worker shards over a fabric of `routers` routers: `threads` half-open
/// `(start, end)` ranges in ascending order that cover every router
/// exactly once, balanced to within one router. Thread counts above the
/// router count (or zero) are clamped.
pub fn shard_ranges(routers: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.clamp(1, routers.max(1));
    let base = routers / t;
    let extra = routers % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Read-only per-cycle snapshot shared by every shard: configuration,
/// routes, and the serial-phase flags the router pipeline consults.
pub(super) struct SweepShared<'a> {
    pub cycle: u64,
    pub counting: bool,
    /// The sweep's epoch `e`; a visited non-quiescent router re-stamps
    /// itself `e + 1`.
    pub epoch: u64,
    pub config: &'a SimConfig,
    /// VC masks of the two classes: escape VCs are `0..vcs_escape`,
    /// adaptive VCs the rest.
    pub escape_vcs: u32,
    pub adaptive_vcs: u32,
    /// The fabric's base (escape) routes.
    pub base_routes: &'a BaseRoutes,
    pub base_ports: &'a [u8],
    pub max_ports: usize,
    /// Unicast routes, present on a shortest-path network.
    pub routes: Option<&'a Routes>,
    /// Escape routes over the surviving base links, while one is down.
    pub escape: Option<&'a Detour>,
    /// RF-multicast cluster of each router, when RF multicast is active.
    pub cluster_of: Option<&'a [Option<usize>]>,
    /// False while a reconfiguration drains the RF ports.
    pub rf_accepting: bool,
    /// True while a routing-table rewrite stalls injection.
    pub injection_stalled: bool,
}

impl SweepShared<'_> {
    /// Local (core-side) port slot of router `r`.
    #[inline]
    pub fn local_port(&self, r: usize) -> usize {
        self.base_ports[r] as usize
    }

    /// The output port toward `dest` under the active routing mode.
    pub fn route_port(&self, router: NodeId, dest: NodeId) -> u8 {
        if router == dest {
            return self.local_port(router) as u8;
        }
        match self.routes {
            Some(routes) => routes.port(router, dest),
            None => self.escape_port(router, dest),
        }
    }

    /// The escape (base-fabric-only) output port toward `dest`.
    pub fn escape_port(&self, router: NodeId, dest: NodeId) -> u8 {
        escape_port(self.escape, self.base_routes, self.base_ports, router, dest)
    }
}

/// The escape out port from `router` toward `dest` on a network whose
/// routers have `base_ports` base slots each: the local slot at `dest`,
/// the fabric's base route on an intact fabric, the surviving-link routes
/// while a base link is down.
#[inline]
pub(super) fn escape_port(
    escape: Option<&Detour>,
    base_routes: &BaseRoutes,
    base_ports: &[u8],
    router: NodeId,
    dest: NodeId,
) -> u8 {
    if router == dest {
        base_ports[router]
    } else if let Some(t) = escape {
        t.ports[router * base_ports.len() + dest]
    } else {
        base_routes.port(router, dest)
    }
}

/// How a shard reaches the packet table.
pub(super) enum PacketAccess<'a> {
    /// A sweep over several shards: shared read access (the mutable
    /// per-packet fields are atomics).
    Shared(&'a PacketTable),
    /// A one-shard sweep: exclusive access, so tree multicast may allocate
    /// child packets mid-sweep.
    Owned(&'a mut PacketTable),
}

impl PacketAccess<'_> {
    #[inline]
    pub fn get(&self, id: u32) -> &PacketInfo {
        self.table().get(id)
    }

    /// The destination set of tree packet `tree`.
    pub fn tree(&self, tree: u32) -> DestSet {
        self.table().tree(tree)
    }

    #[inline]
    fn table(&self) -> &PacketTable {
        match self {
            PacketAccess::Shared(p) => p,
            PacketAccess::Owned(p) => p,
        }
    }
}

/// One telemetry event whose order matters, captured during the sweep and
/// replayed in shard order: span slots are handed out in creation order
/// under the span cap, and hop records are flushed in grant order under
/// the hop cap. Packet-derived values (source, destination, creation
/// cycle, head grants) are captured at emission so replay needs no
/// packet-table access. Plain counts go to [`TelCounts`] instead.
#[derive(Debug, Clone, Copy)]
pub(super) enum TelOp {
    /// A packet was created (see [`TelOp::packet_created`]).
    PacketCreated { packet: u32, src: u32, dest: u32, created: u64, measured: bool },
    HopArrived { packet: u32, r: u32, port: u8, at: u64 },
    HopVa { packet: u32 },
    HopCredit { packet: u32 },
    /// A span mark: the head flit's first grant, or a grant onto an RF
    /// port.
    Grant { packet: u32, first: bool, is_rf: bool },
    HopGranted { packet: u32, r: u32, out: u8 },
    PacketDone { packet: u32, created: u64, head_grants: u32, at: u64 },
}

impl TelOp {
    /// The creation of packet `id`, which opens its lifecycle span; `dest`
    /// is `u32::MAX` ([`Arrival::TREE`]) for a multicast tree packet.
    pub fn packet_created(id: u32, p: &PacketInfo) -> Self {
        let dest = p.head_dest();
        let (src, created, measured) = (p.src, u64::from(p.created), p.measured);
        TelOp::PacketCreated { packet: id, src, dest, created, measured }
    }
}

/// The telemetry counters of one shard's sweep, summed into the open
/// [`IntervalSample`] at replay (see the sample for what each counts).
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct TelCounts {
    pub rf_grants: u64,
    pub va_stalls: u64,
    pub sa_stalls: u64,
    pub credit_stalls: u64,
    pub ejected_flits: u64,
}

impl TelCounts {
    /// Adds the counts into `sample`.
    pub fn add_to(self, sample: &mut IntervalSample) {
        sample.rf_grants += self.rf_grants;
        sample.va_stalls += self.va_stalls;
        sample.sa_stalls += self.sa_stalls;
        sample.credit_stalls += self.credit_stalls;
        sample.ejected_flits += self.ejected_flits;
    }
}

/// A message-completion event observed during the sweep, replayed in shard
/// order so latency pushes, per-source counts, the outstanding-message
/// decrement, and recovery-convergence checks happen in the one-shard
/// engine's ascending-router order.
#[derive(Debug, Clone, Copy)]
pub(super) enum Completion {
    /// A measured unicast message's last flit ejected.
    Unicast { src: u32, created: u64, at: u64 },
    /// A multicast child covered `covered` destinations of its parent.
    ParentPart { parent: u32, covered: u32, at: u64 },
}

/// A flit handed to the link toward `router`'s input `port`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Delivery {
    pub router: u32,
    pub port: u8,
    pub arrival: Arrival,
}

/// One buffer credit returned to `router`'s output `(port, vc)`.
#[derive(Debug, Clone, Copy)]
pub(super) struct CreditReturn {
    pub router: u32,
    pub port: u8,
    pub vc: u8,
}

/// One switch-allocation request: input `(port, vc)` wants to send its
/// front flit, as unicast (`branch < 0`) or on multicast branch `branch`.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct SaRequest {
    pub port: u8,
    pub vc: u8,
    pub branch: i8,
}

/// Switch-allocation request scratch, one list per output slot, inline.
/// A request names a downstream VC its packet owns and each downstream VC
/// has one owner, so an output port collects at most one request per VC.
#[derive(Debug)]
pub(super) struct SaRequests {
    len: [u8; MAX_ROUTER_PORTS],
    reqs: [[SaRequest; MAX_VCS]; MAX_ROUTER_PORTS],
}

impl Default for SaRequests {
    fn default() -> Self {
        Self {
            len: [0; MAX_ROUTER_PORTS],
            reqs: [[SaRequest::default(); MAX_VCS]; MAX_ROUTER_PORTS],
        }
    }
}

impl SaRequests {
    /// Empties the lists of the first `ports` output slots.
    #[inline]
    pub fn clear(&mut self, ports: usize) {
        self.len[..ports].fill(0);
    }

    #[inline]
    pub fn push(&mut self, out: usize, req: SaRequest) {
        let n = self.len[out] as usize;
        self.reqs[out][n] = req;
        self.len[out] += 1;
    }

    /// The requests for output slot `out`, in collection order.
    #[inline]
    pub fn of(&self, out: usize) -> &[SaRequest] {
        &self.reqs[out][..self.len[out] as usize]
    }
}

/// Per-shard outbox: everything a shard produces that crosses shard
/// boundaries or mutates global state, plus its shard-local credit list.
/// Persistent across cycles, so filling it allocates nothing in the steady
/// state; replayed and cleared at each cycle boundary. Each buffer is
/// written by its own worker during the sweep, so it is aligned to two
/// cache lines: neighbouring buffers share no line, whatever their layout.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(super) struct ShardBuf {
    /// Flit handoffs to routers of *other* shards, applied by the main
    /// thread after the barrier (a handoff inside the shard is pushed onto
    /// the target's arrival FIFO during the sweep).
    pub deliveries: Vec<Delivery>,
    /// Credit returns to upstream routers of *other* shards, applied by
    /// the main thread after the barrier.
    pub credit_returns: Vec<CreditReturn>,
    /// Credit returns to upstream routers of this shard, applied by the
    /// shard itself at the end of `run_shard` — after its last router
    /// visit, so no visit sees a credit returned in its own sweep.
    pub local_credits: Vec<CreditReturn>,
    /// RF-multicast engine enqueues: `(cluster, parent)`.
    pub mc_enqueues: Vec<(usize, u32)>,
    /// Completions to replay (see [`Completion`]).
    pub completions: Vec<Completion>,
    /// Buffered order-dependent telemetry operations.
    pub tel_ops: Vec<TelOp>,
    /// Telemetry counters, added to the open interval sample at replay.
    pub tel_counts: TelCounts,
    /// Switch-allocation request scratch (reused by every router visit).
    pub sa_requests: SaRequests,
    /// Scalar statistics deltas, added to `RunStats` at replay.
    pub ejected_flits: u64,
    pub flit_latency_sum: u64,
    pub hops_sum: u64,
    pub hop_packets: u64,
    pub link_byte_hops: u64,
    pub rf_bytes: u64,
    /// Whether any switch grant happened in this shard (watchdog food).
    pub progress: bool,
    /// Routers visited by the last `run_shard` (ledger observability;
    /// written only by the shard that owns this buffer).
    pub swept: u64,
    /// Wall-clock nanoseconds the last `run_shard` took, when `timed`.
    pub sweep_ns: u64,
    /// Record per-sweep wall time (set at build only when the run ledger
    /// is enabled on the sharded engine; a one-shard sweep never reads the
    /// clock inside the sweep).
    pub timed: bool,
}

/// One shard's mutable view of the network for a single `step_routers`
/// sweep: the router/stamp/statistics slices it owns (indexed relative to
/// `base`), shared read-only state, and its outbox.
pub(super) struct Sweep<'a> {
    pub sh: &'a SweepShared<'a>,
    /// Global id of `routers[0]`.
    pub base: usize,
    pub routers: &'a mut [Router],
    pub stamps: &'a mut [u64],
    /// This shard's slice of `RunStats::activity::router_bytes`.
    pub router_bytes: &'a mut [u64],
    /// This shard's slice of `RunStats::port_flits` (stride `max_ports`).
    pub port_flits: &'a mut [u64],
    /// This shard's slice of `RunStats::per_dest`.
    pub per_dest: &'a mut [u32],
    pub packets: PacketAccess<'a>,
    /// This shard's slice of the open telemetry sample's `port_grants`
    /// (stride `max_ports`); `Some` exactly when telemetry is on, so it
    /// also gates the telemetry hooks.
    pub port_grants: Option<&'a mut [u64]>,
    /// Whether the per-hop profile records: the `Hop*` operations are
    /// emitted only then, as nothing else reads them.
    pub hop_on: bool,
    pub buf: &'a mut ShardBuf,
}

impl Sweep<'_> {
    /// Steps every active router in this shard through the full pipeline,
    /// in ascending router order (the serial engine's visit order).
    pub fn run_shard(&mut self) {
        let t0 = self.buf.timed.then(std::time::Instant::now);
        let e = self.sh.epoch;
        let mut swept: u64 = 0;
        for rl in 0..self.routers.len() {
            if self.stamps[rl] != e {
                continue;
            }
            swept += 1;
            let r = self.base + rl;
            if self.routers[rl].arrival_ports() != 0 {
                self.deliver_arrivals(r);
            }
            if !self.sh.injection_stalled && !self.routers[rl].injector_idle() {
                self.step_injector(r);
            }
            let mut va_stalls = 0;
            if self.routers[rl].va_ports() != 0 {
                va_stalls = self.step_va(r);
            }
            if self.tel_on() {
                // A parked head would have failed VA this cycle: it stalls.
                self.buf.tel_counts.va_stalls += va_stalls + self.routers[rl].parked_heads();
            }
            if self.routers[rl].occupied_ports() != 0 {
                self.step_sa(r);
            }
            if !self.routers[rl].quiescent() {
                self.stamps[rl] = e + 1;
            }
        }
        for CreditReturn { router, port, vc } in self.buf.local_credits.drain(..) {
            self.routers[router as usize - self.base].return_credit(port as usize, vc as usize);
        }
        self.buf.swept = swept;
        if let Some(t0) = t0 {
            self.buf.sweep_ns = t0.elapsed().as_nanos() as u64;
        }
    }

    /// Whether router `r` belongs to this shard.
    #[inline]
    fn owns(&self, r: usize) -> bool {
        r.wrapping_sub(self.base) < self.routers.len()
    }

    /// Hands a flit granted at router `from` to the link toward input
    /// `port` of router `target`. Inside the shard the flit goes straight
    /// onto the target's arrival FIFO — it lands at `now + 2` or later, so
    /// a target still to be visited this sweep leaves it on the link — and
    /// the target is stamped for the next sweep unless it is scheduled in
    /// this one and not yet visited (its own visit then re-stamps it: the
    /// pending arrival makes it non-quiescent). A target in another shard
    /// goes to the boundary outbox.
    #[inline]
    pub fn send_flit(&mut self, from: usize, target: usize, port: u8, arrival: Arrival) {
        if self.owns(target) {
            let tl = target - self.base;
            self.routers[tl].push_arrival(port as usize, arrival);
            let e = self.sh.epoch;
            if target < from || self.stamps[tl] != e {
                self.stamps[tl] = e + 1;
            }
        } else {
            self.buf.deliveries.push(Delivery { router: target as u32, port, arrival });
        }
    }

    /// Returns one buffer credit to output `(port, vc)` of `upstream`:
    /// deferred to the end of this shard's sweep when the shard owns it,
    /// through the boundary outbox otherwise.
    #[inline]
    pub fn send_credit(&mut self, upstream: usize, port: u8, vc: u8) {
        let credit = CreditReturn { router: upstream as u32, port, vc };
        if self.owns(upstream) {
            self.buf.local_credits.push(credit);
        } else {
            self.buf.credit_returns.push(credit);
        }
    }

    /// Whether telemetry is on.
    #[inline]
    pub fn tel_on(&self) -> bool {
        self.port_grants.is_some()
    }

    /// Buffers one telemetry operation for replay.
    #[inline]
    pub fn tel(&mut self, op: TelOp) {
        self.buf.tel_ops.push(op);
    }

    /// The packet table, held exclusively. Only a one-shard sweep holds
    /// it so, which is where VCT multicast, the one packet allocator
    /// mid-sweep, always runs.
    pub fn owned_packets(&mut self) -> &mut PacketTable {
        let PacketAccess::Owned(packets) = &mut self.packets else {
            unreachable!("tree multicast allocates packets mid-sweep; it runs on one shard")
        };
        packets
    }

    /// Allocates a mid-sweep packet (tree-multicast children).
    pub fn new_packet(&mut self, p: PacketInfo) -> u32 {
        let tel_on = self.tel_on();
        let packets = self.owned_packets();
        let id = packets.push(p);
        if tel_on {
            let op = TelOp::packet_created(id, packets.get(id));
            self.tel(op);
        }
        id
    }

    /// Handles a flit leaving the network at `router` at time `at`.
    pub fn on_flit_ejected(&mut self, packet: u32, router: NodeId, at: u64) {
        let (measured, created, flits, ejected) = {
            let p = self.packets.get(packet);
            let ejected = p.ejected.load(Relaxed) + 1;
            p.ejected.store(ejected, Relaxed);
            (p.measured, u64::from(p.created), u32::from(p.flits), ejected)
        };
        if measured {
            self.buf.ejected_flits += 1;
            self.buf.flit_latency_sum += at.saturating_sub(created);
        }
        if self.tel_on() {
            self.buf.tel_counts.ejected_flits += 1;
        }
        if ejected == flits {
            let (parent, mc_carry, src, head_grants) = {
                let p = self.packets.get(packet);
                (p.parent(), p.mc_carry, p.src, p.head_grants.load(Relaxed))
            };
            if measured && head_grants > 0 {
                self.buf.hops_sum += (head_grants - 1) as u64;
                self.buf.hop_packets += 1;
            }
            if self.tel_on() {
                self.tel(TelOp::PacketDone { packet, created, head_grants, at });
            }
            if measured && !mc_carry {
                self.per_dest[router - self.base] += 1;
            }
            if mc_carry {
                let cluster = self
                    .sh
                    .cluster_of
                    .and_then(|c| c[router])
                    .expect("carry packets terminate at cluster transmitters");
                let parent = parent.expect("carry packets have a parent");
                self.buf.mc_enqueues.push((cluster, parent));
            } else if let Some(par) = parent {
                self.buf.completions.push(Completion::ParentPart { parent: par, covered: 1, at });
            } else if measured {
                self.buf.completions.push(Completion::Unicast { src, created, at });
            }
        }
    }
}
