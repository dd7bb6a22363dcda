//! Router microarchitecture: one flat state block per router.
//!
//! Routers are degree-generic: each allocates `base + 2` port slots, where
//! `base` is the fabric's per-router base-slot count (mesh routers have the
//! four N/S/E/W directions, ring stations two, ring gateways six). Slot
//! `base` is the local port to the attached core/cache/memory element and
//! slot `base + 1` the RF-I transmitter/receiver port (paper §3.2). Absent
//! ports within the base range are marked non-existent.
//!
//! # Layout
//!
//! A [`Router`] is a 256-byte header (64-byte aligned) plus seven
//! fixed-size slices allocated once at construction and addressed by
//! `port * vcs + vc` arithmetic — no per-VC or per-port heap objects. At
//! the paper's shape (6 ports, 12 VCs, 4-flit buffers) the slices hold
//! 3,000 B:
//!
//! * **header** — port/VC/depth shape, the summary masks the sweep tests
//!   before entering a pipeline stage (which ports have link arrivals,
//!   claimed VCs, heads VA should try; which injection VCs are streaming)
//!   and the injection queue, all in its first cache line. A stage with
//!   nothing to do costs one compare, and a stage with work touches only
//!   the ports that have it;
//! * **input-port records** (28 B) — upstream link, the length of the
//!   port's claimed-VC list, the masks of VCs whose head awaits VC
//!   allocation / is parked / holds an output allocation, and the
//!   head/tail of the port's link-arrival FIFO;
//! * **occupied lists** (1 B a VC) — each input port's claimed VCs, in
//!   claim order;
//! * **VC records** (16 B) — current packet and its unicast destination
//!   (carried in by the head flit), unicast allocation (or, while the
//!   head is parked, the output ports it waits on), flags, ring
//!   head/length;
//! * **flit rings** (4 B a slot) — `depth` slots per VC in one slice. A VC
//!   holds one packet at a time and its flits arrive in index order, so a
//!   slot stores only the flit's `eligible` cycle stamp (see
//!   [`crate::config::CYCLE_LIMIT`]); packet and index come from the VC
//!   record;
//! * **output-port records** (32 B) — target, capacity, round-robin
//!   cursor, the `owned` mask, the derived **free-VC mask** that makes VC
//!   allocation a `trailing_zeros`, and the input ports with a head parked
//!   on this port;
//! * **credits** (1 B a VC) — each output port's remaining downstream
//!   buffer credits;
//! * **injector streams** (16 B a VC) — per local-input VC, the packet
//!   being streamed.
//!
//! Two structures grow on demand: the link-arrival slab (one `Vec` of
//! list nodes shared by the router's ports) and the cold multicast table
//! (entries exist only while a VCT tree packet occupies a VC).
//!
//! Every derived field (masks, list links) is private and
//! mutated only by the methods below; [`Router::validate`] recomputes each
//! from primary state.
//!
//! # Parked heads
//!
//! A unicast head that fails VC allocation is *parked* ([`Router::park`])
//! on the output ports it asked for: VA skips it until one of them gains
//! a free VC of the class it asked for there (a credit or a tail release
//! frees one, or a repair clears the fail-stop flag), which unparks it. The invariant is that a parked head
//! would fail VA if it were tried now; [`Router::validate`] checks it.
//! Anything that changes a head's request — a routing-table rewrite, RF
//! ports closing or reopening — unparks every head
//! ([`Router::unpark_all`]). Waking early is always safe.

use crate::config::CYCLE_LIMIT;
use crate::flit::Flit;
use std::collections::VecDeque;

/// Compile-time cap on per-router port count, used to size fixed scratch
/// arrays in the allocation loops (multicast partition groups, VA tree
/// children, SA request lists). Network construction rejects fabrics
/// whose widest router would exceed it.
pub(crate) const MAX_ROUTER_PORTS: usize = 16;

/// Cap on virtual channels per port: the width of the per-port VC masks.
pub(crate) const MAX_VCS: usize = 32;

/// Cap on the flit-buffer depth: ring positions and credits are `u8`.
pub(crate) const MAX_BUFFER_DEPTH: usize = u8::MAX as usize;

/// "No router / no packet / end of list" in the `u32` link fields.
const NONE: u32 = u32::MAX;

/// The mask with the low `n` bits set (`n <= 32`).
#[inline]
pub(crate) fn low_mask(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// The set bits of `mask`, ascending.
#[inline]
pub(crate) fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The set bits of `mask` in round-robin order: from bit `start` upward,
/// then wrapping to the bits below it.
#[inline]
pub(crate) fn bits_from(mask: u32, start: usize) -> impl Iterator<Item = usize> {
    let below = low_mask(start);
    bits(mask & !below).chain(bits(mask & below))
}

const VC_ALLOCATED: u8 = 1;
const VC_MC_ROUTED: u8 = 2;

/// Hot state of one input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VcState {
    /// Packet occupying this VC (claimed head → tail), `NONE` when free.
    packet: u32,
    /// Destination router of a unicast packet (`NONE` for a tree packet),
    /// taken from the head flit when it claims the VC so VA never touches
    /// the packet table for a unicast.
    dest: u32,
    /// Flit index of the ring's front flit.
    front_idx: u16,
    /// Unicast allocation: output port (valid when allocated). While the
    /// head is parked: the port it asked for in its own VC class.
    out_port: u8,
    /// Unicast allocation: downstream VC (valid when allocated). While the
    /// head is parked: the escape port it asked for in the escape class.
    out_vc: u8,
    flags: u8,
    /// Ring position of the front flit.
    head: u8,
    /// Buffered flits.
    len: u8,
}

impl VcState {
    const FREE: Self = Self {
        packet: NONE,
        dest: NONE,
        front_idx: 0,
        out_port: 0,
        out_vc: 0,
        flags: 0,
        head: 0,
        len: 0,
    };

    /// Packet currently occupying this VC.
    #[inline]
    pub fn cur_packet(&self) -> Option<u32> {
        (self.packet != NONE).then_some(self.packet)
    }

    /// Route information of the packet on this VC, as its head flit
    /// carried it (see [`Arrival::dest`]).
    #[inline]
    pub fn dest(&self) -> u32 {
        self.dest
    }

    /// Whether VA has completed for the current unicast packet.
    #[inline]
    pub fn allocated(&self) -> bool {
        self.flags & VC_ALLOCATED != 0
    }

    /// Whether the multicast route (partition) has been computed; the
    /// branches then live in the router's cold multicast table.
    #[inline]
    pub fn mc_routed(&self) -> bool {
        self.flags & VC_MC_ROUTED != 0
    }

    #[inline]
    pub fn out_port(&self) -> usize {
        self.out_port as usize
    }

    #[inline]
    pub fn out_vc(&self) -> u8 {
        self.out_vc
    }

    /// Buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

/// One input port: upstream link, length of its claimed-VC list, VA/SA
/// masks, and the ends of its link-arrival FIFO (28 bytes).
#[derive(Debug, Clone, Copy)]
struct InPort {
    /// Upstream router to credit on buffer release; `NONE` for the local
    /// injection port (credited via the injector) and absent ports.
    upstream_router: u32,
    /// First / last node of this port's arrival FIFO in the router's slab.
    arr_head: u32,
    arr_tail: u32,
    /// VCs whose head flit still needs VC allocation.
    va_mask: u32,
    /// The VCs of `va_mask` whose head is parked.
    parked: u32,
    /// VCs holding an output allocation (unicast, or at least one tree
    /// branch): the only ones that can request the switch.
    sa_mask: u32,
    upstream_port: u8,
    exists: bool,
    /// Length of the port's claimed-VC list ([`Router::occupied`]).
    occ_len: u8,
}

impl InPort {
    const ABSENT: Self = Self {
        upstream_router: NONE,
        arr_head: NONE,
        arr_tail: NONE,
        va_mask: 0,
        parked: 0,
        sa_mask: 0,
        upstream_port: 0,
        exists: false,
        occ_len: 0,
    };
}

const OUT_EXISTS: u8 = 1;
/// Fail-stop fault flag: a failed port refuses *new* packet allocations
/// while wormholes already holding a VC drain normally (credits keep
/// flowing), so teardown is credit-safe.
const OUT_FAILED: u8 = 2;
const OUT_WIRE: u8 = 4;

/// What an output port drives.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OutLink {
    /// Downstream `(router, input port)`; `None` for the ejection (local)
    /// port, which sinks flits.
    pub target: Option<(usize, u8)>,
    /// Flits this port can accept per cycle (1 for mesh; the local-port
    /// speedup for ejection; `16B/width` for RF-I shortcut ports).
    pub capacity: u32,
    /// Extra link-traversal cycles beyond the standard single cycle
    /// (non-zero only for shortcuts realised in buffered RC wire, which
    /// need multiple clock cycles to cross the chip — paper §5.3).
    pub extra_latency: u32,
    /// Base-route length of the shortcut this port drives (0 for mesh and
    /// local ports); used for wire-shortcut energy accounting.
    pub shortcut_hops: u32,
    /// Whether this shortcut is realised in conventional buffered wire
    /// rather than RF-I (the paper's "Mesh Wire Shortcuts" comparison).
    pub is_wire: bool,
}

/// One output port: link target, capacity, and downstream VC bookkeeping
/// (32 bytes; its per-VC credits are in [`Router::credits`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutPort {
    target_router: u32,
    /// Round-robin cursor over `(input port, vc)` switch-allocation
    /// requests.
    rr: u32,
    /// Downstream VCs a new packet may claim: unowned and fully credited
    /// (all previously sent flits have left the downstream buffer).
    /// Derived from `owned` and `credits`.
    free: u32,
    /// Downstream VCs owned by a packet until its tail is sent.
    owned: u32,
    capacity: u32,
    extra_latency: u32,
    shortcut_hops: u32,
    target_port: u8,
    flags: u8,
    /// Input ports with a head parked on this port (a superset: a bit may
    /// outlive its heads until the next wake-up clears it).
    waiters: u16,
}

impl OutPort {
    const ABSENT: Self = Self {
        target_router: NONE,
        rr: 0,
        free: 0,
        owned: 0,
        capacity: 0,
        extra_latency: 0,
        shortcut_hops: 0,
        target_port: 0,
        flags: 0,
        waiters: 0,
    };

    /// Whether this port physically exists on this router.
    #[inline]
    pub fn exists(&self) -> bool {
        self.flags & OUT_EXISTS != 0
    }

    #[inline]
    pub fn is_wire(&self) -> bool {
        self.flags & OUT_WIRE != 0
    }

    /// Downstream `(router, input port)`; `None` for the ejection port.
    #[inline]
    pub fn target(&self) -> Option<(usize, u8)> {
        (self.target_router != NONE).then_some((self.target_router as usize, self.target_port))
    }

    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    #[inline]
    pub fn extra_latency(&self) -> u64 {
        self.extra_latency as u64
    }

    #[inline]
    pub fn shortcut_hops(&self) -> u32 {
        self.shortcut_hops
    }

    #[inline]
    pub fn rr(&self) -> usize {
        self.rr as usize
    }

    /// Whether a new packet could claim a downstream VC of `class` here.
    #[inline]
    fn can_alloc(&self, class: u32) -> bool {
        self.flags & (OUT_EXISTS | OUT_FAILED) == OUT_EXISTS && self.free & class != 0
    }
}

/// A branch of a multicast (VCT) packet at this router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct McBranch {
    /// Packet id carried on this branch (a child packet with the subtree's
    /// destination subset, or the original packet).
    pub packet: u32,
    /// Output port of this branch.
    pub port: u8,
    /// Allocated downstream VC, when VA has succeeded.
    pub out_vc: Option<u8>,
}

/// Cold multicast state of one VC: the replication branches of the tree
/// packet occupying it. The front flit is copied to every branch before
/// being retired.
#[derive(Debug, Clone, Copy)]
pub(crate) struct McEntry {
    /// `port * vcs + vc` of the VC this entry belongs to.
    key: u16,
    /// Bitmask over `branches` recording which branches the *front* flit
    /// has already been copied to.
    front_sent: u16,
    len: u8,
    branches: [McBranch; MAX_ROUTER_PORTS],
}

impl McEntry {
    #[inline]
    pub fn branches(&self) -> &[McBranch] {
        &self.branches[..self.len as usize]
    }

    /// Whether the front flit has been copied to branch `b`.
    #[inline]
    pub fn sent(&self, b: usize) -> bool {
        self.front_sent & (1 << b) != 0
    }

    fn all_allocated(&self) -> bool {
        self.branches().iter().all(|b| b.out_vc.is_some())
    }

    /// Whether every multicast branch has received the front flit.
    fn all_sent(&self) -> bool {
        self.len > 0 && self.front_sent.count_ones() == self.len as u32 && self.all_allocated()
    }
}

/// A flit in flight on the link into an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arrival {
    /// Cycle the flit reaches the input buffer (a cycle stamp, see
    /// [`crate::config::CYCLE_LIMIT`]).
    pub at: u32,
    pub packet: u32,
    pub idx: u32,
    /// Route information carried by a head flit: the packet's unicast
    /// destination, [`Arrival::TREE`] for a tree-multicast packet. Unused
    /// on body flits.
    pub dest: u32,
    pub vc: u8,
}

impl Arrival {
    /// `dest` of a tree-multicast head (its destination set stays in the
    /// packet table).
    pub const TREE: u32 = NONE;

    /// Earliest cycle the flit may enter the next pipeline stage once
    /// buffered: route computation + VC allocation for heads, switch
    /// allocation entry for bodies.
    #[inline]
    pub fn eligible(&self) -> u64 {
        u64::from(self.at) + if self.idx == 0 { 2 } else { 1 }
    }
}

/// Slab node of a port's arrival FIFO (24 bytes).
#[derive(Debug, Clone, Copy)]
struct ArrivalNode {
    arrival: Arrival,
    next: u32,
}

/// A packet waiting to begin injection at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingInjection {
    /// Packet table index.
    pub packet: u32,
    /// Earliest cycle injection may begin (used for VCT setup delays), a
    /// cycle stamp.
    pub ready_at: u32,
}

/// Per-flit streaming state of an injection VC (valid while the VC's bit
/// is set in the router's stream mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct InjectStream {
    /// Packet being streamed.
    packet: u32,
    /// Total flits of the packet.
    total_flits: u32,
    /// Next flit index to send.
    next: u32,
    /// Route information for the head flit (see [`Arrival::dest`]).
    dest: u32,
}

/// A complete router. The injection engine (a FIFO of pending packets and
/// per-VC streaming state) mirrors an upstream router's output port toward
/// the local input port: `inj_active` plays `owned`, `inj_free` plays
/// `free`, `inj_credits` the credits.
#[derive(Debug)]
#[repr(C, align(64))]
pub(crate) struct Router {
    // ---- header: everything an idle check or stage skip reads ----
    np: u8,
    vcs: u8,
    depth: u8,
    /// Round-robin cursor over streaming injection VCs.
    inj_rr: u8,
    /// Escape-class VCs per port: VCs `0..escape`; the rest are adaptive.
    escape: u8,
    /// Input ports with a flit in flight on the inbound link.
    arr_ports: u16,
    /// Input ports with a claimed VC.
    occ_ports: u16,
    /// Input ports with an unparked head awaiting VC allocation.
    va_ports: u16,
    /// Injection VCs with a packet streaming.
    inj_active: u32,
    /// Injection VCs a new packet may claim: not streaming, fully credited.
    inj_free: u32,
    /// Free list of the arrival slab.
    arr_free: u32,
    /// Waiting packets in creation order.
    queue: VecDeque<PendingInjection>,
    // ---- body ----
    in_ports: Box<[InPort]>,
    out_ports: Box<[OutPort]>,
    /// VC records, `port * vcs + vc`.
    vc_state: Box<[VcState]>,
    /// Flit rings: `eligible` cycle stamp per slot,
    /// `(port * vcs + vc) * depth`.
    slots: Box<[u32]>,
    /// Claimed VCs of each input port in claim order, `port * vcs`
    /// onward, `occ_len` of them (`swap_remove` on release); both
    /// allocation stages walk this list, so its order is arbitration state.
    occ: Box<[u8]>,
    /// Remaining downstream buffer credits, `port * vcs + vc`. The
    /// ejection port's stay at `depth` (it sinks flits), so an output
    /// port's free-VC mask has one definition.
    credits: Box<[u8]>,
    /// Arrival FIFO nodes of every port, linked through `next`. Up to
    /// here the header holds what a visit to a router with unicast traffic
    /// reads: three cache lines.
    arrivals: Vec<ArrivalNode>,
    inj_streams: Box<[InjectStream]>,
    inj_credits: [u8; MAX_VCS],
    /// Cold multicast table, one entry per VC holding a routed tree packet.
    mc: Vec<McEntry>,
}

impl Router {
    /// A router with `np` port slots (none connected yet), `vcs` virtual
    /// channels per port of which the first `escape` form the escape
    /// class, and `depth` flit slots per VC.
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds its cap (`SimConfig::validate` and
    /// network construction reject such shapes first).
    pub fn new(np: usize, vcs: usize, escape: usize, depth: usize) -> Self {
        assert!((2..=MAX_ROUTER_PORTS).contains(&np), "port count {np} out of range");
        assert!((1..=MAX_VCS).contains(&vcs), "VC count {vcs} out of range");
        assert!((1..=vcs).contains(&escape), "escape VC count {escape} out of range");
        assert!((1..=MAX_BUFFER_DEPTH).contains(&depth), "buffer depth {depth} out of range");
        let mut inj_credits = [0; MAX_VCS];
        inj_credits[..vcs].fill(depth as u8);
        Self {
            np: np as u8,
            vcs: vcs as u8,
            depth: depth as u8,
            inj_rr: 0,
            escape: escape as u8,
            arr_ports: 0,
            occ_ports: 0,
            va_ports: 0,
            inj_active: 0,
            inj_free: low_mask(vcs),
            arr_free: NONE,
            queue: VecDeque::new(),
            in_ports: vec![InPort::ABSENT; np].into_boxed_slice(),
            out_ports: vec![OutPort::ABSENT; np].into_boxed_slice(),
            vc_state: vec![VcState::FREE; np * vcs].into_boxed_slice(),
            slots: vec![0; np * vcs * depth].into_boxed_slice(),
            occ: vec![0; np * vcs].into_boxed_slice(),
            credits: vec![0; np * vcs].into_boxed_slice(),
            arrivals: Vec::new(),
            inj_streams: vec![InjectStream::default(); vcs].into_boxed_slice(),
            inj_credits,
            mc: Vec::new(),
        }
    }

    // ---- shape ----

    #[inline]
    pub fn num_ports(&self) -> usize {
        self.np as usize
    }

    /// Local (core-side) port slot.
    #[inline]
    pub fn local_port(&self) -> usize {
        self.np as usize - 2
    }

    /// RF transmitter/receiver port slot (always the last).
    #[inline]
    pub fn rf_port(&self) -> usize {
        self.np as usize - 1
    }

    /// The VC class (a VC mask) `vc` belongs to: escape or adaptive.
    #[inline]
    fn class_of(&self, vc: usize) -> u32 {
        let escape = low_mask(self.escape as usize);
        if escape & (1 << vc) != 0 {
            escape
        } else {
            low_mask(self.vcs as usize) & !escape
        }
    }

    #[inline]
    fn pv(&self, port: usize, vc: usize) -> usize {
        debug_assert!(vc < self.vcs as usize);
        port * self.vcs as usize + vc
    }

    // ---- wiring (construction and RF retuning) ----

    /// Brings input `port` into existence, fed by `upstream` (`None` for
    /// the local injection port).
    pub fn connect_input(&mut self, port: usize, upstream: Option<(usize, u8)>) {
        let p = &mut self.in_ports[port];
        debug_assert!(!p.exists, "input port connected twice");
        p.exists = true;
        if let Some((router, up)) = upstream {
            p.upstream_router = router as u32;
            p.upstream_port = up;
        }
    }

    /// Brings output `port` into existence with every downstream VC free
    /// and fully credited.
    pub fn connect_output(&mut self, port: usize, link: OutLink) {
        let (vcs, depth) = (self.vcs as usize, self.depth);
        self.wake(port, u32::MAX);
        let pv = self.pv(port, 0);
        self.credits[pv..pv + vcs].fill(depth);
        let p = &mut self.out_ports[port];
        debug_assert!(!p.exists(), "output port connected twice");
        *p = OutPort::ABSENT;
        p.flags = OUT_EXISTS | if link.is_wire { OUT_WIRE } else { 0 };
        if let Some((router, tp)) = link.target {
            p.target_router = router as u32;
            p.target_port = tp;
        }
        p.capacity = link.capacity;
        // A flit stamps its arrival `2 + extra_latency` cycles ahead of a
        // clock below `CYCLE_LIMIT`; capped there, a latency no run can
        // wait out still lands after the run, and the stamp fits its `u32`.
        p.extra_latency = link.extra_latency.min(CYCLE_LIMIT as u32);
        p.shortcut_hops = link.shortcut_hops;
        p.free = low_mask(vcs);
    }

    /// Removes both directions of a drained `port` (RF teardown).
    pub fn disconnect(&mut self, port: usize) {
        debug_assert!(self.port_idle(port), "tearing down a port with traffic on it");
        self.wake(port, u32::MAX);
        self.in_ports[port] = InPort::ABSENT;
        self.out_ports[port] = OutPort::ABSENT;
        let pv = self.pv(port, 0);
        self.credits[pv..pv + self.vcs as usize].fill(0);
    }

    /// Sets or clears the fail-stop flag of output `port`; clearing it
    /// wakes the heads parked on the port.
    pub fn set_failed(&mut self, port: usize, failed: bool) {
        let p = &mut self.out_ports[port];
        if failed {
            p.flags |= OUT_FAILED;
        } else {
            p.flags &= !OUT_FAILED;
            self.wake(port, u32::MAX);
        }
    }

    // ---- read access ----

    /// Upstream `(router, output port)` of input `port`.
    #[inline]
    pub fn upstream(&self, port: usize) -> Option<(usize, u8)> {
        let p = &self.in_ports[port];
        (p.upstream_router != NONE).then_some((p.upstream_router as usize, p.upstream_port))
    }

    #[inline]
    pub fn out(&self, port: usize) -> &OutPort {
        &self.out_ports[port]
    }

    #[inline]
    pub fn vc(&self, port: usize, vc: usize) -> &VcState {
        &self.vc_state[self.pv(port, vc)]
    }

    /// Remaining downstream buffer credits of output `(port, vc)`.
    #[inline]
    pub fn credits(&self, port: usize, vc: usize) -> u32 {
        u32::from(self.credits[self.pv(port, vc)])
    }

    /// Claimed VCs of input `port`, in claim order.
    #[inline]
    pub fn occupied(&self, port: usize) -> &[u8] {
        let at = self.pv(port, 0);
        &self.occ[at..at + self.in_ports[port].occ_len as usize]
    }

    /// VCs of input `port` whose head flit awaits VC allocation.
    #[cfg(test)]
    pub fn va_mask(&self, port: usize) -> u32 {
        self.in_ports[port].va_mask
    }

    /// VCs of input `port` whose head is parked.
    #[inline]
    pub fn parked(&self, port: usize) -> u32 {
        self.in_ports[port].parked
    }

    /// VCs of input `port` whose head VA should try: awaiting allocation
    /// and not parked.
    #[inline]
    pub fn va_unparked(&self, port: usize) -> u32 {
        let p = &self.in_ports[port];
        p.va_mask & !p.parked
    }

    /// Parked heads over every input port.
    pub fn parked_heads(&self) -> u64 {
        bits(self.occupied_ports()).map(|p| u64::from(self.in_ports[p].parked.count_ones())).sum()
    }

    /// Flits buffered over every input port.
    pub fn buffered_flits(&self) -> u32 {
        let mut flits = 0;
        for p in bits(self.occupied_ports()) {
            for &vc in self.occupied(p) {
                flits += u32::from(self.vc(p, vc as usize).len);
            }
        }
        flits
    }

    /// VCs of input `port` that hold an output allocation.
    #[inline]
    pub fn sa_mask(&self, port: usize) -> u32 {
        self.in_ports[port].sa_mask
    }

    /// Input ports (as a bit mask) with a flit on the inbound link.
    #[inline]
    pub fn arrival_ports(&self) -> u32 {
        self.arr_ports as u32
    }

    /// Input ports (as a bit mask) with a claimed VC.
    #[inline]
    pub fn occupied_ports(&self) -> u32 {
        self.occ_ports as u32
    }

    /// Input ports (as a bit mask) with an unparked head awaiting VC
    /// allocation.
    #[inline]
    pub fn va_ports(&self) -> u32 {
        self.va_ports as u32
    }

    /// Whether this router can make no progress until new work arrives:
    /// no buffered or in-flight flits on any input port, no claimed VCs,
    /// and an idle injector. A quiescent router is dropped from the
    /// engine's active set; deliveries and injections re-activate it.
    ///
    /// Output-side state (missing credits, owned downstream VCs) is
    /// deliberately not consulted: credits returning to an otherwise
    /// empty router update counters but enable no pipeline stage until a
    /// flit arrives, and the waiting flit keeps its *holder* active.
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.injector_idle() && self.arr_ports == 0 && self.occ_ports == 0
    }

    /// Whether `port` carries nothing in either direction: no owned or
    /// under-credited downstream VC, no flit on the inbound link or in an
    /// input buffer.
    pub fn port_idle(&self, port: usize) -> bool {
        let out = &self.out_ports[port];
        let inp = &self.in_ports[port];
        let out_ok = !out.exists() || out.free == low_mask(self.vcs as usize);
        let in_ok = inp.arr_head == NONE
            && self.occupied(port).iter().all(|&vc| self.vc(port, vc as usize).len == 0);
        out_ok && in_ok
    }

    // ---- link arrivals ----

    /// Appends a flit to the arrival FIFO of input `port`.
    pub fn push_arrival(&mut self, port: usize, arrival: Arrival) {
        let node = ArrivalNode { arrival, next: NONE };
        let i = if self.arr_free == NONE {
            self.arrivals.push(node);
            (self.arrivals.len() - 1) as u32
        } else {
            let i = self.arr_free;
            self.arr_free = self.arrivals[i as usize].next;
            self.arrivals[i as usize] = node;
            i
        };
        let p = &mut self.in_ports[port];
        debug_assert!(p.exists, "arrival on a non-existent port");
        if p.arr_tail == NONE {
            p.arr_head = i;
        } else {
            self.arrivals[p.arr_tail as usize].next = i;
        }
        p.arr_tail = i;
        self.arr_ports |= 1 << port;
    }

    /// Pops the front of `port`'s arrival FIFO if it has landed by `now`
    /// (a later front blocks the flits behind it).
    #[inline]
    pub fn pop_arrival_due(&mut self, port: usize, now: u64) -> Option<Arrival> {
        let p = &mut self.in_ports[port];
        let i = p.arr_head;
        if i == NONE {
            return None;
        }
        let node = self.arrivals[i as usize];
        if u64::from(node.arrival.at) > now {
            return None;
        }
        p.arr_head = node.next;
        if node.next == NONE {
            p.arr_tail = NONE;
            self.arr_ports &= !(1 << port);
        }
        self.arrivals[i as usize].next = self.arr_free;
        self.arr_free = i;
        Some(node.arrival)
    }

    /// Delays the flit at the front of `port`'s arrival FIFO (and, by
    /// head-of-line blocking, the link behind it) by `by` cycles. Returns
    /// false on an idle link. A delay past the end of the stamp range
    /// leaves the flit at its end, a cycle no run reaches.
    pub fn delay_front_arrival(&mut self, port: usize, by: u64) -> bool {
        let i = self.in_ports[port].arr_head;
        if i == NONE {
            return false;
        }
        let at = &mut self.arrivals[i as usize].arrival.at;
        *at = u32::try_from(u64::from(*at) + by).unwrap_or(u32::MAX);
        true
    }

    fn arrivals_of(&self, port: usize) -> impl Iterator<Item = Arrival> + '_ {
        let mut i = self.in_ports[port].arr_head;
        std::iter::from_fn(move || {
            let node = self.arrivals.get(i as usize)?;
            i = node.next;
            Some(node.arrival)
        })
    }

    // ---- input buffers ----

    /// Buffers an arrived flit; a head flit claims the VC for its packet.
    #[inline]
    pub fn push_flit(&mut self, port: usize, a: Arrival) {
        let vc = a.vc as usize;
        let pv = self.pv(port, vc);
        let depth = self.depth as usize;
        if a.idx == 0 {
            debug_assert!(self.vc_state[pv].packet == NONE, "VC double-claim");
            self.vc_state[pv].packet = a.packet;
            self.vc_state[pv].dest = a.dest;
            let p = &mut self.in_ports[port];
            self.occ[pv - vc + p.occ_len as usize] = a.vc;
            p.occ_len += 1;
            p.va_mask |= 1 << vc;
            self.occ_ports |= 1 << port;
            self.va_ports |= 1 << port;
        }
        let v = &mut self.vc_state[pv];
        debug_assert_eq!(v.packet, a.packet, "flit of a foreign packet on a claimed VC");
        debug_assert_eq!(v.front_idx as u32 + v.len as u32, a.idx, "flits out of order");
        assert!((v.len as usize) < depth, "flit buffer overflow: credit protocol violated");
        let mut pos = v.head as usize + v.len as usize;
        if pos >= depth {
            pos -= depth;
        }
        self.slots[pv * depth + pos] = a.eligible() as u32;
        v.len += 1;
    }

    /// The flit at the front of the VC's buffer.
    #[inline]
    pub fn front(&self, port: usize, vc: usize) -> Option<Flit> {
        let pv = self.pv(port, vc);
        let v = &self.vc_state[pv];
        (v.len > 0).then(|| Flit {
            packet: v.packet,
            idx: v.front_idx as u32,
            eligible: u64::from(self.slots[pv * self.depth as usize + v.head as usize]),
        })
    }

    /// Releases the buffered head flit into switch allocation at
    /// `eligible`.
    #[inline]
    fn set_front_eligible(&mut self, pv: usize, eligible: u64) {
        let v = &self.vc_state[pv];
        if v.len > 0 {
            self.slots[pv * self.depth as usize + v.head as usize] = eligible as u32;
        }
    }

    /// Retires the front flit of the VC's buffer.
    #[inline]
    pub fn pop_front(&mut self, port: usize, vc: usize) {
        let pv = self.pv(port, vc);
        let v = &mut self.vc_state[pv];
        debug_assert!(v.len > 0, "pop from an empty flit buffer");
        v.head += 1;
        if v.head == self.depth {
            v.head = 0;
        }
        v.len -= 1;
        v.front_idx += 1;
    }

    /// Releases a VC after its tail flit retires.
    pub fn release_vc(&mut self, port: usize, vc: usize) {
        let pv = self.pv(port, vc);
        if self.vc_state[pv].mc_routed() {
            let at = self.mc_index(pv);
            self.mc.swap_remove(at);
        }
        self.vc_state[pv] = VcState::FREE;
        let p = &mut self.in_ports[port];
        p.va_mask &= !(1 << vc);
        p.parked &= !(1 << vc);
        p.sa_mask &= !(1 << vc);
        if p.va_mask & !p.parked == 0 {
            self.va_ports &= !(1 << port);
        }
        let occ = &mut self.occ[pv - vc..pv - vc + p.occ_len as usize];
        if let Some(pos) = occ.iter().position(|&v| v as usize == vc) {
            occ[pos] = occ[occ.len() - 1];
            p.occ_len -= 1;
            if p.occ_len == 0 {
                self.occ_ports &= !(1 << port);
            }
        }
    }

    // ---- VC allocation ----

    /// Claims the lowest free downstream VC of output `out` within
    /// `class` (a VC mask) for a new packet.
    #[inline]
    pub fn alloc_out_vc(&mut self, out: usize, class: u32) -> Option<u8> {
        let op = &mut self.out_ports[out];
        if !op.can_alloc(class) {
            return None;
        }
        let vc = (op.free & class).trailing_zeros();
        op.free &= !(1 << vc);
        op.owned |= 1 << vc;
        Some(vc as u8)
    }

    /// Records a successful unicast allocation and releases the head flit
    /// into switch allocation at `eligible`.
    pub fn va_grant(&mut self, port: usize, vc: usize, out: usize, out_vc: u8, eligible: u64) {
        let pv = self.pv(port, vc);
        let v = &mut self.vc_state[pv];
        v.flags |= VC_ALLOCATED;
        v.out_port = out as u8;
        v.out_vc = out_vc;
        self.set_front_eligible(pv, eligible);
        self.in_ports[port].sa_mask |= 1 << vc;
        self.va_done(port, vc);
    }

    /// Parks the unicast head on `(port, vc)` after a failed allocation:
    /// it asked for output `want` in its own VC class and output `escape`
    /// in the escape class (`want == escape` for a head on an escape VC),
    /// and VA skips it until one of the two gains a free VC of that class.
    pub fn park(&mut self, port: usize, vc: usize, want: usize, escape: usize) {
        let pv = self.pv(port, vc);
        let v = &mut self.vc_state[pv];
        v.out_port = want as u8;
        v.out_vc = escape as u8;
        self.out_ports[want].waiters |= 1 << port;
        self.out_ports[escape].waiters |= 1 << port;
        let p = &mut self.in_ports[port];
        debug_assert!(p.va_mask & (1 << vc) != 0, "parking a head that needs no VA");
        p.parked |= 1 << vc;
        if p.va_mask & !p.parked == 0 {
            self.va_ports &= !(1 << port);
        }
    }

    /// Unparks every head parked on output `out` that asked there for a
    /// class `freed` (a VC mask) meets: the VCs that just became free, or
    /// `u32::MAX` when the port's flags or wiring changed.
    fn wake(&mut self, out: usize, freed: u32) {
        let escape = low_mask(self.escape as usize);
        let mut still_waiting = 0;
        for port in bits(self.out_ports[out].waiters as u32) {
            let mut parked = self.in_ports[port].parked;
            for vc in bits(parked) {
                let v = &self.vc_state[self.pv(port, vc)];
                let (want, esc) = (v.out_port as usize == out, v.out_vc as usize == out);
                if (want && freed & self.class_of(vc) != 0) || (esc && freed & escape != 0) {
                    parked &= !(1 << vc);
                } else if want || esc {
                    still_waiting |= 1 << port;
                }
            }
            let p = &mut self.in_ports[port];
            p.parked = parked;
            if p.va_mask & !parked != 0 {
                self.va_ports |= 1 << port;
            }
        }
        self.out_ports[out].waiters = still_waiting;
    }

    /// Unparks every head of this router (its routes may have changed).
    pub fn unpark_all(&mut self) {
        for port in 0..self.num_ports() {
            let p = &mut self.in_ports[port];
            p.parked = 0;
            if p.va_mask != 0 {
                self.va_ports |= 1 << port;
            }
            self.out_ports[port].waiters = 0;
        }
    }

    fn va_done(&mut self, port: usize, vc: usize) {
        let p = &mut self.in_ports[port];
        debug_assert!(p.va_mask & (1 << vc) != 0, "VA completed twice");
        debug_assert!(p.parked & (1 << vc) == 0, "VA granted to a parked head");
        p.va_mask &= !(1 << vc);
        if p.va_mask & !p.parked == 0 {
            self.va_ports &= !(1 << port);
        }
    }

    // ---- downstream VC bookkeeping ----

    /// Spends one downstream credit of `(out, vc)` for a sent flit.
    #[inline]
    pub fn take_credit(&mut self, out: usize, vc: usize) {
        debug_assert!(self.out_ports[out].free & (1 << vc) == 0, "flit sent on an unowned VC");
        let pv = self.pv(out, vc);
        self.credits[pv] -= 1;
    }

    /// Returns one downstream credit to `(out, vc)`; a VC it frees wakes
    /// the heads parked on `out`.
    #[inline]
    pub fn return_credit(&mut self, out: usize, vc: usize) {
        let pv = self.pv(out, vc);
        let credits = &mut self.credits[pv];
        *credits += 1;
        debug_assert!(*credits <= self.depth, "credit overflow");
        let op = &mut self.out_ports[out];
        if *credits == self.depth && op.owned & (1 << vc) == 0 {
            op.free |= 1 << vc;
            if op.waiters != 0 {
                self.wake(out, 1 << vc);
            }
        }
    }

    /// Gives up ownership of downstream VC `(out, vc)` (tail flit sent);
    /// a VC it frees wakes the heads parked on `out`.
    #[inline]
    pub fn release_out_vc(&mut self, out: usize, vc: usize) {
        let full = self.credits[self.pv(out, vc)] == self.depth;
        let op = &mut self.out_ports[out];
        op.owned &= !(1 << vc);
        if full {
            op.free |= 1 << vc;
            if op.waiters != 0 {
                self.wake(out, 1 << vc);
            }
        }
    }

    /// Advances output `out`'s switch-allocation round-robin cursor.
    #[inline]
    pub fn advance_rr(&mut self, out: usize) {
        let op = &mut self.out_ports[out];
        op.rr = op.rr.wrapping_add(1);
    }

    // ---- multicast (cold) ----

    fn mc_index(&self, pv: usize) -> usize {
        self.mc
            .iter()
            .position(|e| e.key as usize == pv)
            .expect("mc-routed VC has a multicast entry")
    }

    /// Multicast branches of the tree packet on this VC.
    pub fn mc(&self, port: usize, vc: usize) -> &McEntry {
        &self.mc[self.mc_index(self.pv(port, vc))]
    }

    /// Installs the computed tree partition of the packet on this VC:
    /// one `(output port, packet)` branch per group, none allocated yet.
    pub fn mc_route(&mut self, port: usize, vc: usize, groups: &[(u8, u32)]) {
        let pv = self.pv(port, vc);
        debug_assert!(!self.vc_state[pv].mc_routed(), "tree partition computed twice");
        let mut entry = McEntry {
            key: pv as u16,
            front_sent: 0,
            len: groups.len() as u8,
            branches: [McBranch { packet: NONE, port: 0, out_vc: None }; MAX_ROUTER_PORTS],
        };
        for (b, &(port, packet)) in entry.branches.iter_mut().zip(groups) {
            *b = McBranch { packet, port, out_vc: None };
        }
        self.mc.push(entry);
        self.vc_state[pv].flags |= VC_MC_ROUTED;
    }

    /// Records the downstream VC allocated to branch `b`; VA is complete
    /// once every branch has one.
    pub fn mc_set_branch_vc(&mut self, port: usize, vc: usize, b: usize, out_vc: u8) {
        let at = self.mc_index(self.pv(port, vc));
        let e = &mut self.mc[at];
        e.branches[b].out_vc = Some(out_vc);
        let done = e.all_allocated();
        self.in_ports[port].sa_mask |= 1 << vc;
        if done {
            self.va_done(port, vc);
        }
    }

    /// Releases the head flit of a tree packet into switch allocation.
    pub fn mc_release_head(&mut self, port: usize, vc: usize, eligible: u64) {
        self.set_front_eligible(self.pv(port, vc), eligible);
    }

    /// Marks the front flit as copied to branch `b`. Returns true (and
    /// resets the per-flit mask) once every branch has it.
    pub fn mc_mark_sent(&mut self, port: usize, vc: usize, b: usize) -> bool {
        let at = self.mc_index(self.pv(port, vc));
        let e = &mut self.mc[at];
        e.front_sent |= 1 << b;
        let all = e.all_sent();
        if all {
            e.front_sent = 0;
        }
        all
    }

    // ---- injector ----

    /// Queues a packet for injection.
    pub fn enqueue_injection(&mut self, p: PendingInjection) {
        self.queue.push_back(p);
    }

    #[inline]
    pub fn injector_idle(&self) -> bool {
        self.queue.is_empty() && self.inj_active == 0
    }

    /// Total packets waiting or streaming.
    pub fn injection_backlog(&self) -> usize {
        self.queue.len() + self.inj_active.count_ones() as usize
    }

    /// The packet at the head of the injection queue.
    #[inline]
    pub fn next_injection(&self) -> Option<PendingInjection> {
        self.queue.front().copied()
    }

    /// The local-input VC a new packet would stream on: the lowest free
    /// one of `preferred`, else the lowest free one of `fallback`.
    #[inline]
    pub fn free_injection_vc(&self, preferred: u32, fallback: u32) -> Option<u8> {
        let m = if self.inj_free & preferred != 0 {
            self.inj_free & preferred
        } else {
            self.inj_free & fallback
        };
        (m != 0).then(|| m.trailing_zeros() as u8)
    }

    /// Moves the head of the injection queue onto free local-input VC
    /// `vc`, to stream `total_flits` flits whose head carries `dest`.
    pub fn start_injection(&mut self, vc: u8, total_flits: u32, dest: u32) {
        let p = self.queue.pop_front().expect("injection queue has a head");
        debug_assert!(self.inj_free & (1 << vc) != 0, "injection onto a busy VC");
        self.inj_streams[vc as usize] =
            InjectStream { packet: p.packet, total_flits, next: 0, dest };
        self.inj_active |= 1 << vc;
        self.inj_free &= !(1 << vc);
    }

    /// Picks the next flit to inject: round-robin over streaming VCs that
    /// hold a credit. Spends the credit, advances the stream, and returns
    /// the flit as it will arrive at the local input port at cycle `at`.
    pub fn next_injection_flit(&mut self, at: u32) -> Option<Arrival> {
        let vc = bits_from(self.inj_active, self.inj_rr as usize)
            .find(|&vc| self.inj_credits[vc] > 0)?;
        self.inj_credits[vc] -= 1;
        let s = &mut self.inj_streams[vc];
        let idx = s.next;
        s.next += 1;
        if s.next == s.total_flits {
            self.inj_active &= !(1 << vc);
        }
        self.inj_rr = if vc + 1 == self.vcs as usize { 0 } else { vc as u8 + 1 };
        Some(Arrival { at, packet: s.packet, idx, dest: s.dest, vc: vc as u8 })
    }

    /// Returns one credit of local-input VC `vc` to the injector.
    #[inline]
    pub fn return_injection_credit(&mut self, vc: usize) {
        self.inj_credits[vc] += 1;
        debug_assert!(self.inj_credits[vc] <= self.depth, "credit overflow");
        if self.inj_credits[vc] == self.depth && self.inj_active & (1 << vc) == 0 {
            self.inj_free |= 1 << vc;
        }
    }

    // ---- invariants ----

    /// Flits of `(port, vc)` on the inbound link or in the input buffer.
    pub fn inbound_flits(&self, port: usize, vc: usize) -> usize {
        self.vc(port, vc).len() + self.arrivals_of(port).filter(|a| a.vc as usize == vc).count()
    }

    /// Credits the injector holds for local-input VC `vc`.
    pub fn injection_credits(&self, vc: usize) -> usize {
        self.inj_credits[vc] as usize
    }

    /// Recomputes every derived field from primary state and panics on a
    /// mismatch (`r` labels the router in the message). Every parked head
    /// must still be unable to allocate (no lost wake-up).
    pub fn validate(&self, r: usize) {
        let vcs = self.vcs as usize;
        let (mut arr_ports, mut occ_ports, mut va_ports) = (0, 0, 0);
        let mut arrival_nodes = 0;
        let mut mc_routed = 0;
        for port in 0..self.num_ports() {
            let p = &self.in_ports[port];
            let occ = self.occupied(port);
            for (i, &vc) in occ.iter().enumerate() {
                assert!((vc as usize) < vcs, "router {r} port {port}: occupied vc {vc} out of range");
                assert!(
                    !occ[i + 1..].contains(&vc),
                    "router {r} port {port}: occupied vc {vc} listed twice"
                );
            }
            for vc in 0..vcs {
                let v = self.vc(port, vc);
                let at = || format!("router {r} port {port} vc {vc}");
                let listed = occ.contains(&(vc as u8));
                assert_eq!(
                    v.cur_packet().is_some(),
                    listed,
                    "{}: claimed {:?} vs occupied {listed}",
                    at(),
                    v.cur_packet()
                );
                if v.cur_packet().is_none() {
                    assert_eq!(*v, VcState::FREE, "{}: stale state on a released VC", at());
                }
                assert!(v.len <= self.depth && v.head < self.depth, "{}: ring out of range", at());
                let entries =
                    self.mc.iter().filter(|e| e.key as usize == self.pv(port, vc)).count();
                assert_eq!(
                    entries,
                    usize::from(v.mc_routed()),
                    "{}: multicast entry vs mc_routed flag",
                    at()
                );
                mc_routed += entries;
                let needs_va = listed
                    && !v.allocated()
                    && (!v.mc_routed() || !self.mc(port, vc).all_allocated());
                assert_eq!(p.va_mask & (1 << vc) != 0, needs_va, "{}: VA mask bit", at());
                let holds_output = v.allocated()
                    || (v.mc_routed()
                        && self.mc(port, vc).branches().iter().any(|b| b.out_vc.is_some()));
                assert_eq!(p.sa_mask & (1 << vc) != 0, holds_output, "{}: SA mask bit", at());
                if p.parked & (1 << vc) != 0 {
                    self.validate_parked(port, vc, &at);
                }
            }
            assert_eq!(
                (p.va_mask | p.sa_mask | p.parked) & !low_mask(vcs),
                0,
                "router {r} port {port}: VC mask overflow"
            );
            let arrivals = self.arrivals_of(port).count();
            assert_eq!(
                p.arr_tail == NONE,
                arrivals == 0,
                "router {r} port {port}: arrival FIFO tail"
            );
            if !p.exists {
                assert!(
                    occ.is_empty() && arrivals == 0,
                    "router {r} port {port}: work on a non-existent port"
                );
            }
            arr_ports |= u32::from(arrivals > 0) << port;
            occ_ports |= u32::from(!occ.is_empty()) << port;
            va_ports |= u32::from(p.va_mask & !p.parked != 0) << port;
            arrival_nodes += arrivals;
        }
        assert_eq!(self.arrival_ports(), arr_ports, "router {r}: arrival-ports mask");
        assert_eq!(self.occupied_ports(), occ_ports, "router {r}: occupied-ports mask");
        assert_eq!(self.va_ports(), va_ports, "router {r}: VA-ports mask");
        assert_eq!(self.mc.len(), mc_routed, "router {r}: orphaned multicast entry");
        let mut free_nodes = 0;
        let mut i = self.arr_free;
        while let Some(node) = self.arrivals.get(i as usize) {
            free_nodes += 1;
            assert!(free_nodes <= self.arrivals.len(), "router {r}: arrival free list loops");
            i = node.next;
        }
        assert_eq!(
            arrival_nodes + free_nodes,
            self.arrivals.len(),
            "router {r}: arrival slab nodes leaked"
        );
        for (port, op) in self.out_ports.iter().enumerate() {
            if op.exists() {
                let credits = &self.credits[self.pv(port, 0)..][..vcs];
                let free = (0..vcs)
                    .filter(|&vc| op.owned & (1 << vc) == 0 && credits[vc] == self.depth)
                    .fold(0, |m, vc| m | 1 << vc);
                assert_eq!(
                    op.free, free,
                    "router {r} out port {port}: free-VC mask (owned {:#b}, credits {credits:?})",
                    op.owned
                );
                assert_eq!(op.owned & !low_mask(vcs), 0, "router {r} out port {port}: owned mask");
            } else {
                assert!(
                    op.free == 0 && op.owned == 0,
                    "router {r} out port {port}: VC state on a non-existent port"
                );
            }
        }
        let inj_free = (0..vcs)
            .filter(|&vc| self.inj_active & (1 << vc) == 0 && self.inj_credits[vc] == self.depth)
            .fold(0, |m, vc| m | 1 << vc);
        assert_eq!(self.inj_free, inj_free, "router {r}: injector free-VC mask");
        assert_eq!(self.inj_active & !low_mask(vcs), 0, "router {r}: injector stream mask");
        assert!((self.inj_rr as usize) < vcs, "router {r}: injector cursor out of range");
    }

    /// The lost-wake-up check of one parked head: it is a claimed unicast
    /// head awaiting VA, its port is listed as a waiter on each output it
    /// asked for, and neither output could grant it a VC of the class it
    /// asked for there.
    fn validate_parked(&self, port: usize, vc: usize, at: &dyn Fn() -> String) {
        let v = self.vc(port, vc);
        assert!(
            v.cur_packet().is_some() && self.in_ports[port].va_mask & (1 << vc) != 0,
            "{}: parked without a head awaiting VA",
            at()
        );
        assert!(v.dest != Arrival::TREE, "{}: parked tree head", at());
        let escape = low_mask(self.escape as usize);
        for (out, class) in [(v.out_port(), self.class_of(vc)), (v.out_vc as usize, escape)] {
            let op = &self.out_ports[out];
            assert!(
                op.waiters & (1 << port) != 0,
                "{}: parked on out port {out}, which does not list it as a waiter",
                at()
            );
            assert!(
                !op.can_alloc(class),
                "{}: parked on out port {out}, which has a free VC of its class (free {:#b}, \
                 class {class:#b}) — a lost wake-up",
                at(),
                op.free
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-slot router (port 2 unconnected) whose escape class is VC 0.
    fn router(vcs: usize, depth: usize) -> Router {
        let mut r = Router::new(3, vcs, 1, depth);
        r.connect_input(0, Some((9, 0)));
        r.connect_output(
            0,
            OutLink { target: Some((9, 0)), capacity: 1, ..OutLink::default() },
        );
        r.connect_input(1, None);
        r.connect_output(1, OutLink { capacity: 2, ..OutLink::default() });
        r
    }

    fn flit(packet: u32, idx: u32, vc: u8) -> Arrival {
        Arrival { at: 10, packet, idx, dest: 4, vc }
    }

    /// The escape class of [`router`].
    const ESCAPE: u32 = 0b1;

    #[test]
    fn mask_iteration_orders() {
        assert_eq!(bits(0b1010_0101).collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(1 << 31).collect::<Vec<_>>(), vec![31]);
        assert_eq!(bits_from(0b1010_0101, 3).collect::<Vec<_>>(), vec![5, 7, 0, 2]);
        assert_eq!(bits_from(0b1010_0101, 0).collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(32), u32::MAX);
    }

    #[test]
    fn header_fits_one_cache_line() {
        assert!(std::mem::offset_of!(Router, in_ports) <= 64);
        assert_eq!(std::mem::align_of::<Router>(), 64);
        assert!(std::mem::offset_of!(Router, inj_streams) <= 3 * 64);
        assert_eq!(std::mem::size_of::<Router>(), 256);
        assert_eq!(std::mem::size_of::<VcState>(), 16);
        assert_eq!(std::mem::size_of::<InPort>(), 28);
        assert_eq!(std::mem::size_of::<OutPort>(), 32);
    }

    /// A port's in-flight flits are bounded only by its credits, 48 at the
    /// paper's shape: an arrival is four `u32`s (its cycle a stamp) and a
    /// VC, and the slab node adds its link.
    #[test]
    fn arrival_node_fits_24_bytes() {
        let size = std::mem::size_of::<ArrivalNode>();
        assert!(size <= 24, "an arrival node of {size} B");
        assert_eq!(std::mem::size_of::<PendingInjection>(), 8);
    }

    /// Stamps at the top of the cycle range — the last cycle a run reaches
    /// plus the leads a flit takes over it — are stored and read back
    /// unchanged, on the link, in the ring and after a VA grant.
    #[test]
    fn stamps_at_the_top_of_the_cycle_range_round_trip() {
        let top = CYCLE_LIMIT as u32;
        let mut r = router(2, 3);
        // A head and a body flit landing at the last cycle of the range.
        r.push_arrival(0, Arrival { at: top, ..flit(5, 0, 1) });
        r.push_arrival(0, Arrival { at: top, ..flit(5, 1, 1) });
        assert_eq!(r.pop_arrival_due(0, CYCLE_LIMIT - 1), None);
        for _ in 0..2 {
            let a = r.pop_arrival_due(0, CYCLE_LIMIT).expect("landed");
            assert_eq!(a.at, top);
            r.push_flit(0, a);
        }
        assert_eq!(r.front(0, 1), Some(Flit { packet: 5, idx: 0, eligible: CYCLE_LIMIT + 2 }));
        r.va_grant(0, 1, 0, 1, CYCLE_LIMIT + 1);
        assert_eq!(r.front(0, 1).map(|f| f.eligible), Some(CYCLE_LIMIT + 1));
        r.pop_front(0, 1);
        assert_eq!(r.front(0, 1), Some(Flit { packet: 5, idx: 1, eligible: CYCLE_LIMIT + 1 }));
        // The largest lead a wire shortcut takes, from the last cycle a
        // step starts on, is the top of the `u32` range.
        r.push_arrival(1, Arrival { at: u32::MAX, ..flit(6, 0, 0) });
        assert_eq!(r.pop_arrival_due(1, CYCLE_LIMIT), None, "lands after every run");
        assert!(r.delay_front_arrival(1, 6), "a glitch past the range saturates");
        assert_eq!(r.arrivals_of(1).map(|a| a.at).collect::<Vec<_>>(), vec![u32::MAX]);
        // The injector stamps its flits one cycle ahead.
        r.enqueue_injection(PendingInjection { packet: 7, ready_at: top });
        r.start_injection(1, 1, 4);
        assert_eq!(r.next_injection_flit(top).map(|a| a.at), Some(top));
        r.validate(0);
    }

    #[test]
    fn claim_release_tracks_occupied_in_claim_order() {
        let mut r = router(4, 2);
        r.push_flit(0, flit(11, 0, 2));
        r.push_flit(0, Arrival { dest: Arrival::TREE, ..flit(12, 0, 0) });
        r.push_flit(0, flit(13, 0, 3));
        assert_eq!(r.occupied(0), &[2, 0, 3]);
        assert_eq!(r.vc(0, 2).cur_packet(), Some(11));
        assert_eq!(r.vc(0, 2).dest(), 4);
        assert_eq!(r.vc(0, 0).dest(), Arrival::TREE);
        assert_eq!((r.occupied_ports(), r.va_ports(), r.va_mask(0)), (0b01, 0b01, 0b1101));
        r.validate(0);
        // Release swap-removes: the last entry takes the freed position.
        r.pop_front(0, 2);
        r.release_vc(0, 2);
        assert_eq!(r.occupied(0), &[3, 0]);
        assert_eq!(*r.vc(0, 2), VcState::FREE);
        assert_eq!((r.occupied_ports(), r.va_ports(), r.va_mask(0)), (0b01, 0b01, 0b1001));
        r.validate(0);
        // A unicast grant moves the VC from the VA mask to the SA mask.
        r.va_grant(0, 3, 0, 1, 20);
        assert_eq!((r.va_mask(0), r.sa_mask(0)), (0b0001, 0b1000));
        assert_eq!(r.front(0, 3).map(|f| f.eligible), Some(20));
        r.validate(0);
    }

    #[test]
    fn ring_wraps_and_keeps_flit_order() {
        let mut r = router(2, 2);
        r.push_flit(0, Arrival { at: 10, ..flit(5, 0, 1) });
        r.push_flit(0, Arrival { at: 11, ..flit(5, 1, 1) });
        assert_eq!(r.front(0, 1), Some(Flit { packet: 5, idx: 0, eligible: 12 }));
        r.pop_front(0, 1);
        // Third flit wraps into the slot the head vacated.
        r.push_flit(0, Arrival { at: 12, ..flit(5, 2, 1) });
        assert_eq!(r.front(0, 1), Some(Flit { packet: 5, idx: 1, eligible: 12 }));
        r.pop_front(0, 1);
        assert_eq!(r.front(0, 1), Some(Flit { packet: 5, idx: 2, eligible: 13 }));
        r.pop_front(0, 1);
        assert_eq!(r.front(0, 1), None);
        r.validate(0);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn ring_overflow_panics() {
        let mut r = router(1, 1);
        r.push_flit(0, flit(5, 0, 0));
        r.push_flit(0, flit(5, 1, 0));
    }

    #[test]
    fn alloc_takes_lowest_free_vc_in_class() {
        let mut r = router(4, 2);
        let (escape, adaptive) = (low_mask(2), low_mask(4) & !low_mask(2));
        assert_eq!(r.alloc_out_vc(0, adaptive), Some(2));
        assert_eq!(r.alloc_out_vc(0, adaptive), Some(3));
        assert_eq!(r.alloc_out_vc(0, adaptive), None);
        assert_eq!(r.alloc_out_vc(0, escape), Some(0));
        assert_eq!(r.alloc_out_vc(2, escape), None, "non-existent port");
        r.validate(0);
    }

    #[test]
    fn out_vc_free_needs_no_owner_and_full_credits() {
        let mut r = router(1, 2);
        let all = low_mask(1);
        assert_eq!(r.alloc_out_vc(0, all), Some(0));
        r.take_credit(0, 0);
        r.release_out_vc(0, 0);
        assert_eq!(r.alloc_out_vc(0, all), None, "outstanding flit downstream");
        r.validate(0);
        r.return_credit(0, 0);
        r.set_failed(0, true);
        assert_eq!(r.alloc_out_vc(0, all), None, "failed ports refuse new packets");
        r.set_failed(0, false);
        assert_eq!(r.alloc_out_vc(0, all), Some(0));
        // Credits returning while the VC is still owned do not free it.
        r.take_credit(0, 0);
        r.return_credit(0, 0);
        assert_eq!(r.alloc_out_vc(0, all), None, "owned");
        r.validate(0);
        // The ejection port frees a VC the moment its owner lets go.
        assert_eq!(r.alloc_out_vc(1, all), Some(0));
        r.release_out_vc(1, 0);
        assert_eq!(r.alloc_out_vc(1, all), Some(0));
    }

    /// A router whose output 0 has both VCs owned and one unicast head on
    /// adaptive VC 1 of the local input port, parked on output 0.
    fn parked_on_out0() -> Router {
        let mut r = router(2, 2);
        assert_eq!(r.alloc_out_vc(0, low_mask(2)), Some(0));
        assert_eq!(r.alloc_out_vc(0, low_mask(2)), Some(1));
        r.take_credit(0, 1);
        r.release_out_vc(0, 1);
        r.push_flit(1, flit(5, 0, 1));
        assert_eq!(r.va_ports(), 0b10);
        r.park(1, 1, 0, 0);
        assert_eq!((r.va_ports(), r.va_unparked(1), r.parked_heads()), (0, 0, 1));
        r.validate(0);
        r
    }

    #[test]
    fn credit_freeing_a_vc_on_the_waited_port_wakes_the_head() {
        let mut r = parked_on_out0();
        r.return_credit(0, 1);
        assert_eq!((r.va_ports(), r.va_unparked(1), r.parked_heads()), (0b10, 0b10, 0));
        r.validate(0);
        assert_eq!(r.alloc_out_vc(0, low_mask(2) & !ESCAPE), Some(1), "the retry succeeds");
    }

    #[test]
    fn credit_on_another_port_leaves_the_head_parked() {
        let mut r = parked_on_out0();
        assert_eq!(r.alloc_out_vc(1, low_mask(2)), Some(0));
        r.take_credit(1, 0);
        r.release_out_vc(1, 0);
        r.return_credit(1, 0);
        assert_eq!(r.credits(1, 0), 2, "output 1 regained a free VC");
        assert_eq!((r.va_ports(), r.parked_heads()), (0, 1));
        r.validate(0);
    }

    #[test]
    fn a_free_vc_of_another_class_leaves_the_head_parked() {
        let mut r = router(2, 2);
        assert_eq!(r.alloc_out_vc(0, low_mask(2)), Some(0));
        assert_eq!(r.alloc_out_vc(0, low_mask(2)), Some(1));
        // A head on escape VC 0 asks for the escape class only.
        r.push_flit(1, flit(5, 0, 0));
        r.park(1, 0, 0, 0);
        r.release_out_vc(0, 1);
        assert_eq!((r.va_ports(), r.parked_heads()), (0, 1), "adaptive VC 1 freed");
        r.validate(0);
        r.release_out_vc(0, 0);
        assert_eq!((r.va_ports(), r.parked_heads()), (0b10, 0), "escape VC 0 freed");
        r.validate(0);
    }

    #[test]
    fn clearing_a_fault_on_the_waited_port_wakes_the_head() {
        let mut r = router(2, 2);
        r.set_failed(0, true);
        r.push_flit(1, flit(5, 0, 0));
        r.park(1, 0, 0, 0);
        r.validate(0);
        r.set_failed(0, true);
        assert_eq!(r.parked_heads(), 1, "setting the flag wakes nobody");
        r.set_failed(0, false);
        assert_eq!((r.va_ports(), r.va_unparked(1), r.parked_heads()), (0b10, 0b01, 0));
        r.validate(0);
    }

    #[test]
    #[should_panic(expected = "lost wake-up")]
    fn validate_catches_a_head_parked_on_a_port_with_a_free_vc() {
        let mut r = router(2, 2);
        r.push_flit(1, flit(5, 0, 1));
        r.park(1, 1, 0, 0);
        r.validate(0);
    }

    #[test]
    fn arrivals_are_fifo_per_port_with_head_of_line_blocking() {
        let mut r = router(2, 2);
        r.push_arrival(0, Arrival { at: 5, ..flit(1, 0, 0) });
        r.push_arrival(1, Arrival { at: 4, ..flit(2, 0, 1) });
        r.push_arrival(0, Arrival { at: 6, ..flit(1, 1, 0) });
        assert_eq!(r.arrival_ports(), 0b11);
        r.validate(0);
        assert!(r.delay_front_arrival(0, 3), "glitch delays the front flit");
        // The front (now at 8) blocks the flit behind it (at 6).
        assert_eq!(r.pop_arrival_due(0, 7), None);
        assert_eq!(r.pop_arrival_due(1, 7).map(|a| a.packet), Some(2));
        let first = r.pop_arrival_due(0, 8).expect("front landed");
        assert_eq!((first.at, first.idx, first.eligible()), (8, 0, 10));
        assert_eq!(r.pop_arrival_due(0, 8).map(|a| a.idx), Some(1));
        assert_eq!(r.pop_arrival_due(0, 8), None);
        assert!(!r.delay_front_arrival(0, 3), "idle link");
        assert_eq!(r.arrival_ports(), 0);
        // Freed nodes are reused.
        r.push_arrival(1, Arrival { at: 9, ..flit(3, 0, 0) });
        assert_eq!(r.arrivals.len(), 3);
        r.validate(0);
    }

    #[test]
    fn injector_prefers_class_then_streams_round_robin() {
        let mut r = router(3, 2);
        let (escape, adaptive) = (low_mask(1), low_mask(3) & !low_mask(1));
        for packet in 0..4 {
            r.enqueue_injection(PendingInjection { packet, ready_at: 0 });
        }
        assert_eq!(r.injection_backlog(), 4);
        for expect in [1, 2, 0] {
            let vc = r.free_injection_vc(adaptive, escape).expect("free VC");
            assert_eq!(vc, expect, "adaptive class first, lowest VC first");
            r.start_injection(vc, 3, 7);
        }
        assert_eq!(r.free_injection_vc(adaptive, escape), None);
        assert_eq!(r.injection_backlog(), 4);
        r.validate(0);
        // Round-robin from VC 0, two credits each.
        let order: Vec<_> = std::iter::from_fn(|| r.next_injection_flit(9))
            .map(|a| (a.vc, a.packet, a.idx))
            .collect();
        assert_eq!(
            order,
            vec![(0, 2, 0), (1, 0, 0), (2, 1, 0), (0, 2, 1), (1, 0, 1), (2, 1, 1)]
        );
        r.return_injection_credit(1);
        assert_eq!(
            r.next_injection_flit(9),
            Some(Arrival { at: 9, packet: 0, idx: 2, dest: 7, vc: 1 })
        );
        assert_eq!(r.injection_backlog(), 3, "stream on VC 1 finished");
        // Finished but under-credited: not free until the credits return.
        assert_eq!(r.free_injection_vc(adaptive, escape), None);
        r.return_injection_credit(1);
        r.return_injection_credit(1);
        assert_eq!(r.free_injection_vc(adaptive, escape), Some(1));
        r.validate(0);
    }

    #[test]
    fn quiescent_tracks_every_work_source() {
        let mut r = router(2, 4);
        assert!(r.quiescent());
        // A pending injection is work.
        r.enqueue_injection(PendingInjection { packet: 0, ready_at: 9 });
        assert!(!r.quiescent());
        // A streaming injection VC is work.
        r.start_injection(1, 1, 7);
        assert!(!r.quiescent());
        assert_eq!(r.next_injection_flit(9).map(|a| (a.vc, a.idx)), Some((1, 0)));
        assert!(r.quiescent());
        // An in-flight link delivery is work, even if not yet due.
        r.push_arrival(0, Arrival { at: 100, ..flit(3, 0, 1) });
        assert!(!r.quiescent());
        let a = r.pop_arrival_due(0, 100).expect("due");
        assert!(r.quiescent());
        // A claimed VC is work (wormhole in progress).
        r.push_flit(0, a);
        assert!(!r.quiescent());
        r.pop_front(0, 1);
        r.release_vc(0, 1);
        assert!(r.quiescent());
    }

    #[test]
    fn multicast_entry_lives_only_while_routed() {
        let mut r = router(2, 2);
        r.push_flit(0, Arrival { dest: Arrival::TREE, ..flit(7, 0, 1) });
        r.mc_route(0, 1, &[(0, 8), (1, 9)]);
        assert!(r.vc(0, 1).mc_routed());
        assert_eq!((r.va_mask(0), r.sa_mask(0)), (0b10, 0), "branches still unallocated");
        r.mc_set_branch_vc(0, 1, 0, 1);
        assert_eq!((r.va_mask(0), r.sa_mask(0)), (0b10, 0b10), "one branch may already send");
        r.validate(0);
        r.mc_set_branch_vc(0, 1, 1, 0);
        assert_eq!((r.va_ports(), r.va_mask(0)), (0, 0), "every branch allocated");
        assert!(!r.mc_mark_sent(0, 1, 0));
        assert!(r.mc(0, 1).sent(0) && !r.mc(0, 1).sent(1));
        assert!(r.mc_mark_sent(0, 1, 1), "front flit copied to every branch");
        assert!(!r.mc(0, 1).sent(0), "mask resets for the next flit");
        r.validate(0);
        r.pop_front(0, 1);
        r.release_vc(0, 1);
        assert!(r.mc.is_empty());
        r.validate(0);
    }
}
