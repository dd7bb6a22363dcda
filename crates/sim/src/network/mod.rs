//! The network: routers, links, RF-I overlay, and the cycle-level engine.

use crate::config::{SimConfig, CYCLE_LIMIT};
use crate::error::{check_shortcut_set, ConfigError, ReconfigError, SimError};
use crate::fault::{FaultEvent, FaultPlan, HealthReport};
use crate::packet::{DestSet, Destination, MessageSpec};
use crate::rfmc::{plan_delivery, DeliveryPlan, McConfig, McTransmission};
use crate::router::{
    bits, bits_from, low_mask, Arrival, OutLink, PendingInjection, Router, MAX_ROUTER_PORTS,
    MAX_VCS,
};
use crate::stats::RunStats;
use crate::vct::{VctConfig, VctTable};
use rfnoc_topology::{BaseRoutes, DistanceOracle, FabricSpec, GridDims, NodeId, Shortcut};
use std::collections::VecDeque;
use std::sync::atomic;

/// How unicast packets are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// XY dimension-order routing (the paper's baseline mesh).
    Xy,
    /// Shortest-path routing over mesh + shortcuts (the paper switches to
    /// this whenever RF-I shortcuts are present, §3.2), priced pair by pair
    /// by a [`DistanceOracle`] where the paper programs per-router tables.
    ShortestPath,
}

/// How multicast messages are carried.
#[derive(Debug, Clone, PartialEq)]
pub enum MulticastMode {
    /// Expand each multicast into per-destination unicasts (the paper's
    /// baseline and "Adaptive Shortcuts" multicast reference).
    AsUnicasts,
    /// Virtual Circuit Tree multicast in the conventional mesh (§5.2
    /// baseline, after Jerger et al.).
    Vct(VctConfig),
    /// RF-I broadcast channel with a DBV flit and power-gated receivers
    /// (§3.3).
    Rf,
}

/// Full specification of a network to simulate. Everything routing needs
/// is the fabric and the shortcut list: a shortest-path network derives its
/// routes from them when it is built.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// The base fabric the RF-I overlay rides on (mesh or ring-mesh).
    pub fabric: FabricSpec,
    /// Microarchitectural configuration.
    pub config: SimConfig,
    /// RF-I shortcut set (empty for the baseline).
    pub shortcuts: Vec<Shortcut>,
    /// Unicast routing algorithm.
    pub routing: RoutingKind,
    /// Multicast handling.
    pub multicast: MulticastMode,
    /// RF multicast channel configuration (required for
    /// [`MulticastMode::Rf`]).
    pub mc: Option<McConfig>,
    /// When set, shortcuts are realised in conventional buffered RC wire
    /// instead of RF-I: each costs `ceil(cycles_per_hop × manhattan)` link
    /// cycles and its traffic is charged as repeated-wire (not RF) energy.
    /// The paper's Figure 10a "Mesh Wire Shortcuts" uses ≈0.8 cycles per
    /// 2 mm hop at the 2 GHz network clock (repeated RC wire crosses a
    /// 400 mm² die in ≈4 ns vs 0.3 ns for RF-I, §2).
    pub wire_shortcut_cycles_per_hop: Option<f64>,
    /// Deterministic fault schedule applied during the run (empty for a
    /// fault-free simulation).
    pub faults: FaultPlan,
}

impl NetworkSpec {
    /// A baseline mesh with XY routing and no RF-I.
    pub fn mesh_baseline(dims: GridDims, config: SimConfig) -> Self {
        Self {
            fabric: FabricSpec::mesh(dims),
            config,
            shortcuts: Vec::new(),
            routing: RoutingKind::Xy,
            multicast: MulticastMode::AsUnicasts,
            mc: None,
            wire_shortcut_cycles_per_hop: None,
            faults: FaultPlan::default(),
        }
    }

    /// A mesh overlaid with the given RF-I shortcuts, using shortest-path
    /// routing.
    pub fn with_shortcuts(dims: GridDims, config: SimConfig, shortcuts: Vec<Shortcut>) -> Self {
        Self {
            fabric: FabricSpec::mesh(dims),
            config,
            shortcuts,
            routing: RoutingKind::ShortestPath,
            multicast: MulticastMode::AsUnicasts,
            mc: None,
            wire_shortcut_cycles_per_hop: None,
            faults: FaultPlan::default(),
        }
    }

    /// An arbitrary fabric, optionally overlaid with RF-I shortcuts.
    ///
    /// Base (escape) routing follows the fabric's deadlock-free base
    /// routes; with a non-empty shortcut set, unicasts use shortest-path
    /// routing over the fabric + shortcuts.
    pub fn with_fabric(fabric: FabricSpec, config: SimConfig, shortcuts: Vec<Shortcut>) -> Self {
        let routing = if shortcuts.is_empty() {
            RoutingKind::Xy
        } else {
            RoutingKind::ShortestPath
        };
        Self {
            fabric,
            config,
            shortcuts,
            routing,
            multicast: MulticastMode::AsUnicasts,
            mc: None,
            wire_shortcut_cycles_per_hop: None,
            faults: FaultPlan::default(),
        }
    }

    /// Grid dimensions of the fabric.
    pub fn dims(&self) -> GridDims {
        self.fabric.dims()
    }

    /// Returns this specification with a fault schedule attached.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// A source of injected messages, driven cycle by cycle.
pub trait Workload {
    /// Appends the messages created at `cycle` to `out`.
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>);
}

/// A fixed, pre-scripted message schedule (useful for tests).
#[derive(Debug, Clone, Default)]
pub struct ScriptedWorkload {
    events: Vec<(u64, MessageSpec)>,
    pos: usize,
}

impl ScriptedWorkload {
    /// Creates a workload from `(cycle, message)` events; they are sorted
    /// by cycle internally.
    pub fn new(mut events: Vec<(u64, MessageSpec)>) -> Self {
        events.sort_by_key(|(c, _)| *c);
        Self { events, pos: 0 }
    }
}

impl Workload for ScriptedWorkload {
    fn messages_at(&mut self, cycle: u64, out: &mut Vec<MessageSpec>) {
        while self.pos < self.events.len() && self.events[self.pos].0 <= cycle {
            out.push(self.events[self.pos].1);
            self.pos += 1;
        }
    }
}

/// Destination bookkeeping of an in-flight packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketDest {
    /// The destination router.
    Unicast(u32),
    /// A tree-multicast packet, whose destination set is kept out of line
    /// ([`PacketTable::tree`]): only VCT runs have tree packets, and a set
    /// would more than double every packet's record.
    Tree(u32),
}

/// `PacketInfo::parent` of a packet that belongs to no multicast message.
const NO_PARENT: u32 = u32::MAX;

/// An in-flight packet (36 bytes). The three fields that mutate after
/// creation (`mesh_only`, `ejected`, `head_grants`) are relaxed atomics so
/// parallel sweep shards can share the packet table read-only: each field
/// has exactly one logical writer per cycle (a packet's head flit sits in
/// one router; its flits all eject at its single destination —
/// tree-multicast packets, which fork, run on the serial path only), so
/// the atomics exist to make the concurrent *reads* from other shards
/// well-defined, and the pool's cycle-boundary barriers order writes
/// against later cycles.
#[derive(Debug)]
struct PacketInfo {
    dest: PacketDest,
    /// Router where this packet entered the network.
    src: u32,
    /// Creation cycle stamp.
    created: u32,
    /// The multicast message (`Network::parents`) this packet carries part
    /// of, [`NO_PARENT`] for a unicast message.
    parent: u32,
    flits: u16,
    /// Payload bytes (the last flit may be partially filled).
    bytes: u16,
    measured: bool,
    /// Deliver to the RF multicast engine on arrival (cache → central bank
    /// carry message).
    mc_carry: bool,
    /// Set when the packet detoured around a congested shortcut; it then
    /// follows XY for the rest of its route (monotone progress, so the
    /// contention-avoidance detour cannot livelock).
    mesh_only: std::sync::atomic::AtomicBool,
    ejected: std::sync::atomic::AtomicU32,
    /// Routers the head flit has been granted through (hops + 1 at
    /// completion).
    head_grants: std::sync::atomic::AtomicU32,
}

impl PacketInfo {
    /// A packet created at cycle `created`, which narrows to its stamp.
    ///
    /// # Panics
    ///
    /// Panics if `flits` or `bytes` exceeds 65,535 (a message class is at
    /// most 132 bytes).
    #[allow(clippy::too_many_arguments, clippy::fn_params_excessive_bools)]
    fn new(
        dest: PacketDest,
        src: u32,
        flits: u32,
        bytes: u32,
        created: u64,
        measured: bool,
        parent: Option<u32>,
        mc_carry: bool,
    ) -> Self {
        Self {
            dest,
            src,
            flits: u16::try_from(flits).expect("a packet has at most 65,535 flits"),
            bytes: u16::try_from(bytes).expect("a packet carries at most 65,535 bytes"),
            created: created as u32,
            measured,
            parent: parent.unwrap_or(NO_PARENT),
            mc_carry,
            mesh_only: std::sync::atomic::AtomicBool::new(false),
            ejected: std::sync::atomic::AtomicU32::new(0),
            head_grants: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// The multicast message this packet carries part of.
    #[inline]
    fn parent(&self) -> Option<u32> {
        (self.parent != NO_PARENT).then_some(self.parent)
    }

    /// The route information its head flit carries: the unicast
    /// destination, or [`Arrival::TREE`].
    #[inline]
    fn head_dest(&self) -> u32 {
        match self.dest {
            PacketDest::Unicast(d) => d,
            PacketDest::Tree(_) => Arrival::TREE,
        }
    }
}

/// The packet table: append-only and chunked, so growing it never moves the
/// packets already in it. A single growing `Vec` copies the whole table at
/// every doubling — a multi-megabyte transient on a saturated run whose
/// resident cost depends on where the allocator happens to find room.
#[derive(Debug, Default)]
struct PacketTable {
    /// Full chunks of `Self::CHUNK` packets followed by at most one
    /// partly filled chunk (allocated at full capacity, never regrown).
    chunks: Vec<Vec<PacketInfo>>,
    len: usize,
    /// Destination sets of the tree-multicast packets, by
    /// [`PacketDest::Tree`] index.
    trees: Vec<DestSet>,
}

impl PacketTable {
    const SHIFT: u32 = 10;
    /// Packets per chunk; 36 KiB, below the allocator's mmap threshold.
    const CHUNK: usize = 1 << Self::SHIFT;

    /// Keeps a tree packet's destination set, for the packet to name.
    fn tree_dest(&mut self, set: DestSet) -> PacketDest {
        self.trees.push(set);
        PacketDest::Tree(u32::try_from(self.trees.len() - 1).expect("tree ids fit in 32 bits"))
    }

    /// The destination set of tree packet `tree`.
    #[inline]
    fn tree(&self, tree: u32) -> DestSet {
        self.trees[tree as usize]
    }

    /// Appends a packet and returns its id.
    fn push(&mut self, p: PacketInfo) -> u32 {
        let id = self.len;
        if id.is_multiple_of(Self::CHUNK) {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        self.chunks[id >> Self::SHIFT].push(p);
        self.len += 1;
        u32::try_from(id).expect("packet ids fit in 32 bits")
    }

    #[inline]
    fn get(&self, id: u32) -> &PacketInfo {
        &self.chunks[(id >> Self::SHIFT) as usize][id as usize % Self::CHUNK]
    }
}

#[derive(Debug, Clone)]
struct ParentInfo {
    /// Source router of the multicast message.
    src: u32,
    created: u64,
    measured: bool,
    remaining: u32,
    dests: DestSet,
    bytes: u32,
}

/// Progress of an in-flight RF-I reconfiguration (paper §3.2 steps 1–3).
#[derive(Debug, Clone, PartialEq)]
enum ReconfigState {
    /// No reconfiguration pending.
    Idle,
    /// New shortcut set selected; waiting for all RF-I channels to drain
    /// (transmitters stop accepting new packets onto the RF ports).
    Draining(Vec<Shortcut>),
    /// Transmitters/receivers retuned and routing tables being rewritten;
    /// injection stalls until the given cycle (99 cycles for 100 routers
    /// with one write port each).
    Updating(u64),
}

/// The unicast routes of a table-routed network.
#[derive(Debug)]
struct Routes {
    /// Shortest paths over the intact fabric plus the installed shortcuts.
    oracle: DistanceOracle,
    /// Dense routes over the surviving links and the installed shortcuts,
    /// present exactly while a base link is down; unicasts then follow
    /// them instead of the oracle.
    detour: Option<Detour>,
}

/// Dense routes over the surviving base links (and, for the unicast
/// routes, the installed shortcuts), `router * n + dest` each (see
/// `Network::detour_tables`): 3 B a router pair.
#[derive(Debug)]
struct Detour {
    /// Out port; an unreachable pair keeps its base-route port.
    ports: Vec<u8>,
    /// BFS hop distances, `u16::MAX` where `dest` is unreachable. They
    /// price contention-avoidance detours, diagnose a partition, and let a
    /// link failure or repair re-sweep only the destinations it can affect.
    reach: Vec<u16>,
}

impl Routes {
    /// The out port from `r` toward `dest` (`r != dest`).
    #[inline]
    fn port(&self, r: NodeId, dest: NodeId) -> u8 {
        match &self.detour {
            Some(t) => t.ports[r * self.oracle.node_count() + dest],
            None => self.oracle.route_port(r, dest),
        }
    }

    /// Shortest-path hops from `r` to `dest` (`u16::MAX` when a link
    /// failure cut `dest` off).
    fn hops(&self, r: NodeId, dest: NodeId) -> u32 {
        match &self.detour {
            Some(t) => u32::from(t.reach[r * self.oracle.node_count() + dest]),
            None => self.oracle.distance(r, dest),
        }
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    dims: GridDims,
    /// The base fabric (mesh or ring-mesh) the routers are wired from.
    fabric: FabricSpec,
    /// Per-router base-slot counts (`fabric.base_slot_count`), cached so the
    /// hot loops never re-derive them. The local port of router `r` is slot
    /// `base_ports[r]`, its RF port slot `base_ports[r] + 1`.
    base_ports: Vec<u8>,
    /// Widest router's port count (`fabric.max_base_slots() + 2`): the flat
    /// stride of every per-(router, port) statistics vector.
    max_ports: usize,
    /// The fabric's base (escape) route of every pair, in closed form
    /// over one array of the routers' places.
    base_routes: BaseRoutes,
    config: SimConfig,
    /// Unicast routes, present in [`RoutingKind::ShortestPath`] mode.
    routes: Option<Routes>,
    reconfig: ReconfigState,
    reconfigurations: u64,
    /// Shortcut set currently installed on the RF ports (tracks retunes
    /// and fault teardowns).
    active_shortcuts: Vec<Shortcut>,
    /// Retune target deferred because a table rewrite was in flight when a
    /// fault struck; applied as a fresh drain once the rewrite completes.
    pending_target: Option<Vec<Shortcut>>,
    /// Per-router RF transmitter failure flags: a failed transmitter is
    /// skipped by every retune until repaired.
    failed_rf_tx: Vec<bool>,
    /// One-way base-link failure flags (`router * max_base_slots + slot`,
    /// base fabric slots only). `MeshLinkDown` fails both directions
    /// together.
    link_failed: Vec<bool>,
    /// Count of failed *undirected* mesh links (fast zero check).
    mesh_link_failures: usize,
    /// Routes for escape traffic over the surviving base links only;
    /// `None` while the base fabric is intact (escape traffic then follows
    /// the fabric's base route, exactly as the fault-free simulator did).
    escape: Option<Detour>,
    /// Fault schedule being applied.
    faults: FaultPlan,
    /// Last cycle any switch grant happened (or the network went busy) —
    /// the watchdog's forward-progress signal.
    last_progress: u64,
    /// Last cycle a measured message completed (or the network went busy).
    last_completion: u64,
    routers: Vec<Router>,
    packets: PacketTable,
    parents: Vec<ParentInfo>,
    multicast: MulticastMode,
    mc: Option<McConfig>,
    mc_queues: Vec<VecDeque<u32>>,
    mc_current: Option<(McTransmission, DeliveryPlan)>,
    vct_table: Option<VctTable>,
    stats: RunStats,
    cycle: u64,
    measured_outstanding: u64,
    counting: bool,
    // scratch / outboxes
    /// RF-multicast enqueues from the serial injection phase (a cluster
    /// transmitter sourcing its own multicast); sweep-time enqueues land in
    /// the shard buffers instead.
    mc_enqueues: Vec<(usize, u32)>,
    pending_inj: Vec<(usize, u32, u64)>,
    /// The contiguous router ranges the sweep's shards own
    /// ([`sweep::shard_ranges`]), fixed at construction: one per
    /// `SimConfig::threads`, clamped to the router count, and a single
    /// range under VCT multicast (tree forks allocate packets mid-sweep).
    /// Its length is the shard count.
    shard_ranges: Vec<(usize, usize)>,
    /// One outbox per shard (see [`sweep::ShardBuf`]).
    shard_bufs: Vec<sweep::ShardBuf>,
    /// Parked worker threads for a sweep over several shards (`None` on
    /// one shard).
    pool: Option<rfnoc_parallel::WorkerPool>,
    /// Telemetry accumulator, present when [`SimConfig::telemetry`] is
    /// set. Boxed so the disabled case costs one null-check per hook.
    telemetry: Option<Box<telemetry::TelemetryState>>,
    /// Per-fault recovery tracker, present when [`SimConfig::recovery`]
    /// is set. Boxed for the same reason as `telemetry`.
    recovery: Option<Box<faults::RecoveryState>>,
    /// Run-ledger accumulator, present when [`SimConfig::ledger`] is set.
    /// Boxed for the same reason as `telemetry`.
    ledger: Option<Box<ledger::LedgerState>>,
    // Active-router scheduling (see DESIGN.md, "Engine performance"):
    // `step_routers` visits only routers that can possibly make progress.
    /// Sweep counter: bumped once per `step_routers` call. A router is
    /// visited in sweep `e` iff its stamp equals `e` at that sweep.
    active_epoch: u64,
    /// Per-router sweep stamp; `mark_active` stamps the upcoming sweep.
    active_stamp: Vec<u64>,
}

mod build;
mod engine;
mod faults;
mod inject;
pub(crate) mod ledger;
mod mc_engine;
mod reconfig;
mod sweep;
pub(crate) mod telemetry;

pub use ledger::{LedgerConfig, LedgerRecord, LedgerReport};
pub use sweep::shard_ranges;

pub use telemetry::{
    latency_bucket, latency_bucket_bounds, DelayBreakdown, HopRecord, IntervalSample,
    PacketSpan, TelemetryConfig, TelemetryReport, TimelineEvent, TimelineEventKind,
    HOP_ROUTE_CYCLES, HOP_SWITCH_CYCLES, LATENCY_BUCKETS,
};

impl Network {

    /// Grid dimensions of the network.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// The base fabric the network was built from.
    pub fn fabric(&self) -> FabricSpec {
        self.fabric
    }

    /// Local (core-side) port slot of router `r`.
    #[inline]
    pub(crate) fn local_port(&self, r: usize) -> usize {
        self.base_ports[r] as usize
    }

    /// RF transmitter/receiver port slot of router `r`.
    #[inline]
    pub(crate) fn rf_port(&self, r: usize) -> usize {
        self.base_ports[r] as usize + 1
    }

    /// Base-slot stride of the `link_failed` flags (`max_ports - 2`).
    #[inline]
    pub(crate) fn max_base(&self) -> usize {
        self.max_ports - 2
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The routing algorithm in use.
    pub fn routing(&self) -> RoutingKind {
        if self.routes.is_some() {
            RoutingKind::ShortestPath
        } else {
            RoutingKind::Xy
        }
    }

    /// Total packets waiting or streaming at the injection interfaces —
    /// a quick congestion/saturation diagnostic.
    pub fn injection_backlog(&self) -> usize {
        self.routers.iter().map(Router::injection_backlog).sum()
    }

    /// The shortcut set currently installed on the RF ports (shrinks when
    /// shortcuts fail, changes on retune).
    pub fn active_shortcuts(&self) -> &[Shortcut] {
        &self.active_shortcuts
    }

    /// Failed undirected mesh links right now.
    pub fn mesh_link_failures(&self) -> usize {
        self.mesh_link_failures
    }

    /// The watchdog's health report, when the last `run` was flagged
    /// unhealthy.
    pub fn health(&self) -> Option<&HealthReport> {
        self.stats.health.as_ref()
    }

    /// Validates the engine's internal bookkeeping invariants; intended
    /// for tests that single-step the network (call it between steps, when
    /// the cycle's outboxes have been applied). Panics on violation.
    ///
    /// Every derived field of the flat router block is recomputed from
    /// primary state and compared (see `Router::validate`):
    ///
    /// - each input port's occupied list names exactly the VCs with a
    ///   claimed packet, without duplicates or out-of-range entries — the
    ///   active-set scheduler and both allocation stages scan this list
    ///   instead of every VC — and a released VC carries no leftover state;
    /// - each VA mask bit is set exactly for a claimed VC whose head still
    ///   needs an output VC, each SA mask bit exactly for a VC holding an
    ///   output allocation; a cold multicast entry exists exactly for a
    ///   VC flagged `mc_routed`;
    /// - each header port mask (link arrivals pending, claimed VCs,
    ///   unparked heads awaiting VA) has exactly the bits of the ports
    ///   with such work, and the arrival slab's FIFOs and free list
    ///   account for every node;
    /// - no lost wake-up: every parked head is a claimed unicast head
    ///   awaiting VA, listed as a waiter on each output port it asked for,
    ///   and neither port has a free VC of the class it asked for there;
    ///   and those ports are the ones it would ask for now (no route or RF
    ///   admission change since it parked), recomputed from the tables;
    /// - each output port's free-VC mask (and the injector's) equals
    ///   "unowned and fully credited";
    /// - ports that don't physically exist hold no work.
    ///
    /// Across routers:
    ///
    /// - flit/credit conservation: for every link and VC, the sender's
    ///   credits plus the flits on the link and in the receiver's buffer
    ///   equal the buffer depth (likewise injector → local input port);
    /// - active-set coverage: every non-quiescent router is stamped for
    ///   the next `step_routers` visit (no lost work);
    /// - no link event outlives its cycle: every shard's delivery and
    ///   credit lists, boundary and shard-local, are empty, so an event
    ///   that was listed but never applied fails here at the cycle it
    ///   happens (one applied twice fails the conservation check above).
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let vcs = self.config.total_vcs();
        let depth = self.config.buffer_depth;
        for (si, b) in self.shard_bufs.iter().enumerate() {
            assert!(
                b.deliveries.is_empty() && b.credit_returns.is_empty() && b.local_credits.is_empty(),
                "shard {si} holds unapplied link events at a cycle boundary: {} deliveries, \
                 {} boundary credits, {} shard-local credits",
                b.deliveries.len(),
                b.credit_returns.len(),
                b.local_credits.len()
            );
        }
        for (r, router) in self.routers.iter().enumerate() {
            router.validate(r);
            self.validate_parked_requests(r);
            for port in 0..router.num_ports() {
                let Some((t_router, t_port)) = router.out(port).target() else { continue };
                let target = &self.routers[t_router];
                assert_eq!(
                    target.upstream(t_port as usize),
                    Some((r, port as u8)),
                    "router {r} out port {port}: link ends disagree"
                );
                for vc in 0..vcs {
                    let credits = router.credits(port, vc) as usize;
                    let inbound = target.inbound_flits(t_port as usize, vc);
                    assert_eq!(
                        credits + inbound,
                        depth,
                        "router {r} out port {port} vc {vc}: {credits} credits + {inbound} \
                         flits downstream != depth {depth}"
                    );
                }
            }
            for vc in 0..vcs {
                let credits = router.injection_credits(vc);
                let inbound = router.inbound_flits(router.local_port(), vc);
                assert_eq!(
                    credits + inbound,
                    depth,
                    "router {r} injector vc {vc}: {credits} credits + {inbound} flits \
                     downstream != depth {depth}"
                );
            }
            if !router.quiescent() {
                assert_eq!(
                    self.active_stamp[r], self.active_epoch,
                    "router {r} has pending work but is not in the active set"
                );
            }
        }
    }

    /// Checks that every head parked at router `r` waits on the output
    /// ports VA would ask for if it tried the head now — the rules of
    /// `Sweep::va_unicast`, recomputed from the current tables.
    fn validate_parked_requests(&self, r: usize) {
        let router = &self.routers[r];
        let rf = self.rf_port(r);
        let escape_vcs = low_mask(self.config.vcs_escape);
        for port in bits(router.occupied_ports()) {
            for vc in bits(router.parked(port)) {
                let v = router.vc(port, vc);
                let dest = v.dest() as usize;
                let packet = v.cur_packet().expect("a parked VC is claimed");
                let escape = self.escape.as_ref();
                let escape =
                    sweep::escape_port(escape, &self.base_routes, &self.base_ports, r, dest) as usize;
                let want = if escape_vcs & (1 << vc) != 0 {
                    escape
                } else {
                    let mesh_only = self.routes.is_some()
                        && self.packets.get(packet).mesh_only.load(atomic::Ordering::Relaxed);
                    let route = match &self.routes {
                        Some(routes) if !mesh_only && r != dest => routes.port(r, dest) as usize,
                        _ => escape,
                    };
                    let asked = if route == rf && !self.rf_accepting() { escape } else { route };
                    assert!(
                        asked != rf || !self.config.adaptive_shortcut_routing,
                        "router {r} port {port} vc {vc}: an RF-bound head parked under \
                         adaptive shortcut routing"
                    );
                    asked
                };
                assert_eq!(
                    (v.out_port(), v.out_vc() as usize),
                    (want, escape),
                    "router {r} port {port} vc {vc}: parked on a request that changed since \
                     — a lost wake-up"
                );
            }
        }
    }
}


/// Base-route tree partition of a destination set at router `r`: the
/// non-empty (output port, destination subset) groups, packed into the
/// first `len` slots of a fixed array — at most one group per output port,
/// so no heap allocation on the VA hot path. `base_port` maps a non-local
/// destination to its base-route out slot; `local_port` is `r`'s local
/// slot. Groups are emitted in ascending port order.
fn partition_tree(
    r: NodeId,
    local_port: u8,
    base_port: impl Fn(NodeId) -> u8,
    set: &DestSet,
) -> ([(u8, DestSet); MAX_ROUTER_PORTS], usize) {
    let mut groups: [DestSet; MAX_ROUTER_PORTS] = Default::default();
    for dest in set.iter() {
        let p = if dest == r { local_port } else { base_port(dest) };
        groups[p as usize].insert(dest);
    }
    let mut out: [(u8, DestSet); MAX_ROUTER_PORTS] = Default::default();
    let mut len = 0;
    for (p, g) in groups.iter().enumerate() {
        if !g.is_empty() {
            out[len] = (p as u8, *g);
            len += 1;
        }
    }
    (out, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_topology::fabric::{SLOT_E, SLOT_S, SLOT_W};

    const PORT_LOCAL_MESH: u8 = 4;

    #[test]
    fn partition_tree_groups_by_xy_port() {
        let routes = BaseRoutes::of(&FabricSpec::mesh(GridDims::new(4, 4)));
        // at node 5 = (1,1): dest 5 -> local; dest 7 (3,1) -> east;
        // dest 4 (0,1) -> west; dest 13 (1,3) -> south.
        let set = DestSet::from_nodes([5, 7, 4, 13]);
        let (groups, len) = partition_tree(5, PORT_LOCAL_MESH, |d| routes.port(5, d), &set);
        assert_eq!(len, 4);
        let groups = &groups[..len];
        let port_of = |dest: usize| {
            groups
                .iter()
                .find(|(_, g)| g.contains(dest))
                .map(|&(p, _)| p)
                .expect("dest grouped")
        };
        assert_eq!(port_of(5), PORT_LOCAL_MESH);
        assert_eq!(port_of(7), SLOT_E);
        assert_eq!(port_of(4), SLOT_W);
        assert_eq!(port_of(13), SLOT_S);
    }

    #[test]
    fn partition_tree_xy_goes_x_first() {
        let routes = BaseRoutes::of(&FabricSpec::mesh(GridDims::new(4, 4)));
        // dest 15 = (3,3) from node 0 = (0,0): XY routes east first.
        let (groups, len) =
            partition_tree(0, PORT_LOCAL_MESH, |d| routes.port(0, d), &DestSet::from_nodes([15]));
        assert_eq!(len, 1);
        assert_eq!(groups[0].0, SLOT_E);
    }

    #[test]
    fn scripted_workload_sorts_events() {
        let mut w = ScriptedWorkload::new(vec![
            (5, MessageSpec::unicast(0, 1, crate::packet::MessageClass::Request)),
            (1, MessageSpec::unicast(1, 2, crate::packet::MessageClass::Request)),
        ]);
        let mut out = Vec::new();
        w.messages_at(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, 1);
        w.messages_at(10, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn packet_table_grows_without_moving_packets() {
        let mut table = PacketTable::default();
        let packet =
            |i: u32| PacketInfo::new(PacketDest::Unicast(i), i, 1, 16, 0, false, None, false);
        assert_eq!(table.push(packet(0)), 0);
        let first: *const PacketInfo = table.get(0);
        let n = 2 * PacketTable::CHUNK as u32 + 1;
        for i in 1..n {
            assert_eq!(table.push(packet(i)), i);
        }
        assert_eq!(table.chunks.len(), 3);
        assert!(std::ptr::eq(first, table.get(0)));
        for i in [0, 1, PacketTable::CHUNK as u32 - 1, PacketTable::CHUNK as u32, n - 1] {
            assert_eq!(table.get(i).src, i);
        }
        assert!(std::mem::size_of::<PacketInfo>() * PacketTable::CHUNK < 128 << 10);
    }

    /// The table keeps every packet of a run, tens of thousands on a
    /// loaded 64×64 mesh: a record is stamps, ids and 16-bit sizes, with a
    /// tree packet's destination set out of line.
    #[test]
    fn packet_record_fits_48_bytes() {
        let size = std::mem::size_of::<PacketInfo>();
        assert!(size <= 48, "a packet record of {size} B");
        let mut table = PacketTable::default();
        let set = DestSet::from_nodes([3, 77, 127]);
        let dest = table.tree_dest(set);
        let id = table.push(PacketInfo::new(dest, 0, 3, 39, 7, true, Some(5), false));
        let p = table.get(id);
        assert_eq!(p.dest, PacketDest::Tree(0));
        assert_eq!(table.tree(0), set);
        assert_eq!(
            (p.head_dest(), p.parent(), p.created, p.flits, p.bytes),
            (Arrival::TREE, Some(5), 7, 3, 39)
        );
        let top = CYCLE_LIMIT;
        let unicast = PacketInfo::new(PacketDest::Unicast(9), 1, 1, 7, top, false, None, true);
        let id = table.push(unicast);
        let p = table.get(id);
        assert_eq!((p.head_dest(), p.parent(), u64::from(p.created)), (9, None, top));
    }

    #[test]
    fn network_accessors() {
        let dims = GridDims::new(4, 4);
        let mut cfg = SimConfig::paper_baseline();
        cfg.warmup_cycles = 0;
        let net = Network::new(NetworkSpec::mesh_baseline(dims, cfg));
        assert_eq!(net.dims(), dims);
        assert_eq!(net.cycle(), 0);
        assert_eq!(net.routing(), RoutingKind::Xy);
        assert_eq!(net.injection_backlog(), 0);
    }
}
