//! What a network keeps for its routes. A shortest-path network routes
//! from a distance oracle whose tables grow with the router count, not
//! with its square, and every network takes its base (escape) route from a
//! closed form over one array of its routers' places. So a 64×64 mesh or
//! ring-mesh with the paper's 16 shortcuts holds about as much per router
//! as the mesh XY-routed without shortcuts. Only while a base link is down
//! does a network keep tables of router pairs: the escape and the unicast
//! routes over the surviving links, 3 B a pair each.
//!
//! It also bounds what the XY-routed mesh keeps a router in all: the flat
//! router block at the paper's shape, and the network's per-router arrays.
//!
//! The binary counts every allocation through its own global allocator,
//! so it holds this one test only.

use rfnoc_sim::{FaultEvent, FaultPlan, Network, NetworkSpec, SimConfig};
use rfnoc_topology::{FabricSpec, GridDims, Shortcut};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// The system allocator, counting the bytes it holds.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from this allocator, which only hands out
        // `System` pointers, with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Net bytes per router that building the network of `spec` leaves
/// allocated.
fn bytes_per_router(spec: NetworkSpec) -> i64 {
    let routers = spec.fabric.nodes() as i64;
    let before = LIVE.load(Relaxed);
    let network = Network::try_new(spec).expect("a valid spec");
    let kept = LIVE.load(Relaxed) - before;
    drop(network);
    kept / routers
}

/// 16 long shortcuts from row 2 to row `height - 3` of a grid at least
/// 32 routers wide, one out of and one into each router they touch.
fn long_shortcuts(dims: GridDims) -> Vec<Shortcut> {
    let (w, h) = (dims.width(), dims.height());
    let at = |x: usize, y: usize| y * w + x;
    let step = w / 16;
    (0..16).map(|i| Shortcut::new(at(step * i + 1, 2), at(w - 2 - step * i, h - 3))).collect()
}

/// The counting allocator is process-wide, so every measurement of this
/// binary lives in this one test: a second test would run beside it and
/// count into its figures.
#[test]
fn shortest_path_routes_cost_no_table_of_router_pairs() {
    let dims = GridDims::new(64, 64);
    let shortcuts = long_shortcuts(dims);
    let config = SimConfig::paper_baseline();
    let xy = bytes_per_router(NetworkSpec::mesh_baseline(dims, config.clone()));
    // At the paper's router shape (6 ports, 12 VCs, 4-flit buffers) the
    // flat router block is a 256-B header, 1,152 B of `u32` flit rings,
    // 1,152 B of VC records and per-port and per-VC records sized by the
    // VC count; the network adds a few words a router.
    let router_bound = 3_500;
    assert!(
        xy <= router_bound,
        "an XY 64x64 paper-baseline router keeps {xy} B, more than {router_bound}"
    );
    // An array of router pairs costs at least one byte a pair, 4,096 B a
    // router at 64×64. 256 B a router is a sixteenth of that, and room for
    // the oracle's per-router arrays.
    let bound = 256;
    let fabrics = [FabricSpec::mesh(dims), FabricSpec::ring_mesh(dims, 4)];
    for fabric in fabrics {
        let spec = NetworkSpec::with_fabric(fabric, config.clone(), shortcuts.clone());
        let routed = bytes_per_router(spec);
        assert!(
            routed - xy <= bound,
            "a shortest-path {fabric} router keeps {routed} B, an XY mesh router {xy} B: the \
             routes cost {} B per router, more than {bound}",
            routed - xy
        );
    }

    // A link failure makes the network keep the escape and the unicast
    // routes over the surviving links, `ports: u8` and `reach: u16` a pair
    // each: 6 B a pair, where the 64-B-a-router slack covers everything
    // kept per router (a step with no traffic keeps nothing else).
    let dims = GridDims::new(32, 32);
    let routers = dims.nodes() as i64;
    let fault_at = 2;
    let plan = FaultPlan::new(vec![(fault_at, FaultEvent::MeshLinkDown { a: 0, b: 1 })]);
    let spec = NetworkSpec::with_fabric(FabricSpec::mesh(dims), config, long_shortcuts(dims))
        .with_fault_plan(plan);
    let mut network = Network::try_new(spec).expect("a valid spec");
    while network.cycle() < fault_at {
        network.step();
    }
    let before = LIVE.load(Relaxed);
    network.step();
    let kept = LIVE.load(Relaxed) - before;
    assert_eq!(network.mesh_link_failures(), 1);
    let bound = 6 * routers * routers + 64 * routers;
    assert!(
        kept <= bound,
        "one link failure on a 32x32 shortest-path mesh keeps {kept} B ({:.2} B a router \
         pair), more than {bound}",
        kept as f64 / (routers * routers) as f64
    );
}
