//! What a network keeps for its routes. A shortest-path network routes
//! from a distance oracle whose tables grow with the router count, not
//! with its square, and every network takes its base (escape) route from a
//! closed form over one array of its routers' places. So a 64×64 mesh or
//! ring-mesh with the paper's 16 shortcuts holds about as much per router
//! as the mesh XY-routed without shortcuts.
//!
//! The binary counts every allocation through its own global allocator,
//! so it holds this one test only.

use rfnoc_sim::{Network, NetworkSpec, SimConfig};
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

#[test]
fn shortest_path_routes_cost_no_table_of_router_pairs() {
    let dims = GridDims::new(64, 64);
    // 16 long shortcuts, one out of and one into each router they touch.
    let at = |x: usize, y: usize| y * dims.width() + x;
    let shortcuts: Vec<Shortcut> =
        (0..16).map(|i| Shortcut::new(at(4 * i + 1, 2), at(62 - 4 * i, 61))).collect();
    let config = SimConfig::paper_baseline();
    let xy = bytes_per_router(NetworkSpec::mesh_baseline(dims, config.clone()));
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
}
