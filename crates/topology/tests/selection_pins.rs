//! The literal shortcut sets `select_max_cost` picks under uniform weights
//! (budget 16, corners excluded — what `build_system` asks for) on the
//! fabrics whose routing tables `rfnoc-sim` pins by hash, and FNV-1a hashes
//! of the distance matrices the selection starts from and ends with.
//!
//! Every distance is hashed as a little-endian `u32`, whatever width the
//! matrix stores, so a change of storage keeps the same hash.
//!
//! The pins are in `tests/pins/selection_pins.txt`, and those of the two
//! 64×64 designs, which only a release run with `--ignored` reads, in
//! `selection_pins_64.txt`. Re-bless only for an intended selection change:
//! `PIN_BLESS=1 cargo test -p rfnoc-topology --test selection_pins`, in
//! release with `-- --include-ignored` for both files.

use rfnoc_pins::{hex, Pins};
use rfnoc_topology::select::{max_cost_selection, select_max_cost, SelectionConstraints};
use rfnoc_topology::{DistanceMatrix, FabricSpec, Fnv, GridDims, GridGraph, PairWeights, Shortcut};

fn mesh(side: usize) -> FabricSpec {
    FabricSpec::mesh(GridDims::new(side, side))
}

fn ring(side: usize) -> FabricSpec {
    FabricSpec::ring_mesh(GridDims::new(side, side), 4)
}

/// The fabrics of the tier-1 pins.
fn fabrics() -> [FabricSpec; 4] {
    [mesh(16), ring(16), mesh(32), ring(32)]
}

fn constraints(graph: &GridGraph) -> SelectionConstraints {
    SelectionConstraints::allowing_all(graph.node_count(), 16).excluding_corners(graph)
}

/// `shortcuts.<fabric>`: the selected `(src, dst)` list.
fn selected(fabric: FabricSpec) -> (String, String) {
    let graph = GridGraph::from_fabric(&fabric, &[]);
    let n = graph.node_count();
    let set: Vec<(usize, usize)> =
        select_max_cost(&graph, &PairWeights::uniform(n), &constraints(&graph))
            .into_iter()
            .map(|Shortcut { src, dst }| (src, dst))
            .collect();
    (format!("shortcuts.{fabric}"), format!("{set:?}"))
}

fn fnv1a(dist: &DistanceMatrix) -> String {
    let mut h = Fnv::new();
    h.bytes(dist.as_slice().iter().flat_map(|&d| u32::from(d).to_le_bytes()));
    hex(h.finish())
}

/// `distances.<fabric>`: the hash of `graph.distances()` over the bare
/// fabric, then of the matrix `max_cost_selection` ends with.
fn distance_hashes(fabric: FabricSpec) -> (String, String) {
    let graph = GridGraph::from_fabric(&fabric, &[]);
    let n = graph.node_count();
    let selection = max_cost_selection(&graph, &PairWeights::uniform(n), &constraints(&graph));
    let hashes = format!("{} {}", fnv1a(&graph.distances()), fnv1a(&selection.distances));
    (format!("distances.{fabric}"), hashes)
}

fn check(got: &[(String, String)]) {
    let sections = ["shortcuts", "distances"];
    Pins::load(env!("CARGO_MANIFEST_DIR"), "selection_pins", &sections).check(got);
}

#[test]
fn uniform_max_cost_sets_match_their_pins() {
    check(&fabrics().map(selected));
}

#[test]
fn distances_hash_to_their_pins() {
    check(&fabrics().map(distance_hashes));
}

/// The two `rf64_build` designs. Too slow for the debug tier-1 run:
/// `cargo test --release -p rfnoc-topology -- --ignored`.
#[test]
#[ignore = "64x64 selection; run in release with --ignored"]
fn rf64_designs_match_their_pins() {
    let got = [mesh(64), ring(64)].map(|f| [selected(f), distance_hashes(f)]).concat();
    rfnoc_pins::check_file(env!("CARGO_MANIFEST_DIR"), "selection_pins_64", &got);
}
