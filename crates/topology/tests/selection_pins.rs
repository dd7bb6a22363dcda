//! The literal shortcut sets `select_max_cost` picks under uniform weights
//! (budget 16, corners excluded — what `build_system` asks for) on the
//! fabrics whose routing tables `rfnoc-sim` pins by hash, and FNV-1a hashes
//! of the distance matrices the selection starts from and ends with.
//!
//! Every distance is hashed as a little-endian `u32`, whatever width the
//! matrix stores, so a change of storage keeps the same hash.

use rfnoc_topology::select::{max_cost_selection, select_max_cost, SelectionConstraints};
use rfnoc_topology::{DistanceMatrix, FabricSpec, GridDims, GridGraph, PairWeights, Shortcut};

fn mesh(side: usize) -> FabricSpec {
    FabricSpec::mesh(GridDims::new(side, side))
}

fn ring(side: usize) -> FabricSpec {
    FabricSpec::ring_mesh(GridDims::new(side, side), 4)
}

fn constraints(graph: &GridGraph) -> SelectionConstraints {
    SelectionConstraints::allowing_all(graph.node_count(), 16).excluding_corners(graph)
}

fn selected(fabric: FabricSpec) -> Vec<(usize, usize)> {
    let graph = GridGraph::from_fabric(&fabric, &[]);
    let n = graph.node_count();
    select_max_cost(&graph, &PairWeights::uniform(n), &constraints(&graph))
        .into_iter()
        .map(|Shortcut { src, dst }| (src, dst))
        .collect()
}

fn fnv1a(dist: &DistanceMatrix) -> u64 {
    dist.as_slice()
        .iter()
        .flat_map(|&d| u32::from(d).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `[base, selected]`: the hash of `graph.distances()` over the bare fabric
/// and of the matrix `max_cost_selection` ends with.
fn distance_hashes(fabric: FabricSpec) -> [u64; 2] {
    let graph = GridGraph::from_fabric(&fabric, &[]);
    let n = graph.node_count();
    let selection = max_cost_selection(&graph, &PairWeights::uniform(n), &constraints(&graph));
    [fnv1a(&graph.distances()), fnv1a(&selection.distances)]
}

#[test]
fn uniform_max_cost_sets_match_their_pins() {
    #[rustfmt::skip]
    let pins: [(FabricSpec, [(usize, usize); 16]); 4] = [
        (mesh(16), [
            (1, 239), (14, 224), (224, 14), (239, 1), (16, 242), (31, 252), (243, 32), (247, 111),
            (251, 144), (32, 137), (54, 249), (91, 16), (129, 127), (248, 7), (3, 77), (7, 180),
        ]),
        (ring(16), [
            (32, 236), (44, 224), (224, 44), (236, 32), (36, 172), (40, 160), (96, 232), (108, 228),
            (160, 40), (172, 36), (228, 108), (232, 96), (16, 168), (28, 164), (100, 220), (104, 208),
        ]),
        (mesh(32), [
            (1, 991), (30, 960), (960, 30), (991, 1), (32, 994), (63, 1020), (1003, 320), (1007, 479),
            (64, 529), (110, 1009), (287, 453), (435, 32), (513, 511), (1008, 15), (417, 51), (543, 908),
        ]),
        (ring(32), [
            (64, 988), (92, 960), (960, 92), (988, 64), (68, 860), (88, 832), (192, 984), (220, 964),
            (832, 88), (860, 68), (964, 220), (984, 192), (72, 732), (84, 704), (196, 856), (216, 836),
        ]),
    ];
    for (fabric, want) in pins {
        assert_eq!(selected(fabric), want, "{fabric}");
    }
}

#[test]
fn distances_hash_to_their_pins() {
    let pins = [
        (mesh(16), [0x8c52_b32c_735c_8725, 0xc73a_1732_130f_bee8]),
        (ring(16), [0x7208_8e2a_bebc_4725, 0xa31b_6c48_a653_1345]),
        (mesh(32), [0x0f8e_fc86_bbf5_d525, 0xa1da_a6e4_2a7c_0fc8]),
        (ring(32), [0x26a9_4f61_3e79_fd25, 0x24de_2b07_5c99_de05]),
    ];
    for (fabric, want) in pins {
        assert_eq!(distance_hashes(fabric), want, "{fabric}: [base, selected]");
    }
}

/// A fabric, the shortcuts selected on it, and `[base, selected]` hashes.
type DesignPin = (FabricSpec, [(usize, usize); 16], [u64; 2]);

/// The two `rf64_build` designs. Too slow for the debug tier-1 run:
/// `cargo test --release -p rfnoc-topology -- --ignored`.
#[test]
#[ignore = "64x64 selection; run in release with --ignored"]
fn rf64_designs_match_their_pins() {
    #[rustfmt::skip]
    let pins: [DesignPin; 2] = [
        (mesh(64), [
            (1, 4031), (62, 3968), (3968, 62), (4031, 1), (64, 4034), (127, 4092), (4059, 1664),
            (4063, 1983), (128, 2081), (222, 4065), (1599, 1925), (1891, 64), (2049, 2047),
            (4064, 31), (1857, 99), (2740, 788),
        ], [0xbd0c_076e_0db9_3525, 0x1f0e_2287_0584_76ca]),
        (ring(64), [
            (128, 4028), (188, 3968), (3968, 188), (4028, 128), (132, 2492), (136, 3252),
            (140, 4012), (148, 3516), (164, 3712), (172, 3980), (176, 2944), (184, 3212),
            (384, 3500), (440, 3988), (444, 2432), (640, 3000),
        ], [0x5a64_0eb3_8edd_19a5, 0xa874_851c_13dc_b3e3]),
    ];
    for (fabric, shortcuts, hashes) in pins {
        assert_eq!(selected(fabric), shortcuts, "{fabric}");
        assert_eq!(distance_hashes(fabric), hashes, "{fabric}: [base, selected]");
    }
}

