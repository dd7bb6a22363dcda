//! The literal shortcut sets `select_max_cost` picks under uniform weights
//! (budget 16, corners excluded — what `build_system` asks for) on the
//! fabrics whose routing tables `rfnoc-sim` pins by hash.

use rfnoc_topology::select::{select_max_cost, SelectionConstraints};
use rfnoc_topology::{FabricSpec, GridDims, GridGraph, PairWeights, Shortcut};

fn selected(fabric: FabricSpec) -> Vec<(usize, usize)> {
    let graph = GridGraph::from_fabric(&fabric, &[]);
    let n = graph.node_count();
    let constraints = SelectionConstraints::allowing_all(n, 16).excluding_corners(&graph);
    select_max_cost(&graph, &PairWeights::uniform(n), &constraints)
        .into_iter()
        .map(|Shortcut { src, dst }| (src, dst))
        .collect()
}

#[test]
fn uniform_max_cost_sets_match_their_pins() {
    let mesh = |side| FabricSpec::mesh(GridDims::new(side, side));
    let ring = |side| FabricSpec::ring_mesh(GridDims::new(side, side), 4);
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
