//! Work-counter anchors: the exact `SolveStats` counters of a fixed set of
//! solves.
//!
//! The counters are deterministic and machine-independent, so they are the
//! performance gate a noisy host cannot give: a change that makes the DP
//! do more (or different) work — a hull scan, a walk step, a prune, a list
//! compaction — moves at least one of them, even when it moves no result
//! bit. Every counter is pinned except `elapsed` (wall time) and
//! `parallel_subtrees` (always zero). The solves:
//!
//! * the three `table1` nets exactly as `paper --scale 0.25` builds them
//!   (84, 486 and 669 sinks, 17 buffer positions per sink) under `LiShi`
//!   and `LiShiPermanent` at b = 8 and b = 64, and under `Lillis` at b = 8;
//! * `slew_sweep --quick`'s slew-stressed suite (12 nets up to 24 sinks,
//!   seed 1, b = 16) at slew limits of 800 ps and 50 ps;
//! * the first 32 nets of `SuiteSpec::default()` at b = 8;
//! * on a 64-sink clock tree with `paper_synthetic_mixed(8)`: one
//!   bounded-skew solve, one polarity solve and two cost solves (`LiShi`,
//!   and `LiShiPermanent`, whose convex prune also runs at the cost levels
//!   no buffer fits).
//!
//! On a mismatch the assertion prints the whole observed table in the
//! same literal form as [`GOLDEN`]; a change that moves a value names it
//! with old → new.

use fastbuf::netgen::{
    build_topology, CtsPlacementSpec, CtsTopologySpec, RandomNetSpec, SuiteSpec,
};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;
use fastbuf::SolveStats;

/// The pinned counters, in row order.
const COUNTERS: [&str; 19] = [
    "wire_ops",
    "merge_ops",
    "addbuffer_ops",
    "addbuffer_candidates",
    "scan_candidate_visits",
    "hull_builds",
    "hull_input_candidates",
    "hull_walk_steps",
    "betas_generated",
    "convex_pruned",
    "slew_pruned",
    "nodes_recomputed",
    "nodes_reused",
    "slab_candidates_scanned",
    "slab_candidates_pruned",
    "slab_bytes_peak",
    "max_list_len",
    "root_list_len",
    "arena_entries",
];

fn counters(s: &SolveStats) -> [u64; 19] {
    [
        s.wire_ops,
        s.merge_ops,
        s.addbuffer_ops,
        s.addbuffer_candidates,
        s.scan_candidate_visits,
        s.hull_builds,
        s.hull_input_candidates,
        s.hull_walk_steps,
        s.betas_generated,
        s.convex_pruned,
        s.slew_pruned,
        s.nodes_recomputed,
        s.nodes_reused,
        s.slab_candidates_scanned,
        s.slab_candidates_pruned,
        s.slab_bytes_peak as u64,
        s.max_list_len as u64,
        s.root_list_len as u64,
        s.arena_entries as u64,
    ]
}

/// `paper`'s `table1` net of `paper_m` sinks at scale 0.25.
fn table1_net(paper_m: usize) -> RoutingTree {
    let m = ((paper_m as f64 * 0.25) as usize).max(8);
    RandomNetSpec::paper(m)
        .with_target_positions(m * 17)
        .build()
}

fn clock_tree() -> RoutingTree {
    let placements = CtsPlacementSpec {
        sinks: 64,
        seed: 7,
        ..CtsPlacementSpec::default()
    }
    .generate();
    build_topology(&placements, &CtsTopologySpec::default())
        .unwrap()
        .tree
}

/// Every pinned solve's counters, labelled, in a fixed order.
fn observed() -> Vec<(String, [u64; 19])> {
    let mut out = Vec::new();

    for paper_m in [337, 1944, 2676] {
        let tree = table1_net(paper_m);
        for b in [8, 64] {
            let lib = BufferLibrary::paper_synthetic(b).unwrap();
            for algorithm in Algorithm::ALL {
                if algorithm == Algorithm::Lillis && b != 8 {
                    continue;
                }
                let s = Solver::new(&tree, &lib).algorithm(algorithm).solve();
                out.push((
                    format!("table1.{paper_m}.b{b}.{algorithm}"),
                    counters(&s.stats),
                ));
            }
        }
    }

    let slew_suite = SuiteSpec {
        nets: 12,
        max_sinks: 24,
        seed: 1,
        slew_stress: true,
        ..SuiteSpec::default()
    };
    let lib = BufferLibrary::paper_synthetic(16).unwrap();
    for limit_ps in [800.0, 50.0] {
        for (i, tree) in slew_suite.build().iter().enumerate() {
            let s = Solver::new(tree, &lib)
                .slew_limit(Seconds::from_pico(limit_ps))
                .solve();
            out.push((format!("slew{limit_ps}.{i}"), counters(&s.stats)));
        }
    }

    let fleet = SuiteSpec::default();
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    for i in 0..32 {
        let s = Solver::new(&fleet.build_net(i), &lib).solve();
        out.push((format!("fleet.{i}"), counters(&s.stats)));
    }

    let tree = clock_tree();
    let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
    let free = SkewSolver::new(&tree, &lib).solve();
    let bound = Seconds::new(free.skew.value() * 0.5);
    let skew = SkewSolver::new(&tree, &lib).max_skew(Some(bound)).solve();
    out.push(("skew".into(), counters(&skew.stats)));

    let mut polarity = PolaritySolver::new(&tree, &lib);
    let sinks: Vec<NodeId> = (tree.postorder().iter().copied())
        .filter(|&n| tree.kind(n).is_sink())
        .collect();
    for &sink in sinks.iter().skip(1).step_by(2) {
        polarity.require(sink, Polarity::Negative).unwrap();
    }
    out.push((
        "polarity".into(),
        counters(&polarity.solve().unwrap().stats),
    ));

    for algorithm in [Algorithm::LiShi, Algorithm::LiShiPermanent] {
        let frontier = CostSolver::new(&tree, &lib)
            .algorithm(algorithm)
            .max_cost(3)
            .solve()
            .unwrap();
        out.push((format!("cost.{algorithm}"), counters(&frontier.stats)));
    }
    out
}

/// Row layout: `(solve, [COUNTERS...])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 19])] = &[
    ("table1.337.b8.lillis", [1464, 83, 1380, 75197, 601576, 0, 0, 0, 11035, 0, 0, 0, 0, 77555, 42, 17024, 309, 309, 15229]),
    ("table1.337.b8.lishi", [1464, 83, 1380, 75197, 0, 1380, 75197, 13770, 11035, 0, 0, 0, 0, 77555, 42, 17024, 309, 309, 15229]),
    ("table1.337.b8.lishi-permanent", [1464, 83, 1380, 21368, 0, 1380, 15150, 13770, 11035, 6218, 0, 0, 0, 22166, 0, 6132, 164, 164, 12332]),
    ("table1.337.b64.lishi", [1464, 83, 1380, 162721, 0, 1380, 162721, 54501, 88250, 0, 0, 0, 0, 168820, 151, 28196, 417, 417, 96729]),
    ("table1.337.b64.lishi-permanent", [1464, 83, 1380, 91568, 0, 1380, 55881, 54501, 88250, 35687, 0, 0, 0, 95107, 1, 15288, 272, 272, 93167]),
    ("table1.1944.b8.lillis", [8474, 485, 7988, 637705, 5101640, 0, 0, 0, 63771, 0, 0, 0, 0, 651096, 1527, 38780, 495, 339, 97789]),
    ("table1.1944.b8.lishi", [8474, 485, 7988, 637705, 0, 7988, 637705, 104881, 63771, 0, 0, 0, 0, 651096, 1527, 38780, 495, 339, 97789]),
    ("table1.1944.b8.lishi-permanent", [8474, 485, 7988, 157763, 0, 7988, 121441, 101215, 63771, 36322, 0, 0, 0, 161567, 38, 10304, 221, 220, 72949]),
    ("table1.1944.b64.lishi", [8474, 485, 7988, 1254471, 0, 7988, 1254471, 334139, 509863, 0, 0, 0, 0, 1288012, 2758, 66612, 699, 394, 579209]),
    ("table1.1944.b64.lishi-permanent", [8474, 485, 7988, 559492, 0, 7988, 351181, 333261, 509863, 208311, 0, 0, 0, 576964, 22, 27244, 273, 273, 543694]),
    ("table1.2676.b8.lillis", [11657, 668, 10988, 889953, 7119624, 0, 0, 0, 87636, 0, 0, 0, 0, 908466, 1959, 38556, 490, 490, 134070]),
    ("table1.2676.b8.lishi", [11657, 668, 10988, 889953, 0, 10988, 889953, 153325, 87636, 0, 0, 0, 0, 908466, 1959, 38556, 490, 490, 134070]),
    ("table1.2676.b8.lishi-permanent", [11657, 668, 10988, 217388, 0, 10988, 167456, 145999, 87636, 49932, 0, 0, 0, 222518, 27, 11760, 252, 252, 100009]),
    ("table1.2676.b64.lishi", [11657, 668, 10988, 1733932, 0, 10988, 1733932, 478167, 700617, 0, 0, 0, 0, 1781457, 3667, 57512, 592, 591, 796080]),
    ("table1.2676.b64.lishi-permanent", [11657, 668, 10988, 783465, 0, 10988, 498673, 474052, 700617, 284792, 0, 0, 0, 808306, 41, 25256, 354, 354, 749916]),
    ("slew800.0", [36, 6, 29, 519, 69, 29, 519, 285, 453, 0, 0, 0, 0, 669, 5, 2996, 32, 20, 600]),
    ("slew800.1", [32, 6, 25, 508, 72, 25, 508, 267, 397, 0, 0, 0, 0, 620, 5, 2072, 46, 46, 539]),
    ("slew800.2", [15, 2, 12, 248, 0, 12, 248, 133, 192, 0, 0, 0, 0, 302, 3, 1428, 31, 30, 242]),
    ("slew800.3", [30, 5, 24, 538, 50, 24, 538, 281, 380, 0, 0, 0, 0, 629, 13, 1680, 35, 35, 521]),
    ("slew800.4", [24, 4, 19, 322, 9, 19, 322, 200, 299, 0, 0, 0, 0, 419, 2, 1428, 27, 27, 333]),
    ("slew800.5", [81, 16, 64, 1409, 320, 64, 1409, 744, 1006, 0, 0, 0, 0, 1698, 23, 2352, 39, 37, 1433]),
    ("slew800.6", [27, 4, 22, 482, 28, 22, 482, 251, 350, 0, 0, 0, 0, 565, 9, 1568, 33, 31, 435]),
    ("slew800.7", [40, 7, 32, 629, 122, 32, 629, 363, 509, 0, 0, 0, 0, 768, 4, 2268, 32, 27, 681]),
    ("slew800.8", [44, 7, 36, 866, 170, 36, 866, 418, 569, 0, 0, 0, 0, 1002, 17, 2576, 39, 38, 789]),
    ("slew800.9", [13, 1, 11, 192, 0, 11, 192, 111, 173, 0, 0, 0, 0, 248, 3, 1512, 28, 28, 204]),
    ("slew800.10", [30, 4, 25, 513, 52, 25, 513, 269, 397, 0, 0, 0, 0, 624, 10, 2128, 32, 25, 476]),
    ("slew800.11", [39, 6, 32, 727, 174, 32, 727, 374, 502, 0, 0, 0, 0, 855, 13, 2184, 36, 33, 628]),
    ("slew50.0", [36, 6, 29, 332, 4844, 29, 332, 62, 205, 0, 0, 0, 0, 445, 9, 2324, 30, 11, 302]),
    ("slew50.1", [32, 6, 25, 343, 5171, 25, 343, 63, 164, 0, 8, 0, 0, 437, 12, 1484, 36, 36, 253]),
    ("slew50.2", [15, 2, 12, 168, 2527, 12, 168, 36, 84, 0, 0, 0, 0, 212, 6, 1120, 29, 26, 122]),
    ("slew50.3", [30, 5, 24, 380, 5855, 24, 380, 73, 153, 0, 12, 0, 0, 464, 15, 1372, 28, 23, 256]),
    ("slew50.4", [24, 4, 19, 177, 2565, 19, 177, 46, 128, 0, 0, 0, 0, 246, 3, 952, 21, 20, 148]),
    ("slew50.5", [81, 16, 64, 939, 14278, 64, 939, 168, 404, 0, 43, 0, 0, 1174, 24, 1596, 32, 23, 722]),
    ("slew50.6", [27, 4, 22, 337, 5137, 22, 337, 65, 148, 0, 10, 0, 0, 410, 11, 1232, 30, 24, 210]),
    ("slew50.7", [40, 7, 32, 376, 5701, 32, 376, 75, 197, 0, 0, 0, 0, 488, 10, 1680, 25, 19, 311]),
    ("slew50.8", [44, 7, 36, 579, 8773, 36, 579, 100, 231, 0, 21, 0, 0, 705, 22, 2044, 32, 23, 377]),
    ("slew50.9", [13, 1, 11, 114, 1622, 11, 114, 20, 73, 0, 0, 0, 0, 154, 4, 1064, 21, 20, 96]),
    ("slew50.10", [30, 4, 25, 342, 5091, 25, 342, 67, 159, 0, 9, 0, 0, 427, 12, 1344, 29, 14, 207]),
    ("slew50.11", [39, 6, 32, 509, 7807, 32, 509, 97, 207, 0, 22, 0, 0, 623, 11, 1652, 33, 23, 297]),
    ("fleet.0", [20, 6, 13, 69, 0, 13, 69, 36, 101, 0, 0, 0, 0, 132, 0, 1232, 14, 8, 162]),
    ("fleet.1", [19, 6, 12, 90, 0, 12, 90, 51, 96, 0, 0, 0, 0, 140, 0, 952, 16, 16, 156]),
    ("fleet.2", [9, 2, 6, 47, 0, 6, 47, 26, 48, 0, 0, 0, 0, 71, 0, 644, 14, 14, 71]),
    ("fleet.3", [18, 5, 12, 118, 0, 12, 118, 60, 94, 0, 0, 0, 0, 157, 0, 868, 21, 21, 167]),
    ("fleet.4", [14, 4, 9, 56, 0, 9, 56, 39, 71, 0, 0, 0, 0, 96, 0, 532, 13, 13, 87]),
    ("fleet.5", [48, 16, 31, 268, 0, 31, 268, 134, 243, 0, 0, 0, 0, 394, 2, 1120, 22, 22, 462]),
    ("fleet.6", [15, 4, 10, 85, 0, 10, 85, 48, 79, 0, 0, 0, 0, 120, 2, 728, 16, 15, 116]),
    ("fleet.7", [24, 7, 16, 119, 0, 16, 119, 71, 128, 0, 0, 0, 0, 183, 0, 1036, 16, 11, 206]),
    ("fleet.8", [24, 7, 16, 142, 0, 16, 142, 76, 126, 0, 0, 0, 0, 197, 1, 1092, 19, 19, 218]),
    ("fleet.9", [7, 1, 5, 28, 0, 5, 28, 15, 39, 0, 0, 0, 0, 50, 0, 616, 12, 12, 52]),
    ("fleet.10", [16, 4, 11, 81, 0, 11, 81, 45, 87, 0, 0, 0, 0, 128, 0, 1008, 16, 11, 122]),
    ("fleet.11", [22, 6, 15, 131, 0, 15, 131, 66, 118, 0, 0, 0, 0, 190, 1, 1008, 18, 18, 176]),
    ("fleet.12", [67, 23, 43, 414, 0, 43, 414, 208, 344, 0, 0, 0, 0, 577, 2, 2016, 22, 22, 635]),
    ("fleet.13", [20, 5, 14, 128, 0, 14, 128, 70, 112, 0, 0, 0, 0, 179, 0, 840, 18, 18, 167]),
    ("fleet.14", [20, 6, 13, 120, 0, 13, 120, 70, 104, 0, 0, 0, 0, 162, 0, 840, 16, 16, 163]),
    ("fleet.15", [17, 4, 12, 84, 0, 12, 84, 50, 96, 0, 0, 0, 0, 132, 1, 896, 14, 13, 142]),
    ("fleet.16", [24, 6, 17, 194, 0, 17, 194, 79, 133, 0, 0, 0, 0, 250, 1, 1036, 27, 27, 215]),
    ("fleet.17", [6, 1, 4, 21, 0, 4, 21, 13, 32, 0, 0, 0, 0, 41, 0, 308, 11, 11, 33]),
    ("fleet.18", [45, 15, 29, 194, 0, 29, 194, 99, 227, 0, 0, 0, 0, 320, 2, 1204, 17, 17, 381]),
    ("fleet.19", [11, 3, 7, 39, 0, 7, 39, 21, 54, 0, 0, 0, 0, 72, 1, 532, 13, 10, 77]),
    ("fleet.20", [6, 1, 4, 21, 0, 4, 21, 13, 32, 0, 0, 0, 0, 40, 0, 308, 11, 11, 33]),
    ("fleet.21", [66, 25, 40, 345, 0, 40, 345, 172, 316, 0, 0, 0, 0, 514, 1, 1904, 24, 23, 609]),
    ("fleet.22", [144, 54, 89, 889, 0, 89, 889, 382, 699, 0, 0, 0, 0, 1274, 22, 2352, 41, 33, 1413]),
    ("fleet.23", [23, 7, 15, 102, 0, 15, 102, 56, 120, 0, 0, 0, 0, 170, 1, 1176, 23, 23, 197]),
    ("fleet.24", [25, 7, 17, 143, 0, 17, 143, 81, 136, 0, 0, 0, 0, 209, 1, 1232, 17, 15, 229]),
    ("fleet.25", [64, 22, 41, 421, 0, 41, 421, 202, 322, 0, 0, 0, 0, 572, 4, 1848, 28, 28, 678]),
    ("fleet.26", [21, 6, 14, 90, 0, 14, 90, 54, 110, 0, 0, 0, 0, 146, 0, 1036, 15, 15, 148]),
    ("fleet.27", [20, 6, 13, 84, 0, 13, 84, 45, 103, 0, 0, 0, 0, 146, 1, 1288, 16, 14, 178]),
    ("fleet.28", [52, 15, 36, 352, 0, 36, 352, 192, 286, 0, 0, 0, 0, 477, 4, 1652, 29, 29, 468]),
    ("fleet.29", [25, 7, 17, 191, 0, 17, 191, 105, 136, 0, 0, 0, 0, 240, 2, 896, 20, 19, 225]),
    ("fleet.30", [108, 39, 68, 675, 0, 68, 675, 332, 538, 0, 0, 0, 0, 935, 6, 2212, 33, 33, 1030]),
    ("fleet.31", [151, 55, 95, 916, 0, 95, 916, 426, 752, 0, 0, 0, 0, 1308, 18, 2576, 43, 43, 1472]),
    ("skew", [312, 63, 248, 2345, 0, 248, 2345, 1059, 1849, 0, 0, 0, 0, 3108, 200, 2744, 27, 2, 3326]),
    ("polarity", [312, 63, 432, 6818, 0, 432, 6818, 2322, 3302, 0, 0, 0, 0, 7780, 768, 6552, 57, 32, 6455]),
    ("cost.lishi", [312, 63, 616, 7688, 0, 616, 7688, 1089, 1296, 0, 0, 0, 0, 33008, 376, 41104, 215, 215, 9707]),
    ("cost.lishi-permanent", [312, 63, 616, 2465, 0, 616, 1709, 1091, 1296, 1263, 0, 0, 0, 8958, 315, 5964, 40, 40, 4031]),
];

#[test]
fn work_counters_match_golden() {
    let got = observed();
    let table: String = got
        .iter()
        .map(|(label, values)| format!("    (\"{label}\", {values:?}),\n"))
        .collect();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((label, values), (want_label, want))| label == want_label && values == want);
    assert!(
        same,
        "work counters changed; columns {COUNTERS:?}; observed table:\n{table}"
    );
}
