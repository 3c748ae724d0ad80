//! Golden-bit anchors for the objectives that have no array-of-structs
//! oracle.
//!
//! `kernel_equivalence` proves the slab kernel bit-identical to the
//! reference kernel on max-slack solves, but the cost, polarity,
//! bounded-skew and yield paths have no second implementation to compare
//! against. This file pins their results as `f64::to_bits` values
//! (placements as an FNV-1a digest of their `(node, buffer)` pairs), so a
//! kernel change that alters a single bit of any of them fails here. The
//! anchors cover:
//!
//! * a 64-sink `build_topology` clock tree with `paper_synthetic_mixed(8)`:
//!   the slack-vs-cost frontier at `max_cost` 0 to 3 under every
//!   algorithm (`LiShiPermanent` pins its convex prune at cost levels
//!   whose betas cannot fit the budget), the polarity solve with every
//!   other sink inverted, the skew solve bounded at half the unbounded
//!   skew, and 8-sample Monte-Carlo yield requests;
//! * three yield families on that tree (wire-only, whose cache footprint
//!   starts at the perturbed wires' parents; sink-only; every knob), each
//!   at 1 and 2 workers: per-sample slack bits, the summary, and how many
//!   nodes each sample recomputed and reused. At 2 workers the
//!   sample-to-worker assignment is scheduling-dependent, so only the
//!   smallest and largest per-sample counts are pinned there;
//! * max-slack slack bits for the first 32 nets of a `SuiteSpec` fleet
//!   with `paper_synthetic(8)`.
//!
//! On a mismatch the assertion prints the whole observed table in the
//! same literal form as [`GOLDEN`], so an intended change of numbers can
//! be reviewed line by line.

use fastbuf::api::{Dist, Objective, Session, VariationSpec};
use fastbuf::netgen::{build_topology, CtsPlacementSpec, CtsTopologySpec, SuiteSpec};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;
use fastbuf::Placement;

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn placements_digest(placements: &[Placement]) -> u64 {
    digest(
        placements
            .iter()
            .flat_map(|p| [p.node.index() as u64, p.buffer.index() as u64]),
    )
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

/// Every anchored value, labelled, in a fixed order.
fn observed() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let mut put = |label: String, value: u64| out.push((label, value));

    let tree = clock_tree();
    let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();

    for (prefix, algorithm) in [
        ("", Algorithm::LiShi),
        ("lillis.", Algorithm::Lillis),
        ("permanent.", Algorithm::LiShiPermanent),
    ] {
        for max_cost in 0..=3u32 {
            let frontier = CostSolver::new(&tree, &lib)
                .algorithm(algorithm)
                .max_cost(max_cost)
                .solve()
                .unwrap();
            let key = format!("{prefix}cost{max_cost}");
            put(format!("{key}.points"), frontier.points.len() as u64);
            for (i, p) in frontier.points.iter().enumerate() {
                put(format!("{key}.p{i}.cost"), u64::from(p.cost));
                put(format!("{key}.p{i}.slack"), p.slack.value().to_bits());
                put(
                    format!("{key}.p{i}.placements"),
                    placements_digest(&p.placements),
                );
            }
        }
    }

    let sinks: Vec<NodeId> = tree
        .postorder()
        .iter()
        .copied()
        .filter(|&n| matches!(tree.kind(n), NodeKind::Sink { .. }))
        .collect();
    let mut polarity = PolaritySolver::new(&tree, &lib);
    for &sink in sinks.iter().skip(1).step_by(2) {
        polarity.require(sink, Polarity::Negative).unwrap();
    }
    let polarity = polarity.solve().unwrap();
    put("polarity.slack".into(), polarity.slack.value().to_bits());
    put("polarity.inverters".into(), polarity.inverter_count as u64);
    put(
        "polarity.placements".into(),
        placements_digest(&polarity.placements),
    );

    let free = SkewSolver::new(&tree, &lib).solve();
    put("skew.free.skew".into(), free.skew.value().to_bits());
    let bound = Seconds::new(free.skew.value() * 0.5);
    let skew = SkewSolver::new(&tree, &lib).max_skew(Some(bound)).solve();
    put("skew.slack".into(), skew.slack.value().to_bits());
    put("skew.skew".into(), skew.skew.value().to_bits());
    put(
        "skew.latency_max".into(),
        skew.latency_max.value().to_bits(),
    );
    put(
        "skew.latency_min".into(),
        skew.latency_min.value().to_bits(),
    );
    put("skew.ok".into(), u64::from(skew.skew_ok));
    put(
        "skew.placements".into(),
        placements_digest(&skew.placements),
    );

    let outcome = Session::new(lib.clone())
        .request(&tree)
        .objective(Objective::YieldTarget {
            samples: 8,
            quantile: 0.1,
        })
        .variation(VariationSpec::gaussian(0.05, 0.1, 7))
        .workers(1)
        .solve()
        .unwrap();
    let yielded = outcome.scenarios[0].variation().unwrap();
    for s in &yielded.samples {
        put(
            format!("yield.s{}.slack", s.index),
            s.slack.value().to_bits(),
        );
    }
    let summary = &yielded.summary;
    put("yield.min".into(), summary.min_slack.value().to_bits());
    put("yield.max".into(), summary.max_slack.value().to_bits());
    put("yield.mean".into(), summary.mean_slack.value().to_bits());
    put(
        "yield.quantile".into(),
        summary.quantile_slack.value().to_bits(),
    );

    let normal = Dist::Normal {
        mean: 1.0,
        sigma: 0.05,
    };
    let families = [
        (
            "wire",
            VariationSpec {
                wire_r: normal,
                wire_c: normal,
                locality: 0.1,
                seed: 7,
                ..VariationSpec::default()
            },
        ),
        (
            "sink",
            VariationSpec {
                sink_cap: normal,
                rat_derate: normal,
                locality: 0.1,
                seed: 7,
                ..VariationSpec::default()
            },
        ),
        ("all", VariationSpec::gaussian(0.05, 0.1, 7)),
    ];
    let nodes = tree.node_count() as u64;
    for (name, spec) in families {
        for workers in [1usize, 2] {
            let outcome = Session::new(lib.clone())
                .request(&tree)
                .objective(Objective::YieldTarget {
                    samples: 8,
                    quantile: 0.1,
                })
                .variation(spec.clone())
                .workers(workers)
                .solve()
                .unwrap();
            let yielded = outcome.scenarios[0].variation().unwrap();
            let key = format!("family.{name}.w{workers}");
            for s in &yielded.samples {
                assert_eq!(s.nodes_recomputed + s.nodes_reused, nodes, "{key}");
                put(
                    format!("{key}.s{}.slack", s.index),
                    s.slack.value().to_bits(),
                );
                if workers == 1 {
                    put(format!("{key}.s{}.recomputed", s.index), s.nodes_recomputed);
                    put(format!("{key}.s{}.reused", s.index), s.nodes_reused);
                }
            }
            if workers > 1 {
                let counts = yielded.samples.iter().map(|s| s.nodes_recomputed);
                put(
                    format!("{key}.recomputed.min"),
                    counts.clone().min().unwrap(),
                );
                put(format!("{key}.recomputed.max"), counts.max().unwrap());
            }
            let summary = &yielded.summary;
            put(format!("{key}.mean"), summary.mean_slack.value().to_bits());
            put(
                format!("{key}.quantile"),
                summary.quantile_slack.value().to_bits(),
            );
            put(format!("{key}.yield"), summary.yield_fraction.to_bits());
        }
    }

    let suite = SuiteSpec {
        nets: 32,
        max_sinks: 64,
        seed: 11,
        ..SuiteSpec::default()
    };
    let lib8 = BufferLibrary::paper_synthetic(8).unwrap();
    for (i, net) in suite.build().iter().enumerate() {
        let solution = Solver::new(net, &lib8).solve();
        put(
            format!("suite.n{i}.slack"),
            solution.slack.value().to_bits(),
        );
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("cost0.points", 0x0000000000000001),
    ("cost0.p0.cost", 0x0000000000000000),
    ("cost0.p0.slack", 0xbdc592d3c5724ac0),
    ("cost0.p0.placements", 0xcbf29ce484222325),
    ("cost1.points", 0x0000000000000002),
    ("cost1.p0.cost", 0x0000000000000000),
    ("cost1.p0.slack", 0xbdc592d3c5724ac0),
    ("cost1.p0.placements", 0xcbf29ce484222325),
    ("cost1.p1.cost", 0x0000000000000001),
    ("cost1.p1.slack", 0xbdc4ca19d6bc9c00),
    ("cost1.p1.placements", 0xb545d2d1e0643157),
    ("cost2.points", 0x0000000000000003),
    ("cost2.p0.cost", 0x0000000000000000),
    ("cost2.p0.slack", 0xbdc592d3c5724ac0),
    ("cost2.p0.placements", 0xcbf29ce484222325),
    ("cost2.p1.cost", 0x0000000000000001),
    ("cost2.p1.slack", 0xbdc4ca19d6bc9c00),
    ("cost2.p1.placements", 0xb545d2d1e0643157),
    ("cost2.p2.cost", 0x0000000000000002),
    ("cost2.p2.slack", 0xbdc41af2405a7dc0),
    ("cost2.p2.placements", 0x0c649cb3825883ba),
    ("cost3.points", 0x0000000000000004),
    ("cost3.p0.cost", 0x0000000000000000),
    ("cost3.p0.slack", 0xbdc592d3c5724ac0),
    ("cost3.p0.placements", 0xcbf29ce484222325),
    ("cost3.p1.cost", 0x0000000000000001),
    ("cost3.p1.slack", 0xbdc4ca19d6bc9c00),
    ("cost3.p1.placements", 0xb545d2d1e0643157),
    ("cost3.p2.cost", 0x0000000000000002),
    ("cost3.p2.slack", 0xbdc41af2405a7dc0),
    ("cost3.p2.placements", 0x0c649cb3825883ba),
    ("cost3.p3.cost", 0x0000000000000003),
    ("cost3.p3.slack", 0xbdc3576aca30bda0),
    ("cost3.p3.placements", 0xff5f967f31dcdb0d),
    ("lillis.cost0.points", 0x0000000000000001),
    ("lillis.cost0.p0.cost", 0x0000000000000000),
    ("lillis.cost0.p0.slack", 0xbdc592d3c5724ac0),
    ("lillis.cost0.p0.placements", 0xcbf29ce484222325),
    ("lillis.cost1.points", 0x0000000000000002),
    ("lillis.cost1.p0.cost", 0x0000000000000000),
    ("lillis.cost1.p0.slack", 0xbdc592d3c5724ac0),
    ("lillis.cost1.p0.placements", 0xcbf29ce484222325),
    ("lillis.cost1.p1.cost", 0x0000000000000001),
    ("lillis.cost1.p1.slack", 0xbdc4ca19d6bc9c00),
    ("lillis.cost1.p1.placements", 0xb545d2d1e0643157),
    ("lillis.cost2.points", 0x0000000000000003),
    ("lillis.cost2.p0.cost", 0x0000000000000000),
    ("lillis.cost2.p0.slack", 0xbdc592d3c5724ac0),
    ("lillis.cost2.p0.placements", 0xcbf29ce484222325),
    ("lillis.cost2.p1.cost", 0x0000000000000001),
    ("lillis.cost2.p1.slack", 0xbdc4ca19d6bc9c00),
    ("lillis.cost2.p1.placements", 0xb545d2d1e0643157),
    ("lillis.cost2.p2.cost", 0x0000000000000002),
    ("lillis.cost2.p2.slack", 0xbdc41af2405a7dc0),
    ("lillis.cost2.p2.placements", 0x0c649cb3825883ba),
    ("lillis.cost3.points", 0x0000000000000004),
    ("lillis.cost3.p0.cost", 0x0000000000000000),
    ("lillis.cost3.p0.slack", 0xbdc592d3c5724ac0),
    ("lillis.cost3.p0.placements", 0xcbf29ce484222325),
    ("lillis.cost3.p1.cost", 0x0000000000000001),
    ("lillis.cost3.p1.slack", 0xbdc4ca19d6bc9c00),
    ("lillis.cost3.p1.placements", 0xb545d2d1e0643157),
    ("lillis.cost3.p2.cost", 0x0000000000000002),
    ("lillis.cost3.p2.slack", 0xbdc41af2405a7dc0),
    ("lillis.cost3.p2.placements", 0x0c649cb3825883ba),
    ("lillis.cost3.p3.cost", 0x0000000000000003),
    ("lillis.cost3.p3.slack", 0xbdc3576aca30bda0),
    ("lillis.cost3.p3.placements", 0xff5f967f31dcdb0d),
    ("permanent.cost0.points", 0x0000000000000001),
    ("permanent.cost0.p0.cost", 0x0000000000000000),
    ("permanent.cost0.p0.slack", 0xbdc592d3c5724ac0),
    ("permanent.cost0.p0.placements", 0xcbf29ce484222325),
    ("permanent.cost1.points", 0x0000000000000002),
    ("permanent.cost1.p0.cost", 0x0000000000000000),
    ("permanent.cost1.p0.slack", 0xbdc592d3c5724ac0),
    ("permanent.cost1.p0.placements", 0xcbf29ce484222325),
    ("permanent.cost1.p1.cost", 0x0000000000000001),
    ("permanent.cost1.p1.slack", 0xbdc4e3ac2f102c60),
    ("permanent.cost1.p1.placements", 0x14628c18c227c588),
    ("permanent.cost2.points", 0x0000000000000002),
    ("permanent.cost2.p0.cost", 0x0000000000000000),
    ("permanent.cost2.p0.slack", 0xbdc592d3c5724ac0),
    ("permanent.cost2.p0.placements", 0xcbf29ce484222325),
    ("permanent.cost2.p1.cost", 0x0000000000000001),
    ("permanent.cost2.p1.slack", 0xbdc4e3ac2f102c60),
    ("permanent.cost2.p1.placements", 0x14628c18c227c588),
    ("permanent.cost3.points", 0x0000000000000003),
    ("permanent.cost3.p0.cost", 0x0000000000000000),
    ("permanent.cost3.p0.slack", 0xbdc592d3c5724ac0),
    ("permanent.cost3.p0.placements", 0xcbf29ce484222325),
    ("permanent.cost3.p1.cost", 0x0000000000000001),
    ("permanent.cost3.p1.slack", 0xbdc4e3ac2f102c60),
    ("permanent.cost3.p1.placements", 0x14628c18c227c588),
    ("permanent.cost3.p2.cost", 0x0000000000000003),
    ("permanent.cost3.p2.slack", 0xbdc3576aca30bda0),
    ("permanent.cost3.p2.placements", 0xff5f967f31dcdb0d),
    ("polarity.slack", 0x3e1b42e526cafd0e),
    ("polarity.inverters", 0x000000000000004b),
    ("polarity.placements", 0x525b300fee1db6dd),
    ("skew.free.skew", 0x3dc3208ea2f11d80),
    ("skew.slack", 0x3e1ba956286bcfbf),
    ("skew.skew", 0x3db0fb4736e932a0),
    ("skew.latency_max", 0x3dfacb069f8775b1),
    ("skew.latency_min", 0x3df9bb522c18e287),
    ("skew.ok", 0x0000000000000001),
    ("skew.placements", 0xb711a9dacde375cf),
    ("yield.s0.slack", 0x3e1b4b4203db19e3),
    ("yield.s1.slack", 0x3e1b57d6c5928e74),
    ("yield.s2.slack", 0x3e1b8077d271af3a),
    ("yield.s3.slack", 0x3e19f596594ee8b7),
    ("yield.s4.slack", 0x3e1b675b535c82f4),
    ("yield.s5.slack", 0x3e1bbfff65bb1637),
    ("yield.s6.slack", 0x3e1ae22737c46c95),
    ("yield.s7.slack", 0x3e1b7c587550da5f),
    ("yield.min", 0x3e19f596594ee8b7),
    ("yield.max", 0x3e1bbfff65bb1637),
    ("yield.mean", 0x3e1b33e02b6b640e),
    ("yield.quantile", 0x3e19f596594ee8b7),
    ("family.wire.w1.s0.slack", 0x3e1bb8dfada0af3b),
    ("family.wire.w1.s0.recomputed", 0x0000000000000139),
    ("family.wire.w1.s0.reused", 0x0000000000000000),
    ("family.wire.w1.s1.slack", 0x3e1bba5acd72b31e),
    ("family.wire.w1.s1.recomputed", 0x000000000000007a),
    ("family.wire.w1.s1.reused", 0x00000000000000bf),
    ("family.wire.w1.s2.slack", 0x3e1bbdfb607e6a6c),
    ("family.wire.w1.s2.recomputed", 0x000000000000007a),
    ("family.wire.w1.s2.reused", 0x00000000000000bf),
    ("family.wire.w1.s3.slack", 0x3e1bc12b0cdf104f),
    ("family.wire.w1.s3.recomputed", 0x000000000000007a),
    ("family.wire.w1.s3.reused", 0x00000000000000bf),
    ("family.wire.w1.s4.slack", 0x3e1bb741834b20d0),
    ("family.wire.w1.s4.recomputed", 0x000000000000007a),
    ("family.wire.w1.s4.reused", 0x00000000000000bf),
    ("family.wire.w1.s5.slack", 0x3e1bbb7cbac0c1ca),
    ("family.wire.w1.s5.recomputed", 0x000000000000007a),
    ("family.wire.w1.s5.reused", 0x00000000000000bf),
    ("family.wire.w1.s6.slack", 0x3e1bb830b6757736),
    ("family.wire.w1.s6.recomputed", 0x000000000000007a),
    ("family.wire.w1.s6.reused", 0x00000000000000bf),
    ("family.wire.w1.s7.slack", 0x3e1bbeb9216eaaa4),
    ("family.wire.w1.s7.recomputed", 0x000000000000007a),
    ("family.wire.w1.s7.reused", 0x00000000000000bf),
    ("family.wire.w1.mean", 0x3e1bbb811fcc1c30),
    ("family.wire.w1.quantile", 0x3e1bb741834b20d0),
    ("family.wire.w1.yield", 0x3ff0000000000000),
    ("family.wire.w2.s0.slack", 0x3e1bb8dfada0af3b),
    ("family.wire.w2.s1.slack", 0x3e1bba5acd72b31e),
    ("family.wire.w2.s2.slack", 0x3e1bbdfb607e6a6c),
    ("family.wire.w2.s3.slack", 0x3e1bc12b0cdf104f),
    ("family.wire.w2.s4.slack", 0x3e1bb741834b20d0),
    ("family.wire.w2.s5.slack", 0x3e1bbb7cbac0c1ca),
    ("family.wire.w2.s6.slack", 0x3e1bb830b6757736),
    ("family.wire.w2.s7.slack", 0x3e1bbeb9216eaaa4),
    ("family.wire.w2.recomputed.min", 0x000000000000007a),
    ("family.wire.w2.recomputed.max", 0x0000000000000139),
    ("family.wire.w2.mean", 0x3e1bbb811fcc1c30),
    ("family.wire.w2.quantile", 0x3e1bb741834b20d0),
    ("family.wire.w2.yield", 0x3ff0000000000000),
    ("family.sink.w1.s0.slack", 0x3e1b4c7a634b8bcf),
    ("family.sink.w1.s0.recomputed", 0x0000000000000139),
    ("family.sink.w1.s0.reused", 0x0000000000000000),
    ("family.sink.w1.s1.slack", 0x3e1a7fd8fcbc8648),
    ("family.sink.w1.s1.recomputed", 0x0000000000000044),
    ("family.sink.w1.s1.reused", 0x00000000000000f5),
    ("family.sink.w1.s2.slack", 0x3e1b629dac33e480),
    ("family.sink.w1.s2.recomputed", 0x0000000000000044),
    ("family.sink.w1.s2.reused", 0x00000000000000f5),
    ("family.sink.w1.s3.slack", 0x3e1b1b85d8169d3a),
    ("family.sink.w1.s3.recomputed", 0x0000000000000044),
    ("family.sink.w1.s3.reused", 0x00000000000000f5),
    ("family.sink.w1.s4.slack", 0x3e1ae56b25f11e30),
    ("family.sink.w1.s4.recomputed", 0x0000000000000044),
    ("family.sink.w1.s4.reused", 0x00000000000000f5),
    ("family.sink.w1.s5.slack", 0x3e1b67e5589ceb37),
    ("family.sink.w1.s5.recomputed", 0x0000000000000044),
    ("family.sink.w1.s5.reused", 0x00000000000000f5),
    ("family.sink.w1.s6.slack", 0x3e1b823a7d057910),
    ("family.sink.w1.s6.recomputed", 0x0000000000000044),
    ("family.sink.w1.s6.reused", 0x00000000000000f5),
    ("family.sink.w1.s7.slack", 0x3e18d9c3356d4b43),
    ("family.sink.w1.s7.recomputed", 0x0000000000000044),
    ("family.sink.w1.s7.reused", 0x00000000000000f5),
    ("family.sink.w1.mean", 0x3e1ade78a2aa6c31),
    ("family.sink.w1.quantile", 0x3e18d9c3356d4b43),
    ("family.sink.w1.yield", 0x3ff0000000000000),
    ("family.sink.w2.s0.slack", 0x3e1b4c7a634b8bcf),
    ("family.sink.w2.s1.slack", 0x3e1a7fd8fcbc8648),
    ("family.sink.w2.s2.slack", 0x3e1b629dac33e480),
    ("family.sink.w2.s3.slack", 0x3e1b1b85d8169d3a),
    ("family.sink.w2.s4.slack", 0x3e1ae56b25f11e30),
    ("family.sink.w2.s5.slack", 0x3e1b67e5589ceb37),
    ("family.sink.w2.s6.slack", 0x3e1b823a7d057910),
    ("family.sink.w2.s7.slack", 0x3e18d9c3356d4b43),
    ("family.sink.w2.recomputed.min", 0x0000000000000044),
    ("family.sink.w2.recomputed.max", 0x0000000000000139),
    ("family.sink.w2.mean", 0x3e1ade78a2aa6c31),
    ("family.sink.w2.quantile", 0x3e18d9c3356d4b43),
    ("family.sink.w2.yield", 0x3ff0000000000000),
    ("family.all.w1.s0.slack", 0x3e1b4b4203db19e3),
    ("family.all.w1.s0.recomputed", 0x0000000000000139),
    ("family.all.w1.s0.reused", 0x0000000000000000),
    ("family.all.w1.s1.slack", 0x3e1b57d6c5928e74),
    ("family.all.w1.s1.recomputed", 0x0000000000000091),
    ("family.all.w1.s1.reused", 0x00000000000000a8),
    ("family.all.w1.s2.slack", 0x3e1b8077d271af3a),
    ("family.all.w1.s2.recomputed", 0x0000000000000091),
    ("family.all.w1.s2.reused", 0x00000000000000a8),
    ("family.all.w1.s3.slack", 0x3e19f596594ee8b7),
    ("family.all.w1.s3.recomputed", 0x0000000000000091),
    ("family.all.w1.s3.reused", 0x00000000000000a8),
    ("family.all.w1.s4.slack", 0x3e1b675b535c82f4),
    ("family.all.w1.s4.recomputed", 0x0000000000000091),
    ("family.all.w1.s4.reused", 0x00000000000000a8),
    ("family.all.w1.s5.slack", 0x3e1bbfff65bb1637),
    ("family.all.w1.s5.recomputed", 0x0000000000000091),
    ("family.all.w1.s5.reused", 0x00000000000000a8),
    ("family.all.w1.s6.slack", 0x3e1ae22737c46c95),
    ("family.all.w1.s6.recomputed", 0x0000000000000091),
    ("family.all.w1.s6.reused", 0x00000000000000a8),
    ("family.all.w1.s7.slack", 0x3e1b7c587550da5f),
    ("family.all.w1.s7.recomputed", 0x0000000000000091),
    ("family.all.w1.s7.reused", 0x00000000000000a8),
    ("family.all.w1.mean", 0x3e1b33e02b6b640e),
    ("family.all.w1.quantile", 0x3e19f596594ee8b7),
    ("family.all.w1.yield", 0x3ff0000000000000),
    ("family.all.w2.s0.slack", 0x3e1b4b4203db19e3),
    ("family.all.w2.s1.slack", 0x3e1b57d6c5928e74),
    ("family.all.w2.s2.slack", 0x3e1b8077d271af3a),
    ("family.all.w2.s3.slack", 0x3e19f596594ee8b7),
    ("family.all.w2.s4.slack", 0x3e1b675b535c82f4),
    ("family.all.w2.s5.slack", 0x3e1bbfff65bb1637),
    ("family.all.w2.s6.slack", 0x3e1ae22737c46c95),
    ("family.all.w2.s7.slack", 0x3e1b7c587550da5f),
    ("family.all.w2.recomputed.min", 0x0000000000000091),
    ("family.all.w2.recomputed.max", 0x0000000000000139),
    ("family.all.w2.mean", 0x3e1b33e02b6b640e),
    ("family.all.w2.quantile", 0x3e19f596594ee8b7),
    ("family.all.w2.yield", 0x3ff0000000000000),
    ("suite.n0.slack", 0x3e0bf2429bd47a89),
    ("suite.n1.slack", 0x3e0d76cad921a15c),
    ("suite.n2.slack", 0x3e0c4ded20393b9f),
    ("suite.n3.slack", 0x3e09baafea37d731),
    ("suite.n4.slack", 0x3e11c72c191a0ea7),
    ("suite.n5.slack", 0x3e15fcd50f3de298),
    ("suite.n6.slack", 0x3e11a00dd9f49e5e),
    ("suite.n7.slack", 0x3e10b2c579ae0bfc),
    ("suite.n8.slack", 0x3e09978c17f9db05),
    ("suite.n9.slack", 0x3e1343eb955849af),
    ("suite.n10.slack", 0x3e19978f4537a320),
    ("suite.n11.slack", 0x3e0767161a8df96c),
    ("suite.n12.slack", 0x3e05f1f64116a3db),
    ("suite.n13.slack", 0x3e108ed649d3766c),
    ("suite.n14.slack", 0x3e0a9a0673ad9502),
    ("suite.n15.slack", 0x3e0805c40b6fc326),
    ("suite.n16.slack", 0x3e1005b964c5d5ea),
    ("suite.n17.slack", 0x3e191a3c70c09b79),
    ("suite.n18.slack", 0x3e0800141fbad303),
    ("suite.n19.slack", 0x3e0898b33fe6ca3c),
    ("suite.n20.slack", 0x3e087453a8c8f3a5),
    ("suite.n21.slack", 0x3e0638555a5eeea2),
    ("suite.n22.slack", 0x3e13c64a4db8c055),
    ("suite.n23.slack", 0x3e0c879e6c679bec),
    ("suite.n24.slack", 0x3e0ba306b3750bef),
    ("suite.n25.slack", 0x3e05466ab6759b16),
    ("suite.n26.slack", 0x3e07de01885746df),
    ("suite.n27.slack", 0x3e08bc413e8aea5a),
    ("suite.n28.slack", 0x3e0aa525529cbf8a),
    ("suite.n29.slack", 0x3e0f7ad25a4d1cf2),
    ("suite.n30.slack", 0x3e134fc92fc934d6),
    ("suite.n31.slack", 0x3e0ba7d71c243434),
];

#[test]
fn objectives_match_golden_bits() {
    let got = observed();
    let table: String = got
        .iter()
        .map(|(label, value)| format!("    (\"{label}\", {value:#018x}),\n"))
        .collect();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((label, value), &(want_label, want))| label == want_label && *value == want);
    assert!(same, "golden bits changed; observed table:\n{table}");
}
