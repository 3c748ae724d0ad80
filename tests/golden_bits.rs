//! Golden-bit anchors for the objectives that have no array-of-structs
//! oracle.
//!
//! `oracle_equivalence` proves the solver bit-identical to the
//! array-of-structs oracle on max-slack solves, but the cost, polarity,
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
//!   with `paper_synthetic(8)`, and for the same nets every root quantity
//!   (slack, `root_q`, root load, root slew, the slew verdict and the
//!   placements) under all three algorithms, both delay models, and with
//!   and without a slew limit that prunes;
//! * one priced solve, the largest suite net (its keys keep the
//!   `largest.w2` prefix they were recorded under), and a 20-edit
//!   `IncrementalSolver` script on that net (per-edit slack bits and
//!   recomputed/reused node counts).
//!
//! On a mismatch the assertion prints the whole observed table in the
//! same literal form as [`GOLDEN`], so an intended change of numbers can
//! be reviewed line by line.

use std::sync::Arc;

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
    let nets = suite.build();
    for (i, net) in nets.iter().enumerate() {
        let solution = Solver::new(net, &lib8).solve();
        put(
            format!("suite.n{i}.slack"),
            solution.slack.value().to_bits(),
        );
    }

    // The max-slack matrix: every algorithm, both delay models, with and
    // without a slew limit that prunes. One digest per configuration over
    // all nets and one per net over all configurations, so a mismatch
    // names both the configuration and the net.
    let models: [(&str, DelayModel); 2] = [
        ("elmore", DelayModel::Elmore),
        ("scaled", DelayModel::SCALED_ELMORE),
    ];
    let mut per_net: Vec<Vec<u64>> = vec![Vec::new(); nets.len()];
    for algorithm in Algorithm::ALL {
        for (model_name, model) in &models {
            for (slew_name, slew) in [("free", None), ("slew", Some(SLEW_LIMIT_PS))] {
                let mut words = Vec::new();
                let mut slew_pruned = 0;
                for (i, net) in nets.iter().enumerate() {
                    let mut solver = Solver::new(net, &lib8)
                        .algorithm(algorithm)
                        .delay_model(*model);
                    if let Some(ps) = slew {
                        solver = solver.slew_limit(Seconds::from_pico(ps));
                    }
                    let solution = solver.solve();
                    slew_pruned += solution.stats.slew_pruned;
                    words.extend(solution_words(&solution));
                    per_net[i].extend(solution_words(&solution));
                }
                assert_eq!(
                    slew_pruned > 0,
                    slew.is_some(),
                    "{algorithm}/{model_name}/{slew_name}: the limit must prune"
                );
                put(
                    format!("suite.{algorithm}.{model_name}.{slew_name}"),
                    digest(words),
                );
            }
        }
    }
    for (i, words) in per_net.into_iter().enumerate() {
        put(format!("suite.n{i}.matrix"), digest(words));
    }

    // One priced solve: every buffer site of net 0 carries a price.
    let net = &nets[0];
    let mut prices = vec![0.0f64; net.node_count()];
    for (j, site) in net.buffer_sites().enumerate() {
        prices[site.index()] = ((j * 7919) % 53 + 1) as f64 * 1e-12;
    }
    let priced = Solver::new(net, &lib8)
        .site_prices(Some(Arc::from(prices.as_slice())))
        .solve();
    let unpriced = Solver::new(net, &lib8).solve();
    assert_ne!(
        priced.placements, unpriced.placements,
        "the prices must change the placements"
    );
    put_words(&mut put, "priced", &priced);

    // The largest net.
    let largest = nets
        .iter()
        .enumerate()
        .max_by_key(|(i, net)| (net.node_count(), std::cmp::Reverse(*i)))
        .map(|(_, net)| net)
        .unwrap();
    put_words(&mut put, "largest.w2", &Solver::new(largest, &lib8).solve());

    // A 20-edit ECO script on the largest net, library swaps included.
    let script = EditScriptSpec {
        edits: 20,
        locality: 0.3,
        seed: 5,
        swap_library_every: 7,
    }
    .generate(largest);
    let mut eco = IncrementalSolver::new(largest.clone(), lib8.clone());
    eco.solve();
    for (k, edit) in script.iter().enumerate() {
        eco.apply(edit).unwrap();
        let solution = eco.solve();
        put(format!("eco.e{k}.slack"), solution.slack.value().to_bits());
        put(
            format!("eco.e{k}.recomputed"),
            solution.stats.nodes_recomputed,
        );
        put(format!("eco.e{k}.reused"), solution.stats.nodes_reused);
    }
    out
}

/// The slew limit of the max-slack matrix, in picoseconds: tight enough
/// to prune candidates on some suite nets under both delay models.
const SLEW_LIMIT_PS: f64 = 120.0;

/// `to_bits` of every root quantity a max-slack solve reports, its slew
/// verdict, and its placements digest.
fn solution_words(s: &Solution) -> [u64; 6] {
    [
        s.slack.value().to_bits(),
        s.root_q.value().to_bits(),
        s.root_load.value().to_bits(),
        s.root_slew.value().to_bits(),
        u64::from(s.slew_ok),
        placements_digest(&s.placements),
    ]
}

fn put_words(put: &mut impl FnMut(String, u64), key: &str, s: &Solution) {
    let names = [
        "slack",
        "root_q",
        "root_load",
        "root_slew",
        "slew_ok",
        "placements",
    ];
    for (name, word) in names.iter().zip(solution_words(s)) {
        put(format!("{key}.{name}"), word);
    }
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
    ("suite.lillis.elmore.free", 0x584358051039faf0),
    ("suite.lillis.elmore.slew", 0x603936c4d77ff6a7),
    ("suite.lillis.scaled.free", 0x9f87396201f46650),
    ("suite.lillis.scaled.slew", 0x9027982b70c57c13),
    ("suite.lishi.elmore.free", 0x584358051039faf0),
    ("suite.lishi.elmore.slew", 0x603936c4d77ff6a7),
    ("suite.lishi.scaled.free", 0x9f87396201f46650),
    ("suite.lishi.scaled.slew", 0x9027982b70c57c13),
    ("suite.lishi-permanent.elmore.free", 0x8580a28a2ca45896),
    ("suite.lishi-permanent.elmore.slew", 0xf9b3a75176d928f2),
    ("suite.lishi-permanent.scaled.free", 0x3a8babdfd2b930d8),
    ("suite.lishi-permanent.scaled.slew", 0x33edc1cb0464782d),
    ("suite.n0.matrix", 0xc99a3cf22186fa76),
    ("suite.n1.matrix", 0x63e4d16f4a236426),
    ("suite.n2.matrix", 0x2c92985bd843f6fe),
    ("suite.n3.matrix", 0x18495e962aeef741),
    ("suite.n4.matrix", 0x588a2c902aa23ecd),
    ("suite.n5.matrix", 0x81dfacebc650ffc9),
    ("suite.n6.matrix", 0x6d9bd3218e8fb27d),
    ("suite.n7.matrix", 0xef0b2df021f9400b),
    ("suite.n8.matrix", 0xbb3ff67b71e34d84),
    ("suite.n9.matrix", 0x6935f626304a1d33),
    ("suite.n10.matrix", 0x344efd73425490b0),
    ("suite.n11.matrix", 0x0bffcd15dfe49f51),
    ("suite.n12.matrix", 0x4161dda213a60056),
    ("suite.n13.matrix", 0x26743ced66358528),
    ("suite.n14.matrix", 0x60db4c313d2b5d29),
    ("suite.n15.matrix", 0xd1bdbb495537d885),
    ("suite.n16.matrix", 0xf6f3ad50d9a7688a),
    ("suite.n17.matrix", 0xb28ef07776187337),
    ("suite.n18.matrix", 0x3bce02b569a4c3c0),
    ("suite.n19.matrix", 0x89dd185c9a74621a),
    ("suite.n20.matrix", 0xce1c38b29e50aea6),
    ("suite.n21.matrix", 0x71dd08babe02e81e),
    ("suite.n22.matrix", 0xfb63f852e6817fcc),
    ("suite.n23.matrix", 0xd9cfe331eb651e16),
    ("suite.n24.matrix", 0x5ade2ca3b06c0c39),
    ("suite.n25.matrix", 0x9272b24a54f9caa2),
    ("suite.n26.matrix", 0xea665a3e332eaa3f),
    ("suite.n27.matrix", 0x6d4e88624df6633c),
    ("suite.n28.matrix", 0xfc8d1aa16181a457),
    ("suite.n29.matrix", 0xef9c659c8e97991a),
    ("suite.n30.matrix", 0x81e03ae060bc0e14),
    ("suite.n31.matrix", 0xf0583329540d9314),
    ("priced.slack", 0x3e0bf2429bd47a89),
    ("priced.root_q", 0x3e0c95bde5c9c48d),
    ("priced.root_load", 0x3d3d103aa8c333e9),
    ("priced.root_slew", 0x3dc7cc9eafa7ed40),
    ("priced.slew_ok", 0x0000000000000001),
    ("priced.placements", 0x2c503e2bacd9389e),
    ("largest.w2.slack", 0x3e0638555a5eeea2),
    ("largest.w2.root_q", 0x3e090ec5f45f5ec1),
    ("largest.w2.root_load", 0x3d6024a2b60dde90),
    ("largest.w2.root_slew", 0x3df0f44f63f3e475),
    ("largest.w2.slew_ok", 0x0000000000000001),
    ("largest.w2.placements", 0xff51b8628b924b95),
    ("eco.e0.slack", 0x3e0638555a5eeea2),
    ("eco.e0.recomputed", 0x0000000000000003),
    ("eco.e0.reused", 0x0000000000000095),
    ("eco.e1.slack", 0x3e0638555a5eeea2),
    ("eco.e1.recomputed", 0x0000000000000006),
    ("eco.e1.reused", 0x0000000000000092),
    ("eco.e2.slack", 0x3e0638555a5eeea2),
    ("eco.e2.recomputed", 0x000000000000000d),
    ("eco.e2.reused", 0x000000000000008b),
    ("eco.e3.slack", 0x3e063835b84110a9),
    ("eco.e3.recomputed", 0x0000000000000001),
    ("eco.e3.reused", 0x0000000000000097),
    ("eco.e4.slack", 0x3e063835b84110a9),
    ("eco.e4.recomputed", 0x0000000000000005),
    ("eco.e4.reused", 0x0000000000000093),
    ("eco.e5.slack", 0x3e063835b84110a9),
    ("eco.e5.recomputed", 0x000000000000000d),
    ("eco.e5.reused", 0x000000000000008b),
    ("eco.e6.slack", 0x3e0653febfc18c0b),
    ("eco.e6.recomputed", 0x0000000000000098),
    ("eco.e6.reused", 0x0000000000000000),
    ("eco.e7.slack", 0x3e0653febfc18c0b),
    ("eco.e7.recomputed", 0x0000000000000004),
    ("eco.e7.reused", 0x0000000000000094),
    ("eco.e8.slack", 0x3e064f864ff65940),
    ("eco.e8.recomputed", 0x0000000000000009),
    ("eco.e8.reused", 0x000000000000008f),
    ("eco.e9.slack", 0x3e064f864ff65940),
    ("eco.e9.recomputed", 0x0000000000000017),
    ("eco.e9.reused", 0x0000000000000081),
    ("eco.e10.slack", 0x3e06529a3f45f281),
    ("eco.e10.recomputed", 0x0000000000000009),
    ("eco.e10.reused", 0x000000000000008f),
    ("eco.e11.slack", 0x3e06529a3f45f281),
    ("eco.e11.recomputed", 0x000000000000000a),
    ("eco.e11.reused", 0x000000000000008e),
    ("eco.e12.slack", 0x3e06529a3f45f281),
    ("eco.e12.recomputed", 0x000000000000000e),
    ("eco.e12.reused", 0x000000000000008a),
    ("eco.e13.slack", 0x3e061774a9c42a73),
    ("eco.e13.recomputed", 0x0000000000000098),
    ("eco.e13.reused", 0x0000000000000000),
    ("eco.e14.slack", 0x3e061774a9c42a73),
    ("eco.e14.recomputed", 0x000000000000000b),
    ("eco.e14.reused", 0x000000000000008d),
    ("eco.e15.slack", 0x3e061774a9c42a73),
    ("eco.e15.recomputed", 0x0000000000000007),
    ("eco.e15.reused", 0x0000000000000091),
    ("eco.e16.slack", 0x3e061774a9c42a73),
    ("eco.e16.recomputed", 0x000000000000000a),
    ("eco.e16.reused", 0x000000000000008e),
    ("eco.e17.slack", 0x3e061774a9c42a73),
    ("eco.e17.recomputed", 0x000000000000000e),
    ("eco.e17.reused", 0x000000000000008a),
    ("eco.e18.slack", 0x3e061dc42c0b0983),
    ("eco.e18.recomputed", 0x0000000000000009),
    ("eco.e18.reused", 0x000000000000008f),
    ("eco.e19.slack", 0x3e061dc42c0b0983),
    ("eco.e19.recomputed", 0x000000000000000b),
    ("eco.e19.reused", 0x000000000000008d),
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
