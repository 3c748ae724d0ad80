//! Differential proof of the ECO engine's headline guarantee: **every
//! incremental result is bit-identical to a from-scratch solve of the
//! edited tree** — same slack bits, same placements, same slew verdict —
//! across random edit scripts × netgen nets × all algorithms × slew
//! on/off, after *every* edit of every script.
//!
//! The main property runs 48 proptest cases of up to 50 edits each
//! (~1200+ edit comparisons per run; CI additionally runs this suite in
//! release). A second property pins the complexity claim: a single-leaf
//! edit on a branchy net recomputes strictly fewer nodes than the tree
//! holds.

use proptest::prelude::*;

use fastbuf::api::VariationSpec;
use fastbuf::incremental::{Edit, EditScriptSpec, IncrementalSolver};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;

fn net(sinks: usize, seed: u64, pitch: f64) -> fastbuf::rctree::RoutingTree {
    fastbuf::netgen::RandomNetSpec {
        sinks,
        seed,
        die: Microns::new(1500.0 + 50.0 * sinks as f64),
        site_pitch: Some(Microns::new(pitch)),
        ..fastbuf::netgen::RandomNetSpec::default()
    }
    .build()
}

fn assert_identical(inc: &Solution, scratch: &Solution, context: &dyn std::fmt::Display) {
    assert_eq!(
        inc.slack.value().to_bits(),
        scratch.slack.value().to_bits(),
        "slack diverged {context}: incremental {} vs scratch {}",
        inc.slack,
        scratch.slack
    );
    assert_eq!(
        inc.root_q.value().to_bits(),
        scratch.root_q.value().to_bits(),
        "root Q diverged {context}"
    );
    assert_eq!(
        inc.root_load.value().to_bits(),
        scratch.root_load.value().to_bits(),
        "root load diverged {context}"
    );
    assert_eq!(
        inc.root_slew.value().to_bits(),
        scratch.root_slew.value().to_bits(),
        "root slew diverged {context}"
    );
    assert_eq!(
        inc.placements, scratch.placements,
        "placements diverged {context}"
    );
    assert_eq!(
        inc.slew_ok, scratch.slew_ok,
        "slew verdict diverged {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property: replay a random script, comparing the
    /// cached solve against a from-scratch oracle after every edit.
    /// Scripts include SwapLibrary (full flush) every 11th edit; algorithm
    /// and slew mode are part of the sampled space.
    #[test]
    fn incremental_is_bit_identical_to_scratch(
        sinks in 2usize..26,
        net_seed in 0u64..400,
        pitch in 120.0f64..450.0,
        edits in 1usize..51,
        locality_pct in 5u32..101,
        script_seed in 0u64..1000,
        algo_idx in 0usize..3,
        slew_sel in 0u32..2,
    ) {
        let tree = net(sinks, net_seed, pitch);
        let lib = BufferLibrary::paper_synthetic(8).expect("b > 0");
        let mut options = SolverOptions::default();
        options.algorithm = Algorithm::ALL[algo_idx];
        if slew_sel == 1 {
            options.slew_limit = Some(Seconds::from_pico(320.0));
        }
        let mut solver = IncrementalSolver::new(tree, lib).with_options(options);

        // Cold cached solve must already match scratch.
        assert_identical(&solver.solve(), &solver.solve_scratch(), &"before any edit");

        let script = EditScriptSpec {
            edits,
            locality: locality_pct as f64 / 100.0,
            seed: script_seed,
            swap_library_every: 11,
        }
        .generate(solver.tree());
        for (k, edit) in script.iter().enumerate() {
            solver.apply(edit).expect("generated edits are valid");
            let inc = solver.solve();
            let scratch = solver.solve_scratch();
            assert_identical(&inc, &scratch, &format!("after edit {k} (`{edit}`)"));
            prop_assert_eq!(
                inc.stats.nodes_recomputed + inc.stats.nodes_reused,
                solver.tree().node_count() as u64
            );
        }
    }

    /// Complexity pin: on a branchy net, one sink-local edit recomputes
    /// strictly fewer nodes than the tree holds (and at least one), while
    /// still matching the scratch oracle.
    #[test]
    fn single_leaf_edits_recompute_strictly_fewer_nodes(
        sinks in 8usize..30,
        net_seed in 0u64..300,
        sink_sel in 0usize..1000,
        rat_scale in 0.6f64..1.4,
    ) {
        let tree = net(sinks, net_seed, 220.0);
        let lib = BufferLibrary::paper_synthetic(8).expect("b > 0");
        let mut solver = IncrementalSolver::new(tree, lib);
        let _ = solver.solve(); // warm the cache

        let sinks_list: Vec<_> = solver.tree().sinks().collect();
        let sink = sinks_list[sink_sel % sinks_list.len()];
        let NodeKind::Sink { required_arrival, .. } = *solver.tree().kind(sink) else {
            unreachable!("sinks() yields sinks")
        };
        solver
            .apply(&Edit::SetSinkRat {
                node: sink,
                rat: Seconds::new(required_arrival.value() * rat_scale),
            })
            .expect("sink edit is valid");

        let inc = solver.solve();
        let n = solver.tree().node_count() as u64;
        prop_assert!(inc.stats.nodes_recomputed >= 1);
        prop_assert!(
            inc.stats.nodes_recomputed < n,
            "single-leaf edit recomputed {} of {} nodes",
            inc.stats.nodes_recomputed,
            n
        );
        prop_assert_eq!(inc.stats.nodes_recomputed + inc.stats.nodes_reused, n);
        assert_identical(&inc, &solver.solve_scratch(), &"single-leaf edit");
    }
}

/// Deterministic heavy case kept outside proptest so `--nocapture` runs
/// show a stable, quotable count: 5 suites × 3 algorithms × slew on/off ×
/// 40 edits ≈ 1200 differential comparisons in one test.
#[test]
fn suite_scripts_stay_bit_identical_across_algorithms_and_slew() {
    let spec = fastbuf::netgen::SuiteSpec {
        nets: 5,
        max_sinks: 48,
        seed: 23,
        ..fastbuf::netgen::SuiteSpec::default()
    };
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let mut comparisons = 0usize;
    for i in 0..spec.nets {
        let tree = spec.build_net(i);
        for algo in Algorithm::ALL {
            for slew in [None, Some(Seconds::from_pico(350.0))] {
                let mut options = SolverOptions::default();
                options.algorithm = algo;
                options.slew_limit = slew;
                let mut solver =
                    IncrementalSolver::new(tree.clone(), lib.clone()).with_options(options);
                let script = EditScriptSpec {
                    edits: 40,
                    locality: 0.25,
                    seed: 100 + i as u64,
                    swap_library_every: 13,
                }
                .generate(solver.tree());
                for (k, edit) in script.iter().enumerate() {
                    solver.apply(edit).unwrap();
                    assert_identical(
                        &solver.solve(),
                        &solver.solve_scratch(),
                        &format!("net {i} algo {algo} slew {slew:?} edit {k}"),
                    );
                    comparisons += 1;
                }
            }
        }
    }
    assert!(
        comparisons >= 1000,
        "expected >= 1000 differential comparisons, ran {comparisons}"
    );
    println!("ran {comparisons} incremental-vs-scratch comparisons");
}

/// The root paths a variation family's scripts dirty, and the frontier
/// below them, derived independently of the cache: wire edits start at the
/// wire's parent, every other edit at the edited node.
fn footprint_and_frontier(tree: &RoutingTree, scripts: &[Vec<Edit>]) -> (Vec<bool>, Vec<NodeId>) {
    let mut inside = vec![false; tree.node_count()];
    for edit in scripts.iter().flatten() {
        let origin = match *edit {
            Edit::SetWireRC { node, .. } | Edit::SetWireLength { node, .. } => tree.parent(node),
            Edit::DerateSite { node, .. }
            | Edit::SetSinkRat { node, .. }
            | Edit::SetSinkCap { node, .. }
            | Edit::BlockSite { node }
            | Edit::UnblockSite { node } => Some(node),
            Edit::SwapLibrary { .. } => unreachable!("variation scripts never swap libraries"),
        };
        let mut cur = origin;
        while let Some(v) = cur {
            inside[v.index()] = true;
            cur = tree.parent(v);
        }
    }
    let frontier = tree
        .node_ids()
        .filter(|&v| !inside[v.index()] && tree.parent(v).is_some_and(|p| inside[p.index()]))
        .collect();
    (inside, frontier)
}

/// A solver over a 40-sink net with a footprint declared for an 8-sample
/// gaussian family, after `warm` samples have been solved.
fn footprint_solver(warm: usize) -> (IncrementalSolver, Vec<Vec<Edit>>) {
    let tree = net(40, 7, 200.0);
    let scripts = VariationSpec::gaussian(0.05, 0.1, 3).expand(&tree, 8);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let mut solver = IncrementalSolver::new(tree, lib);
    solver.set_footprint(scripts.iter().flatten());
    assert!(solver.cache().has_footprint());
    for (k, script) in scripts.iter().take(warm).enumerate() {
        solver.apply_all(script).unwrap();
        assert_identical(
            &solver.solve(),
            &solver.solve_scratch(),
            &format!("sample {k}"),
        );
    }
    (solver, scripts)
}

/// Footprint safety: with a footprint set, sample scripts stay
/// bit-identical to scratch while the cache keeps only frontier lists; and
/// every way of dirtying the cache either keeps the footprint (when the
/// dirtied paths stay inside it, or everything is flushed anyway) or drops
/// it, without ever reading a list that was not stored.
#[test]
fn footprint_snapshots_stay_bit_identical_and_drop_on_outside_dirtying() {
    let (mut solver, scripts) = footprint_solver(8);
    let tree = solver.tree().clone();
    let n = tree.node_count() as u64;
    let (inside, frontier) = footprint_and_frontier(&tree, &scripts);
    let footprint = inside.iter().filter(|&&b| b).count() as u64;
    assert!(footprint < n && !frontier.is_empty());
    assert_eq!(solver.cache().cached_nodes(), frontier.len());
    // Every warm sample recomputes exactly the footprint.
    solver.apply_all(&scripts[0]).unwrap();
    let warm = solver.solve();
    assert_eq!(warm.stats.nodes_recomputed, footprint);
    assert_eq!(warm.stats.nodes_reused, n - footprint);
    assert_identical(&warm, &solver.solve_scratch(), &"warm sample");

    // Nodes the dirtyings below target, chosen so each dirtying changes
    // the result (asserted per case): a reused stale list would show.
    let buffered: Vec<NodeId> = warm.placements.iter().map(|p| p.node).collect();
    let is_sink = |v: NodeId| matches!(tree.kind(v), NodeKind::Sink { .. });
    let frontier_set: Vec<bool> = {
        let mut f = vec![false; tree.node_count()];
        frontier.iter().for_each(|v| f[v.index()] = true);
        f
    };
    let outside_sink = tree
        .sinks()
        .find(|s| !inside[s.index()] && !frontier_set[s.index()])
        .expect("a sink below the frontier");
    let frontier_sink = *frontier.iter().find(|&&v| is_sink(v)).unwrap();
    let frontier_buffer = *frontier.iter().find(|v| buffered.contains(v)).unwrap();
    let inside_buffer = *buffered.iter().find(|v| inside[v.index()]).unwrap();
    let tight_rat = |sink: NodeId| match *tree.kind(sink) {
        NodeKind::Sink {
            required_arrival, ..
        } => Seconds::new(required_arrival.value() * 0.2),
        _ => unreachable!("a sink"),
    };
    let (outside_rat, frontier_rat) = (tight_rat(outside_sink), tight_rat(frontier_sink));
    let wire = *tree.wire_to_parent(frontier_buffer).unwrap();
    let price = Seconds::from_pico(400.0);

    type Dirtying = Box<dyn Fn(&mut IncrementalSolver)>;
    let cases: Vec<(&str, Dirtying, bool)> = vec![
        (
            "sink edit below the frontier",
            Box::new(move |s| {
                s.apply(&Edit::SetSinkRat {
                    node: outside_sink,
                    rat: outside_rat,
                })
                .unwrap()
            }),
            false,
        ),
        (
            "sink edit on a frontier node",
            Box::new(move |s| {
                s.apply(&Edit::SetSinkRat {
                    node: frontier_sink,
                    rat: frontier_rat,
                })
                .unwrap()
            }),
            false,
        ),
        (
            "site derate on a frontier node",
            Box::new(move |s| {
                s.apply(&Edit::DerateSite {
                    node: frontier_buffer,
                    delay_scale: 3.0,
                    drive_scale: 3.0,
                })
                .unwrap()
            }),
            false,
        ),
        (
            "wire edit above a frontier node (dirties from its parent, inside)",
            Box::new(move |s| {
                s.apply(&Edit::SetWireRC {
                    node: frontier_buffer,
                    resistance: Ohms::new(wire.resistance().value() * 5.0),
                    capacitance: Farads::new(wire.capacitance().value() * 5.0),
                })
                .unwrap()
            }),
            true,
        ),
        (
            "library swap",
            Box::new(|s| s.apply(&Edit::SwapLibrary { size: 6, jitter: 0 }).unwrap()),
            true,
        ),
        (
            "site price inside the footprint",
            Box::new(move |s| assert_eq!(s.set_site_prices(&[(inside_buffer, price)]).unwrap(), 1)),
            true,
        ),
        (
            "site price on a frontier node",
            Box::new(move |s| {
                assert_eq!(s.set_site_prices(&[(frontier_buffer, price)]).unwrap(), 1)
            }),
            false,
        ),
    ];
    for (name, dirty, keeps) in &cases {
        let keeps = *keeps;
        let (mut solver, scripts) = footprint_solver(2);
        // Re-apply sample 0 (the state the nodes were chosen in).
        solver.apply_all(&scripts[0]).unwrap();
        let before = solver.solve();
        dirty(&mut solver);
        assert_eq!(solver.cache().has_footprint(), keeps, "{name}");
        let after = solver.solve();
        assert_identical(&after, &solver.solve_scratch(), &name);
        assert!(
            after.slack.value().to_bits() != before.slack.value().to_bits()
                || after.placements != before.placements,
            "{name}: the dirtying must change the result"
        );
        for (k, script) in scripts.iter().enumerate().skip(2) {
            solver.apply_all(script).unwrap();
            let inc = solver.solve();
            assert_identical(
                &inc,
                &solver.solve_scratch(),
                &format!("{name}, sample {k}"),
            );
            assert_eq!(inc.stats.nodes_recomputed + inc.stats.nodes_reused, n);
        }
        assert_eq!(solver.cache().has_footprint(), keeps, "{name}");
    }
}

/// The incremental solver's arena-size flush keeps the footprint (a
/// flushed cache satisfies it) and the results stay bit-identical across
/// it. A whole-tree family on a site-dense net with 64 buffer types makes
/// every tracked solve append enough predecessor entries to reach the
/// limit within a few dozen samples.
#[test]
fn footprint_survives_the_arena_limit_flush() {
    let tree = net(60, 11, 60.0);
    let scripts = VariationSpec::gaussian(0.05, 1.0, 5).expand(&tree, 400);
    let lib = BufferLibrary::paper_synthetic(64).unwrap();
    let mut solver = IncrementalSolver::new(tree, lib);
    solver.set_footprint(scripts.iter().flatten());
    let mut flushed_at = None;
    for (k, script) in scripts.iter().enumerate() {
        let flushes = solver.cache().flush_count();
        let arena_before = solver.cache().arena_entries();
        solver.apply_all(script).unwrap();
        let inc = solver.solve();
        // (The first solve flushes too: it finds the cache cold.)
        if k > 0 && solver.cache().flush_count() > flushes {
            assert!(arena_before > 1 << 20, "only the arena limit flushes here");
            assert!(solver.cache().has_footprint());
            assert_identical(&inc, &solver.solve_scratch(), &format!("sample {k}"));
            flushed_at = Some(k);
        } else if flushed_at.is_some_and(|f| k == f + 1) {
            assert_identical(&inc, &solver.solve_scratch(), &format!("sample {k}"));
            break;
        }
    }
    println!("arena limit flushed after sample {flushed_at:?}");
    assert!(flushed_at.is_some(), "the arena limit was never reached");
}
