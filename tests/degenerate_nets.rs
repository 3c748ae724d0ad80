//! Degenerate-net audit (panic-freedom satellite): solving trees with zero
//! buffer sites, a single sink directly on the source, zero-length wires,
//! or empty/over-constrained libraries must return a valid `Solution` —
//! never panic — on every algorithm, with and without a slew limit, and
//! through every solver entry point (plain, workspace-reuse, cost
//! frontier, batch).

use fastbuf::netgen;
use fastbuf::prelude::*;
use fastbuf::rctree::{elmore, RoutingTree};
use std::sync::Arc;

fn sink_on_source(wire: Wire) -> RoutingTree {
    let mut b = TreeBuilder::new();
    let src = b.source(Driver::new(Ohms::new(180.0)));
    let snk = b.sink(Farads::from_femto(10.0), Seconds::from_pico(500.0));
    b.connect(src, snk, wire).unwrap();
    b.build().unwrap()
}

fn degenerate_nets() -> Vec<(&'static str, RoutingTree)> {
    let tech = Technology::tsmc180_like();
    let mut nets: Vec<(&'static str, RoutingTree)> = Vec::new();

    // Single sink directly on the source through a zero wire.
    nets.push(("sink-on-source/zero-wire", sink_on_source(Wire::zero())));
    // ... and through a real wire, still with zero buffer sites.
    nets.push((
        "sink-on-source/long-wire",
        sink_on_source(Wire::from_length(&tech, Microns::new(5000.0))),
    ));

    // Zero-capacitance sink with zero RAT.
    {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let snk = b.sink(Farads::ZERO, Seconds::ZERO);
        b.connect(src, snk, Wire::zero()).unwrap();
        nets.push(("zero-sink/ideal-driver", b.build().unwrap()));
    }

    // A site chain where every wire is zero-length.
    {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let mut prev = src;
        for _ in 0..4 {
            let s = b.buffer_site();
            b.connect(prev, s, Wire::zero()).unwrap();
            prev = s;
        }
        let snk = b.sink(Farads::from_femto(5.0), Seconds::from_pico(100.0));
        b.connect(prev, snk, Wire::zero()).unwrap();
        nets.push(("zero-length-chain", b.build().unwrap()));
    }

    // Branching with zero wires and mixed zero/real branches.
    {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(250.0)));
        let tee = b.internal();
        let site = b.buffer_site();
        let k1 = b.sink(Farads::ZERO, Seconds::from_pico(50.0));
        let k2 = b.sink(Farads::from_femto(30.0), Seconds::from_pico(900.0));
        b.connect(src, tee, Wire::zero()).unwrap();
        b.connect(tee, k1, Wire::zero()).unwrap();
        b.connect(tee, site, Wire::from_length(&tech, Microns::new(3000.0)))
            .unwrap();
        b.connect(site, k2, Wire::zero()).unwrap();
        nets.push(("zero-wire-tee", b.build().unwrap()));
    }

    // A site whose subset constraint is empty (behaves like not-a-site).
    {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let mid = b.internal_with(SiteConstraint::Subset(Arc::new(
            fastbuf::buflib::BufferSet::empty(4),
        )));
        let snk = b.sink(Farads::from_femto(8.0), Seconds::from_pico(400.0));
        b.connect(src, mid, Wire::from_length(&tech, Microns::new(1000.0)))
            .unwrap();
        b.connect(mid, snk, Wire::from_length(&tech, Microns::new(1000.0)))
            .unwrap();
        nets.push(("empty-subset-site", b.build().unwrap()));
    }

    // Zero-site line from the generator.
    nets.push(("line/no-sites", netgen::line_net(Microns::new(4000.0), 0)));

    nets
}

fn libraries() -> Vec<(&'static str, BufferLibrary)> {
    vec![
        ("empty", BufferLibrary::empty()),
        ("paper/4", BufferLibrary::paper_synthetic(4).unwrap()),
        (
            "all-over-limited",
            // Every type's max_load is tiny: no candidate ever fits.
            BufferLibrary::new(vec![BufferType::new(
                "choked",
                Ohms::new(100.0),
                Farads::from_femto(1.0),
                Seconds::from_pico(10.0),
            )
            .with_max_load(Farads::new(1e-21))])
            .unwrap(),
        ),
    ]
}

#[test]
fn every_degenerate_net_solves_without_panicking() {
    for (net_name, tree) in degenerate_nets() {
        for (lib_name, lib) in libraries() {
            for algo in Algorithm::ALL {
                for slew_limit in [None, Some(Seconds::from_pico(50.0))] {
                    let mut solver = Solver::new(&tree, &lib).algorithm(algo);
                    if let Some(limit) = slew_limit {
                        solver = solver.slew_limit(limit);
                    }
                    let sol = solver.solve();
                    assert!(
                        !sol.slack.value().is_nan(),
                        "{net_name}/{lib_name}/{algo}: NaN slack"
                    );
                    // The reconstruction must be legal and reproduce the
                    // predicted slack on the forward evaluator.
                    sol.verify(&tree, &lib)
                        .unwrap_or_else(|e| panic!("{net_name}/{lib_name}/{algo}: {e}"));
                }
            }
        }
    }
}

#[test]
fn workspace_reuse_handles_degenerate_nets() {
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let mut ws = SolveWorkspace::new();
    // Interleave degenerate and normal nets through one workspace.
    for (name, tree) in degenerate_nets() {
        let reused = Solver::new(&tree, &lib).solve_with(&mut ws);
        let fresh = Solver::new(&tree, &lib).solve();
        assert_eq!(reused.slack, fresh.slack, "{name}");
        assert_eq!(reused.placements, fresh.placements, "{name}");
        let normal = netgen::line_net(Microns::new(8000.0), 7);
        let _ = Solver::new(&normal, &lib).solve_with(&mut ws);
    }
}

#[test]
fn untracked_degenerate_solves_are_panic_free() {
    let lib = BufferLibrary::paper_synthetic(2).unwrap();
    for (name, tree) in degenerate_nets() {
        let sol = Solver::new(&tree, &lib).track_predecessors(false).solve();
        assert!(sol.placements.is_empty(), "{name}");
        assert!(!sol.slack.value().is_nan(), "{name}");
    }
}

#[test]
fn cost_frontier_handles_degenerate_nets() {
    let lib = BufferLibrary::paper_synthetic(2).unwrap();
    for (name, tree) in degenerate_nets() {
        let frontier = CostSolver::new(&tree, &lib)
            .max_cost(20)
            .solve()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!frontier.points.is_empty(), "{name}: empty frontier");
        assert_eq!(frontier.points[0].cost, 0, "{name}");
    }
}

#[test]
fn batch_handles_degenerate_fleets() {
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let nets: Vec<RoutingTree> = degenerate_nets().into_iter().map(|(_, t)| t).collect();
    let report = fastbuf::batch::BatchSolver::new(&nets, &lib)
        .workers(2)
        .slew_limit(Seconds::from_pico(100.0))
        .solve();
    assert_eq!(report.outcomes.len(), nets.len());
    for o in &report.outcomes {
        assert!(!o.slack.value().is_nan(), "net {}", o.index);
    }
}

/// Satellite regression: a `BlockSite` edit that removes the *last* legal
/// site leaves a zero-site tree whose only completion is unbuffered. The
/// incremental solve, `Solution::verify`, and the api-level
/// `Outcome::verify` must all report the infeasibility honestly
/// (`slew_ok = false` under a binding limit) and never panic — through the
/// incremental path (cache populated with the site present, then
/// invalidated by the block) as well as from scratch.
#[test]
fn blocking_the_last_site_is_verifiable_never_panics() {
    use fastbuf::incremental::{Edit, IncrementalSolver};
    let tech = Technology::tsmc180_like();
    let lib = BufferLibrary::paper_synthetic(4).unwrap();

    // One site in the middle of a 10 mm line: buffered it meets a 300 ps
    // limit, unbuffered it cannot.
    let mut b = TreeBuilder::new();
    let src = b.source(Driver::new(Ohms::new(180.0)));
    let site = b.buffer_site();
    let snk = b.sink(Farads::from_femto(20.0), Seconds::from_pico(2000.0));
    b.connect(src, site, Wire::from_length(&tech, Microns::new(5000.0)))
        .unwrap();
    b.connect(site, snk, Wire::from_length(&tech, Microns::new(5000.0)))
        .unwrap();
    let tree = b.build().unwrap();
    // A limit strictly between the buffered optimum's worst slew and the
    // unbuffered worst slew: feasible exactly as long as the site exists.
    let buffered = Solver::new(&tree, &lib).solve();
    assert!(!buffered.placements.is_empty());
    let s_buf = elmore::evaluate(&tree, &lib, &buffered.placement_pairs())
        .unwrap()
        .max_slew;
    let s_unbuf = elmore::evaluate(&tree, &lib, &[]).unwrap().max_slew;
    assert!(s_buf < s_unbuf);
    let limit = Seconds::new(0.5 * (s_buf.value() + s_unbuf.value()));

    let mut options = SolverOptions::default();
    options.slew_limit = Some(limit);
    let mut solver = IncrementalSolver::new(tree.clone(), lib.clone()).with_options(options);
    let before = solver.solve();
    assert!(before.slew_ok, "one mid-line buffer meets {limit}");
    assert!(!before.placements.is_empty());

    // The blockage lands on the only site.
    solver.apply(&Edit::BlockSite { node: site }).unwrap();
    assert_eq!(solver.tree().buffer_site_count(), 0);
    for sol in [solver.solve(), solver.solve_scratch()] {
        assert!(sol.placements.is_empty(), "no site, no buffers");
        assert!(!sol.slew_ok, "unbuffered 10 mm line cannot meet 300 ps");
        assert!(!sol.slack.value().is_nan());
        // Verification measures the best-effort unbuffered solution —
        // must succeed (slack matches), never panic.
        sol.verify(solver.tree(), &lib).unwrap();
        sol.verify(solver.tree(), &lib).unwrap();
    }

    // Same story through the api ECO entry and Outcome::verify, with a
    // derated corner riding along.
    let session = Session::new(lib.clone());
    let mut eco = session
        .eco(
            &tree,
            vec![
                Scenario::named("signoff").slew_limit(limit),
                Scenario::named("slow").slew_limit(limit).rat_derate(0.9),
            ],
        )
        .unwrap();
    let before = eco.solve().unwrap();
    assert!(before
        .scenarios
        .iter()
        .all(|s| s.solution().unwrap().slew_ok));
    eco.apply(&Edit::BlockSite { node: site }).unwrap();
    let after = eco.solve().unwrap();
    for corner in &after.scenarios {
        let sol = corner.solution().unwrap();
        assert!(!sol.slew_ok, "{}", corner.scenario.name);
        assert!(sol.placements.is_empty(), "{}", corner.scenario.name);
    }
    // Model-and-derate-aware verification of the infeasible outcome against
    // the *edited* tree: must be Ok (the best-effort slack is achievable),
    // never a panic.
    after.verify(eco.tree(), session.library()).unwrap();

    // Unblocking restores feasibility through the same cache.
    eco.apply(&Edit::UnblockSite { node: site }).unwrap();
    let restored = eco.solve().unwrap();
    assert!(restored
        .scenarios
        .iter()
        .all(|s| s.solution().unwrap().slew_ok));
    restored.verify(eco.tree(), session.library()).unwrap();
}

#[test]
fn unbuffered_degenerate_slack_matches_oracle() {
    // The DP on a siteless net must equal the plain forward evaluation.
    for (name, tree) in degenerate_nets() {
        if tree.buffer_site_count() != 0 {
            continue;
        }
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let sol = Solver::new(&tree, &lib).solve();
        let eval = elmore::evaluate(&tree, &lib, &[]).unwrap();
        assert!(
            (sol.slack.value() - eval.slack.value()).abs()
                <= 1e-9 * sol.slack.value().abs().max(1e-15),
            "{name}: {} vs {}",
            sol.slack,
            eval.slack
        );
    }
}

/// Variation-aware rows of the audit: degenerate yield requests fail with
/// *typed* errors (never a panic), statistically hopeless families report
/// honest numbers, and malformed specs are rejected at parse time with
/// their line number.
#[test]
fn degenerate_yield_requests_fail_typed_never_panic() {
    use fastbuf::netgen::VariationSpec;

    let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
    let tree = netgen::line_net(Microns::new(8_000.0), 6);
    let spec = VariationSpec::gaussian(0.05, 0.5, 11);

    // Zero samples is a request error, not a panic in the quantile math.
    let err = session
        .request(&tree)
        .objective(Objective::YieldTarget {
            samples: 0,
            quantile: 0.5,
        })
        .variation(spec.clone())
        .solve()
        .unwrap_err();
    assert!(matches!(err, SolveError::NoSamples), "{err}");

    // A quantile outside (0, 1] is equally typed.
    for quantile in [0.0, -0.25, 1.5, f64::NAN] {
        let err = session
            .request(&tree)
            .objective(Objective::YieldTarget {
                samples: 8,
                quantile,
            })
            .variation(spec.clone())
            .solve()
            .unwrap_err();
        assert!(
            matches!(err, SolveError::InvalidQuantile { .. }),
            "quantile {quantile}: {err}"
        );
    }

    // A yield objective without a variation block samples the default
    // spec — all knobs fixed — so every sample is the nominal solve.
    let outcome = session
        .request(&tree)
        .objective(Objective::YieldTarget {
            samples: 4,
            quantile: 0.5,
        })
        .solve()
        .unwrap();
    let nominal = session.request(&tree).solve().unwrap();
    let nominal_bits = nominal.scenarios[0]
        .solution()
        .unwrap()
        .slack
        .value()
        .to_bits();
    let v = outcome.scenarios[0].variation().unwrap();
    assert!(v
        .samples
        .iter()
        .all(|s| s.slack.value().to_bits() == nominal_bits));

    // An out-of-domain spec built programmatically (negative sigma) is
    // caught before any sampling starts.
    let mut bad = VariationSpec::gaussian(0.05, 0.5, 1);
    bad.wire_r = fastbuf::netgen::Dist::Normal {
        mean: 1.0,
        sigma: -0.5,
    };
    let err = session
        .request(&tree)
        .objective(Objective::YieldTarget {
            samples: 8,
            quantile: 0.5,
        })
        .variation(bad)
        .solve()
        .unwrap_err();
    assert!(matches!(err, SolveError::InvalidVariation(_)), "{err}");
}

/// An unachievable slew limit makes every sample infeasible: the sweep
/// must report `yield 0.0` with `slew_ok = false` on each sample — honest
/// statistics, not a panic and not a fake pass.
#[test]
fn all_samples_slew_infeasible_reports_zero_yield() {
    use fastbuf::netgen::VariationSpec;

    let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
    let tree = netgen::line_net(Microns::new(12_000.0), 8);
    let outcome = session
        .request(&tree)
        .objective(Objective::YieldTarget {
            samples: 8,
            quantile: 0.5,
        })
        .variation(VariationSpec::gaussian(0.08, 0.5, 3))
        .scenarios(vec![
            Scenario::named("hopeless").slew_limit(Seconds::from_pico(0.001))
        ])
        .solve()
        .unwrap();
    let v = outcome.scenarios[0].variation().unwrap();
    assert_eq!(v.summary.yield_fraction, 0.0);
    assert!(v.samples.iter().all(|s| !s.slew_ok));
    // The distribution itself is still populated and finite.
    assert!(v.summary.min_slack.value().is_finite());
    assert!(v.summary.quantile_slack.value().is_finite());
}

/// Yield solves on nets with zero buffer sites degrade to evaluating the
/// bare sampled trees — still a distribution, still no panic.
#[test]
fn siteless_nets_still_yield_a_distribution() {
    use fastbuf::netgen::VariationSpec;

    let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
    for (name, tree) in degenerate_nets() {
        if tree.buffer_site_count() != 0 || tree.node_count() < 2 {
            continue;
        }
        let outcome = session
            .request(&tree)
            .objective(Objective::YieldTarget {
                samples: 4,
                quantile: 0.5,
            })
            .variation(VariationSpec::gaussian(0.05, 1.0, 9))
            .solve()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let v = outcome.scenarios[0].variation().unwrap();
        assert_eq!(v.samples.len(), 4, "{name}");
    }
}

/// Every text format rejects malformed input with the line at fault (0
/// for the file as a whole): non-finite numbers, counts and ids that are
/// not integers, missing and trailing fields, unknown keywords, and each
/// format's own range rules.
#[test]
fn malformed_text_is_rejected_with_line_numbers() {
    use fastbuf::api::{parse_scenarios, parse_variation_spec};
    use fastbuf::netgen::{eco::parse_edits, parse_capacity, parse_placements};
    use fastbuf::rctree::io;

    let line_of = |format: &str, text: &str| -> usize {
        let line = match format {
            "net" => io::parse(text).map(drop).map_err(|e| e.line),
            "lib" => BufferLibrary::from_text(text).map(drop).map_err(|e| e.line),
            "edits" => parse_edits(text).map(drop).map_err(|e| e.line),
            "placements" => parse_placements(text).map(drop).map_err(|e| e.line),
            "capacity" => parse_capacity(text).map(drop).map_err(|e| e.line),
            "variation" => match parse_variation_spec(text) {
                Err(SolveError::VariationParse { line, .. }) => Err(line),
                other => panic!("{text:?}: expected a variation parse error, got {other:?}"),
            },
            "scenarios" => match parse_scenarios(text) {
                Err(SolveError::ScenarioParse { line, .. }) => Err(line),
                other => panic!("{text:?}: expected a scenario parse error, got {other:?}"),
            },
            other => unreachable!("no format {other}"),
        };
        line.expect_err(text)
    };
    let net = "fastbuf-net v1\nnodes 2\n";
    for (format, line, text) in [
        ("net", 2, "fastbuf-net v1\nnodes 1e30\n".to_owned()),
        ("net", 2, "fastbuf-net v1\nnodes 99999999999\n".into()),
        ("net", 3, format!("{net}node 0 source nan\n")),
        ("net", 4, format!("{net}# c\nnode 0 source 100 inf\n")),
        (
            "net",
            4,
            format!("{net}node 0 source 1\nnode 1 sink 1 500 extra\n"),
        ),
        ("net", 3, format!("{net}edge 0 1 nan 295\n")),
        ("net", 3, format!("{net}node 1 internal allow 1e3\n")),
        ("net", 0, "nodes 1\nnode 0 source 1\n".into()),
        ("lib", 2, "# lib\nb 100 NaN 1 1\n".into()),
        ("lib", 1, "b 100 1 1 1 slew=x\n".into()),
        ("lib", 1, "b 100 1 inf 1 # comment\n".into()),
        ("lib", 0, "# only comments\n".into()),
        ("lib", 2, "b 100 1 1 1\nb 200 1 1 1\n".into()),
        ("lib", 3, "a 100 1 1 1\n# weak\nb 0 1 1 1\n".into()),
        ("lib", 2, "a 100 1 1 1\nb 100 1 1 -1 # cost\n".into()),
        ("edits", 1, "wire n3\n".into()),
        ("edits", 2, "block n1\ncap n1 inf\n".into()),
        ("edits", 1, "rat 7 100\n".into()),
        ("variation", 1, "wire-r normal 1.0 -0.05\n".into()),
        ("variation", 1, "wire-r normal NaN 0.05\n".into()),
        (
            "variation",
            2,
            "wire-r normal 1.0 0.05\nwire-c uniform 1.2 0.8\n".into(),
        ),
        ("variation", 3, "# comment\nseed 5\nlocality 2.0\n".into()),
        (
            "variation",
            2,
            "seed 5\nsink-cap normal 1.0 0.05 extra\n".into(),
        ),
        ("variation", 1, "wire-r gaussian 1.0 0.05\n".into()),
        (
            "placements",
            3,
            "# header\nsink 0 0 10 1000\nsink 1 2 3\n".into(),
        ),
        (
            "placements",
            2,
            "sink 0 0 10 1000\nsink nan 0 10 1000\n".into(),
        ),
        ("placements", 0, "# no sinks\n".into()),
        ("capacity", 2, "site 1 2\nsite 1 5\n".into()),
        ("capacity", 1, "site -1 2\n".into()),
        ("scenarios", 2, "typical\nslow derate=x\n".into()),
        ("scenarios", 1, "a b\n".into()),
    ] {
        assert_eq!(line_of(format, &text), line, "{format}: {text:?}");
    }
}

/// Satellite: degenerate clock-generator parameters either fail typed (see
/// the netgen unit tests) or normalize into shapes that must then survive
/// *every* algorithm, bit-identical to the oracle — a single-sink
/// caterpillar, a caterpillar whose trunk and stubs are all zero-length,
/// and a minimal one-level H-tree.
#[test]
fn normalized_degenerate_clock_shapes_solve_everywhere() {
    use fastbuf::netgen::{try_caterpillar_net, HTreeSpec};

    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let shapes = vec![
        (
            "caterpillar/single-sink",
            try_caterpillar_net(1, Microns::new(100.0), Microns::new(10.0)).unwrap(),
        ),
        (
            "caterpillar/zero-wires",
            try_caterpillar_net(3, Microns::ZERO, Microns::ZERO).unwrap(),
        ),
        (
            "htree/one-level-unsegmented",
            HTreeSpec {
                levels: 1,
                site_pitch: None,
                ..HTreeSpec::default()
            }
            .try_build()
            .unwrap(),
        ),
    ];
    for (name, tree) in &shapes {
        for algo in Algorithm::ALL {
            let sol = Solver::new(tree, &lib).algorithm(algo).solve();
            assert!(!sol.slack.value().is_nan(), "{name}/{algo}");
            sol.verify(tree, &lib)
                .unwrap_or_else(|e| panic!("{name}/{algo}: {e}"));
            let mut options = SolverOptions::default();
            options.algorithm = algo;
            let oracle = fastbuf_core::oracle::solve(tree, &lib, &options);
            assert_eq!(
                oracle.slack.value().to_bits(),
                sol.slack.value().to_bits(),
                "{name}/{algo}: the oracle disagrees"
            );
            assert_eq!(oracle.placements, sol.placements, "{name}/{algo}");
            // The skew recursion rides the same shapes without a bound
            // (bit-identity to the plain solve is pinned crate-wide in
            // tests/cts_equivalence.rs; here we pin panic-freedom).
            let skew = fastbuf::skew::SkewSolver::new(tree, &lib)
                .algorithm(algo)
                .solve();
            assert_eq!(
                skew.slack.value().to_bits(),
                sol.slack.value().to_bits(),
                "{name}/{algo}"
            );
            assert!(skew.skew.value() >= 0.0, "{name}/{algo}: negative skew");
        }
    }
}
