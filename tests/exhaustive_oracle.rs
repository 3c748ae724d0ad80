//! Exhaustive oracle: on tiny nets, enumerate *every possible* buffer
//! assignment, evaluate each with the independent forward Elmore engine,
//! and check that the DP solvers find exactly the true optimum — and that
//! the cost solver's frontier matches the budget-restricted brute force,
//! under Elmore and under a scaled wire model.

use fastbuf::netgen::RandomNetSpec;
use fastbuf::prelude::*;
use fastbuf::rctree::{elmore, NodeId, RoutingTree};

/// Enumerates all `(b+1)^sites` assignments, measured under `model`,
/// returning the best slack and for each budget the best slack at total
/// cost ≤ budget.
fn brute_force(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    max_budget: u32,
    model: DelayModel,
) -> (f64, Vec<f64>) {
    let sites: Vec<NodeId> = tree.buffer_sites().collect();
    let choices = lib.len() + 1;
    let total = choices.pow(sites.len() as u32);
    assert!(total <= 200_000, "brute force domain too large: {total}");

    let mut best = f64::NEG_INFINITY;
    let mut best_at_budget = vec![f64::NEG_INFINITY; max_budget as usize + 1];
    for code in 0..total {
        let mut c = code;
        let mut placements = Vec::new();
        let mut legal = true;
        for &site in &sites {
            let pick = c % choices;
            c /= choices;
            if pick > 0 {
                let id = BufferTypeId::new(pick - 1);
                if !tree.site_constraint(site).allows(id) {
                    legal = false;
                    break;
                }
                placements.push((site, id));
            }
        }
        if !legal {
            continue;
        }
        let report =
            elmore::evaluate_with(tree, lib, &placements, model, 1.0).expect("legal assignment");
        let slack = report.slack.picos();
        best = best.max(slack);
        let cost = report.total_cost.round() as usize;
        if cost <= max_budget as usize {
            for slot in best_at_budget.iter_mut().skip(cost) {
                *slot = slot.max(slack);
            }
        }
    }
    (best, best_at_budget)
}

fn tiny_library(b: usize) -> BufferLibrary {
    // Small, non-degenerate library with integer costs 1 and 2.
    let mut bufs = Vec::new();
    for i in 0..b {
        let t = i as f64 / (b.max(2) - 1) as f64;
        bufs.push(
            BufferType::new(
                format!("t{i}"),
                Ohms::new(4000.0 - 3400.0 * t),
                Farads::from_femto(1.0 + 12.0 * t),
                Seconds::from_pico(30.0 + 3.0 * t),
            )
            .with_cost(1.0 + (i % 2) as f64),
        );
    }
    BufferLibrary::new(bufs).unwrap()
}

fn tiny_nets() -> Vec<(String, RoutingTree)> {
    let mut nets = Vec::new();
    nets.push((
        "line/4".into(),
        fastbuf::netgen::line_net(Microns::new(6000.0), 4),
    ));
    // A tee with sites on both branches.
    {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(300.0)));
        let s0 = b.buffer_site();
        let tee = b.internal();
        let s1 = b.buffer_site();
        let s2 = b.buffer_site();
        let k1 = b.sink(Farads::from_femto(8.0), Seconds::from_pico(700.0));
        let k2 = b.sink(Farads::from_femto(28.0), Seconds::from_pico(850.0));
        b.connect(src, s0, Wire::from_length(&tech, Microns::new(1800.0)))
            .unwrap();
        b.connect(s0, tee, Wire::from_length(&tech, Microns::new(700.0)))
            .unwrap();
        b.connect(tee, s1, Wire::from_length(&tech, Microns::new(2000.0)))
            .unwrap();
        b.connect(s1, k1, Wire::from_length(&tech, Microns::new(400.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(2600.0)))
            .unwrap();
        b.connect(s2, k2, Wire::from_length(&tech, Microns::new(600.0)))
            .unwrap();
        nets.push(("tee/3".into(), b.build().unwrap()));
    }
    for seed in 0..8u64 {
        let t = RandomNetSpec {
            sinks: 3 + (seed as usize % 3),
            die: Microns::new(2500.0),
            seed,
            site_pitch: Some(Microns::new(900.0)),
            ..RandomNetSpec::default()
        }
        .build();
        if t.buffer_site_count() <= 7 {
            nets.push((format!("random/{seed}"), t));
        }
    }
    nets
}

#[test]
fn exact_solvers_match_exhaustive_enumeration() {
    for b in [1usize, 2, 3] {
        let lib = tiny_library(b);
        for (name, tree) in tiny_nets() {
            if (lib.len() + 1).pow(tree.buffer_site_count() as u32) > 200_000 {
                continue;
            }
            let (true_best, _) = brute_force(&tree, &lib, 0, DelayModel::Elmore);
            for algo in [Algorithm::Lillis, Algorithm::LiShi] {
                let sol = Solver::new(&tree, &lib).algorithm(algo).solve();
                assert!(
                    (sol.slack.picos() - true_best).abs() < 1e-6,
                    "{name} b={b} {algo}: solver {} vs brute force {}",
                    sol.slack.picos(),
                    true_best
                );
                // The reconstructed placements actually achieve it.
                let measured = sol.verify(&tree, &lib).unwrap();
                assert!((measured.picos() - true_best).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn cost_frontier_matches_budgeted_enumeration() {
    let lib = tiny_library(3);
    let budget = 12u32;
    let models: [DelayModel; 2] = [DelayModel::Elmore, DelayModel::SCALED_ELMORE];
    for model in models {
        let mut options = SolverOptions::default();
        options.delay_model = model;
        for (name, tree) in tiny_nets() {
            if (lib.len() + 1).pow(tree.buffer_site_count() as u32) > 200_000 {
                continue;
            }
            let (_, best_at) = brute_force(&tree, &lib, budget, model);
            let frontier = CostSolver::new(&tree, &lib)
                .with_options(options.clone())
                .max_cost(budget)
                .solve()
                .unwrap();
            for w in 0..=budget {
                let brute = best_at[w as usize];
                let dp = frontier
                    .best_within(w)
                    .map(|p| p.slack.picos())
                    .unwrap_or(f64::NEG_INFINITY);
                assert!(
                    (dp - brute).abs() < 1e-6,
                    "{name} {} budget {w}: frontier {dp} vs brute {brute}",
                    model.name()
                );
            }
        }
    }
}

/// Satellite: after every edit of an ECO script, the *incremental* solver
/// still finds exactly the brute-force optimum of the edited tree (and its
/// reconstruction achieves it on the forward evaluator) — the oracle
/// re-certifies true optimality, not just scratch-equality, across edits
/// including site blocks/unblocks that change the enumeration domain.
#[test]
fn incremental_solver_matches_exhaustive_enumeration_after_edits() {
    use fastbuf::incremental::{EditScriptSpec, IncrementalSolver};

    for b in [2usize, 3] {
        let lib = tiny_library(b);
        for (name, tree) in tiny_nets() {
            if (lib.len() + 1).pow(tree.buffer_site_count() as u32) > 200_000 {
                continue;
            }
            let mut solver = IncrementalSolver::new(tree, lib.clone());
            // Deterministic per-net script; no library swaps (the oracle
            // enumerates against `lib`).
            let script = EditScriptSpec {
                edits: 6,
                locality: 1.0,
                seed: 7 + b as u64,
                swap_library_every: 0,
            }
            .generate(solver.tree());
            for (k, edit) in script.iter().enumerate() {
                solver
                    .apply(edit)
                    .unwrap_or_else(|e| panic!("{name} edit {k}: {e}"));
                // Unblocks can grow the domain past the brute-force guard.
                if (lib.len() + 1).pow(solver.tree().buffer_site_count() as u32) > 200_000 {
                    continue;
                }
                let (true_best, _) = brute_force(solver.tree(), &lib, 0, DelayModel::Elmore);
                let sol = solver.solve();
                assert!(
                    (sol.slack.picos() - true_best).abs() < 1e-6,
                    "{name} b={b} edit {k} (`{edit}`): incremental {} vs brute force {}",
                    sol.slack.picos(),
                    true_best
                );
                let measured = sol
                    .verify(solver.tree(), &lib)
                    .unwrap_or_else(|e| panic!("{name} edit {k}: {e}"));
                assert!((measured.picos() - true_best).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn permanent_pruning_stays_within_oracle_bound() {
    let lib = tiny_library(3);
    for (name, tree) in tiny_nets() {
        if (lib.len() + 1).pow(tree.buffer_site_count() as u32) > 200_000 {
            continue;
        }
        let (true_best, _) = brute_force(&tree, &lib, 0, DelayModel::Elmore);
        let perm = Solver::new(&tree, &lib)
            .algorithm(Algorithm::LiShiPermanent)
            .solve();
        assert!(
            perm.slack.picos() <= true_best + 1e-6,
            "{name}: permanent pruning exceeded the true optimum"
        );
    }
}
