//! Property-based tests of the dynamic program.
//!
//! Nets are drawn from the seeded generators (proptest shrinks over the
//! seed/size parameters); libraries over random parameter ranges. The
//! properties are the load-bearing invariants of the reproduction:
//! algorithm agreement, oracle consistency, and the exact algebraic
//! behaviour of slack under RAT shifts.

use proptest::prelude::*;

use fastbuf::netgen::{RandomNetSpec, RatPolicy};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;

fn arb_library() -> impl Strategy<Value = BufferLibrary> {
    (2usize..12, 0u64..1000)
        .prop_map(|(b, seed)| BufferLibrary::paper_synthetic_jittered(b, seed).expect("b >= 2"))
}

fn arb_net() -> impl Strategy<Value = RoutingTree> {
    (1usize..30, 0u64..1000, 80.0f64..600.0).prop_map(|(sinks, seed, pitch)| {
        RandomNetSpec {
            sinks,
            seed,
            die: Microns::new(1500.0 + 40.0 * sinks as f64),
            site_pitch: Some(Microns::new(pitch)),
            ..RandomNetSpec::default()
        }
        .build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: the O(bn²) algorithm loses nothing vs the O(b²n²) scan —
    /// the same root candidate in every bit, and the same placements.
    #[test]
    fn lishi_equals_lillis(tree in arb_net(), lib in arb_library()) {
        let a = Solver::new(&tree, &lib).algorithm(Algorithm::Lillis).solve();
        let b = Solver::new(&tree, &lib).algorithm(Algorithm::LiShi).solve();
        prop_assert_eq!(a.slack.value().to_bits(), b.slack.value().to_bits(),
            "slack: lillis {} vs lishi {}", a.slack, b.slack);
        prop_assert_eq!(a.root_q.value().to_bits(), b.root_q.value().to_bits(),
            "root_q: lillis {} vs lishi {}", a.root_q, b.root_q);
        prop_assert_eq!(a.root_load.value().to_bits(), b.root_load.value().to_bits(),
            "root load: lillis {} vs lishi {}", a.root_load, b.root_load);
        prop_assert_eq!(a.placements, b.placements);
    }

    /// Predicted slack is always achievable: forward Elmore re-evaluation
    /// of the reconstructed placements reproduces it.
    #[test]
    fn solutions_always_verify(tree in arb_net(), lib in arb_library()) {
        for algo in Algorithm::ALL {
            let sol = Solver::new(&tree, &lib).algorithm(algo).solve();
            prop_assert!(sol.verify(&tree, &lib).is_ok(), "{algo} failed verification");
        }
    }

    /// The published permanent pruning never *beats* the exact optimum.
    #[test]
    fn permanent_is_one_sided(tree in arb_net(), lib in arb_library()) {
        let exact = Solver::new(&tree, &lib).algorithm(Algorithm::LiShi).solve();
        let perm = Solver::new(&tree, &lib).algorithm(Algorithm::LiShiPermanent).solve();
        prop_assert!(perm.slack.picos() <= exact.slack.picos() + 1e-6);
    }

    /// Shifting every sink's RAT by δ shifts the optimal slack by exactly δ
    /// (the DP is affine in RAT), and the placements stay optimal.
    #[test]
    fn slack_is_affine_in_rat(
        sinks in 1usize..25,
        seed in 0u64..500,
        delta_ps in -500.0f64..500.0,
        lib in arb_library(),
    ) {
        let mk = |extra: f64| {
            RandomNetSpec {
                sinks,
                seed,
                rat: RatPolicy::Constant(Seconds::from_pico(1000.0 + extra)),
                site_pitch: Some(Microns::new(200.0)),
                ..RandomNetSpec::default()
            }
            .build()
        };
        let base = Solver::new(&mk(0.0), &lib).solve();
        let shifted = Solver::new(&mk(delta_ps), &lib).solve();
        let got = shifted.slack.picos() - base.slack.picos();
        prop_assert!((got - delta_ps).abs() < 1e-6,
            "slack shift {got} != RAT shift {delta_ps}");
        // Identical placements: the optimum's argmax is invariant under a
        // uniform RAT shift (ties could flip, so compare achieved slack).
        prop_assert_eq!(base.placements.len(), shifted.placements.len());
    }

    /// Predecessor tracking changes neither the slack nor any counter
    /// except arena bookkeeping.
    #[test]
    fn tracking_is_observationally_pure(tree in arb_net(), lib in arb_library()) {
        let on = Solver::new(&tree, &lib).solve();
        let off = Solver::new(&tree, &lib).track_predecessors(false).solve();
        prop_assert_eq!(on.slack, off.slack);
        prop_assert_eq!(on.stats.betas_generated, off.stats.betas_generated);
        prop_assert_eq!(on.stats.max_list_len, off.stats.max_list_len);
        prop_assert_eq!(off.stats.arena_entries, 0);
    }

    /// The cost frontier's most expensive point equals the unconstrained
    /// optimum whenever the budget doesn't bind.
    #[test]
    fn frontier_reaches_unconstrained_optimum(
        sinks in 1usize..10,
        seed in 0u64..200,
    ) {
        let lib = BufferLibrary::paper_synthetic(4).expect("b > 0");
        let tree = RandomNetSpec {
            sinks,
            seed,
            site_pitch: Some(Microns::new(400.0)),
            ..RandomNetSpec::default()
        }
        .build();
        // Generous budget: max cost (39) x sites.
        let budget = 40 * tree.buffer_site_count() as u32;
        let frontier = CostSolver::new(&tree, &lib)
            .max_cost(budget.min(400))
            .solve()
            .expect("integer costs");
        let unconstrained = Solver::new(&tree, &lib).solve();
        let best = frontier.points.last().expect("never empty");
        if budget <= 400 {
            prop_assert!((best.slack.picos() - unconstrained.slack.picos()).abs() < 1e-6);
        } else {
            prop_assert!(best.slack.picos() <= unconstrained.slack.picos() + 1e-6);
        }
    }

    /// Net-format round trip preserves the solve result exactly.
    #[test]
    fn io_roundtrip_preserves_optimum(tree in arb_net(), lib in arb_library()) {
        let text = fastbuf::rctree::io::write(&tree);
        let back = fastbuf::rctree::io::parse(&text).expect("own output parses");
        let a = Solver::new(&tree, &lib).solve();
        let b = Solver::new(&back, &lib).solve();
        // The format stores fF/ps, so parasitics may move by one ULP in the
        // F/s <-> fF/ps conversion; allow a matching relative tolerance.
        let tol = 1e-9 * a.slack.picos().abs().max(1e-3);
        prop_assert!((a.slack.picos() - b.slack.picos()).abs() <= tol,
            "{} vs {}", a.slack, b.slack);
        prop_assert_eq!(a.placements.len(), b.placements.len());
    }
}
