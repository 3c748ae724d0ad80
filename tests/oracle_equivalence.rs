//! Differential proof that the solver's struct-of-arrays kernel computes
//! exactly what the array-of-structs oracle (`fastbuf_core::oracle`)
//! computes — same slack bits, same root `Q`, load and slew, same
//! placements, same slew verdict — across netgen nets × all algorithms ×
//! slew on/off, and across ECO edit scripts where every cached re-solve
//! is compared with an oracle solve of the edited tree from scratch.
//!
//! Bit-identity (`f64::to_bits`, not approximate equality) is the
//! contract: the oracle is an independent, plain `Vec<Candidate>`
//! implementation of the same floating-point program, so any change to
//! the kernel or the cache that alters one bit fails here.

use proptest::prelude::*;

use fastbuf::incremental::{EditScriptSpec, IncrementalSolver};
use fastbuf::prelude::*;
use fastbuf_core::oracle;

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

fn assert_identical(got: &Solution, expect: &Solution, context: &dyn std::fmt::Display) {
    assert_eq!(
        got.slack.value().to_bits(),
        expect.slack.value().to_bits(),
        "slack diverged {context}: solver {} vs oracle {}",
        got.slack,
        expect.slack
    );
    assert_eq!(
        got.root_q.value().to_bits(),
        expect.root_q.value().to_bits(),
        "root Q diverged {context}"
    );
    assert_eq!(
        got.root_load.value().to_bits(),
        expect.root_load.value().to_bits(),
        "root load diverged {context}"
    );
    assert_eq!(
        got.root_slew.value().to_bits(),
        expect.root_slew.value().to_bits(),
        "root slew diverged {context}"
    );
    assert_eq!(
        got.placements, expect.placements,
        "placements diverged {context}"
    );
    assert_eq!(
        got.slew_ok, expect.slew_ok,
        "slew verdict diverged {context}"
    );
}

fn options(algo: Algorithm, slew: Option<Seconds>) -> SolverOptions {
    let mut options = SolverOptions::default();
    options.algorithm = algo;
    options.slew_limit = slew;
    options
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property: one random net and configuration, and
    /// the solver bit-identical to the oracle solve. Library size, algorithm and slew mode are
    /// part of the sampled space; predecessor tracking is on so
    /// placements are compared too.
    #[test]
    fn solver_is_bit_identical_to_the_oracle(
        sinks in 2usize..40,
        net_seed in 0u64..500,
        pitch in 120.0f64..450.0,
        lib_b in 1usize..12,
        algo_idx in 0usize..3,
        slew_sel in 0u32..2,
    ) {
        let tree = net(sinks, net_seed, pitch);
        let lib = BufferLibrary::paper_synthetic(lib_b).expect("b > 0");
        let algo = Algorithm::ALL[algo_idx];
        let slew = (slew_sel == 1).then(|| Seconds::from_pico(320.0));

        let expect = oracle::solve(&tree, &lib, &options(algo, slew));
        let got = Solver::new(&tree, &lib)
            .with_options(options(algo, slew))
            .solve();
        assert_identical(&got, &expect, &format!("({algo}, slew {slew:?})"));
    }

    /// ECO scripts: an incremental solver replays a random edit script
    /// (library swaps included), and every cached re-solve must equal an
    /// oracle solve of the edited tree from scratch, bit for bit.
    #[test]
    fn cached_re_solves_match_the_oracle_from_scratch(
        sinks in 2usize..24,
        net_seed in 0u64..300,
        edits in 1usize..31,
        script_seed in 0u64..1000,
        algo_idx in 0usize..3,
        slew_sel in 0u32..2,
    ) {
        let tree = net(sinks, net_seed, 220.0);
        let lib = BufferLibrary::paper_synthetic(8).expect("b > 0");
        let algo = Algorithm::ALL[algo_idx];
        let slew = (slew_sel == 1).then(|| Seconds::from_pico(320.0));

        let mut solver =
            IncrementalSolver::new(tree, lib).with_options(options(algo, slew));
        let scratch = |s: &IncrementalSolver| oracle::solve(s.tree(), s.library(), s.options());
        assert_identical(&solver.solve(), &scratch(&solver), &"cold solve");

        let script = EditScriptSpec {
            edits,
            locality: 0.3,
            seed: script_seed,
            swap_library_every: 11,
        }
        .generate(solver.tree());
        for (k, edit) in script.iter().enumerate() {
            solver.apply(edit).expect("generated edits are valid");
            assert_identical(
                &solver.solve(),
                &scratch(&solver),
                &format!("after edit {k} (`{edit}`)"),
            );
        }
    }
}

/// Deterministic heavy case kept outside proptest so `--nocapture` runs
/// show a stable, quotable count: a 24-net suite × 3 algorithms × slew
/// on/off, every configuration compared bit-for-bit against the oracle.
#[test]
fn suite_nets_stay_bit_identical_to_the_oracle() {
    let spec = fastbuf::netgen::SuiteSpec {
        nets: 24,
        max_sinks: 64,
        seed: 41,
        ..fastbuf::netgen::SuiteSpec::default()
    };
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let mut comparisons = 0usize;
    for i in 0..spec.nets {
        let tree = spec.build_net(i);
        for algo in Algorithm::ALL {
            for slew in [None, Some(Seconds::from_pico(350.0))] {
                let expect = oracle::solve(&tree, &lib, &options(algo, slew));
                let got = Solver::new(&tree, &lib)
                    .with_options(options(algo, slew))
                    .solve();
                assert_identical(&got, &expect, &format!("net {i} algo {algo} slew {slew:?}"));
                comparisons += 1;
            }
        }
    }
    assert_eq!(comparisons, 144, "24 nets × 3 algorithms × slew on/off");
    println!("ran {comparisons} solver-vs-oracle comparisons");
}
