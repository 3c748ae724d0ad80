//! Differential proof of the Monte-Carlo machinery's headline guarantee:
//! **every cached sampled solve is bit-identical to a from-scratch solve
//! of the same sampled scenario**, and the reported distribution is a pure
//! function of `(spec, samples, quantile)` — independent of worker count
//! and of the order samples happen to finish in.
//!
//! Three layers:
//! 1. A proptest over random [`VariationSpec`]s × netgen nets: replaying a
//!    sample family through one warm [`IncrementalSolver`] (the cache-reuse
//!    path the API uses) matches both `solve_scratch` of the same state
//!    and a cold solver handed only that sample's script — and the API's
//!    per-sample slacks are those same bits.
//! 2. Byte-identical `VariationOutcome` JSON across 1/2/4 workers.
//! 3. An exhaustive oracle on ≤6-site nets: each sample's DP slack is the
//!    true optimum of that sampled tree under brute-force enumeration.

use proptest::prelude::*;

use fastbuf::api::{parse_variation_spec, wire};
use fastbuf::netgen::{Dist, RandomNetSpec, VariationSpec};
use fastbuf::prelude::*;
use fastbuf::rctree::{elmore, NodeId, RoutingTree};

fn net(sinks: usize, seed: u64) -> RoutingTree {
    RandomNetSpec {
        sinks,
        seed,
        die: Microns::new(1500.0 + 60.0 * sinks as f64),
        site_pitch: Some(Microns::new(260.0)),
        ..RandomNetSpec::default()
    }
    .build()
}

/// A spec with a caller-chosen subset of knobs enabled (bit per knob),
/// so the property space covers wire-only, sink-only, derate-only, and
/// fully mixed families.
fn spec_of(mask: u32, sigma: f64, locality: f64, seed: u64) -> VariationSpec {
    let knob = |bit: u32| {
        if mask & (1 << bit) != 0 {
            Dist::Normal { mean: 1.0, sigma }
        } else {
            Dist::Fixed
        }
    };
    VariationSpec {
        wire_r: knob(0),
        wire_c: knob(1),
        buffer_delay: knob(2),
        buffer_drive: knob(3),
        sink_cap: knob(4),
        rat_derate: knob(5),
        locality,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential property. One warm solver replays the whole
    /// family in order (exactly the API's per-worker path); after each
    /// sample it must match (a) its own scratch solve, and (b) a cold
    /// solver that applied only this sample's script to the pristine
    /// tree — proving scripts are absolute (no cross-sample residue) and
    /// the cache is exact. The API's reported slacks are then those bits.
    #[test]
    fn cached_sample_solves_are_bit_identical_to_scratch(
        sinks in 3usize..14,
        net_seed in 0u64..200,
        mask in 1u32..64,
        sigma in 0.005f64..0.12,
        locality in 0.05f64..1.0,
        spec_seed in 0u64..500,
        samples in 2usize..5,
    ) {
        let tree = net(sinks, net_seed);
        let lib = BufferLibrary::paper_synthetic(6).expect("b > 0");
        let spec = spec_of(mask, sigma, locality, spec_seed);
        prop_assert!(spec.is_valid());
        let scripts = spec.expand(&tree, samples);
        prop_assert_eq!(scripts.len(), samples);

        let mut warm = IncrementalSolver::new(tree.clone(), lib.clone());
        let mut warm_slacks = Vec::new();
        for (k, script) in scripts.iter().enumerate() {
            warm.apply_all(script).expect("sampled edits are valid");
            let inc = warm.solve();
            let scratch = warm.solve_scratch();
            prop_assert_eq!(
                inc.slack.value().to_bits(),
                scratch.slack.value().to_bits(),
                "sample {} diverged from scratch: warm {} vs scratch {}",
                k, inc.slack, scratch.slack
            );
            prop_assert_eq!(inc.slew_ok, scratch.slew_ok, "sample {}", k);

            // Scripts are absolute: a cold solver given only this script
            // lands on the exact same tree and the exact same bits.
            let mut cold = IncrementalSolver::new(tree.clone(), lib.clone());
            cold.apply_all(script).expect("sampled edits are valid");
            let cold_solution = cold.solve_scratch();
            prop_assert_eq!(
                inc.slack.value().to_bits(),
                cold_solution.slack.value().to_bits(),
                "sample {} carries residue from sample {}", k, k.wrapping_sub(1)
            );
            warm_slacks.push(inc.slack.value().to_bits());
        }

        // The API's yield solve reports exactly those bits, per sample.
        let session = Session::new(lib);
        let outcome = session
            .request(&tree)
            .objective(Objective::YieldTarget { samples, quantile: 0.5 })
            .variation(spec)
            .solve()
            .expect("yield solve succeeds");
        let v = outcome.scenarios[0].variation().expect("variation result");
        prop_assert_eq!(v.samples.len(), samples);
        for (k, sample) in v.samples.iter().enumerate() {
            prop_assert_eq!(sample.index, k);
            prop_assert_eq!(
                sample.slack.value().to_bits(),
                warm_slacks[k],
                "API sample {} disagrees with the differential replay", k
            );
        }
    }
}

/// Worker-count independence: the full serialized outcome — per-sample
/// slacks, summary statistics, cache counters — is byte-identical across
/// 1, 2, and 4 workers, for several spec shapes. The summary fold sorts
/// by sample index before touching floats, so completion order (which
/// worker finished first) cannot leak into the JSON. The small nets run
/// inline at every cap (under two `par::GRAIN`s of sample work); the
/// 60-sink net is above them, so its 2- and 4-worker sweeps fan out.
#[test]
fn outcome_json_is_byte_identical_across_worker_counts() {
    let lib = BufferLibrary::paper_synthetic(6).unwrap();
    let session = Session::new(lib.clone());
    let samples = 16;
    for (sinks, net_seed, mask, quantile, fans_out) in [
        (10usize, 3u64, 0b111111u32, 0.5f64, false),
        (14, 17, 0b000011, 0.9, false),
        (7, 8, 0b110100, 0.1, false),
        (60, 5, 0b111111, 0.5, true),
    ] {
        let tree = net(sinks, net_seed);
        let spec = spec_of(mask, 0.08, 0.4, 1000 + net_seed);
        let footprint = IncrementalSolver::new(tree.clone(), lib.clone())
            .set_footprint(spec.expand(&tree, samples).iter().flatten());
        let work = samples * footprint * lib.len();
        assert_eq!(
            fastbuf_core::par::workers(Some(2), samples, work) >= 2,
            fans_out,
            "{sinks} sinks: {work} units of sample work"
        );
        let mut renders = Vec::new();
        for workers in [1usize, 2, 4] {
            let outcome = session
                .request(&tree)
                .objective(Objective::YieldTarget { samples, quantile })
                .variation(spec.clone())
                .workers(workers)
                .solve()
                .unwrap();
            renders.push(
                wire::variation_record(&outcome.scenarios[0], false, true)
                    .unwrap()
                    .to_json(),
            );
        }
        assert_eq!(renders[0], renders[1], "1 vs 2 workers diverged");
        assert_eq!(renders[0], renders[2], "1 vs 4 workers diverged");
    }
}

/// Text round-trip composes with sampling: a spec written and re-parsed
/// produces the identical sample families (same seed, same scripts, same
/// solve bits end to end through the API).
#[test]
fn spec_text_round_trip_preserves_every_sample_bit() {
    let tree = net(9, 42);
    let lib = BufferLibrary::paper_synthetic(5).unwrap();
    let session = Session::new(lib);
    let spec = spec_of(0b101101, 0.06, 0.3, 77);
    let reparsed =
        parse_variation_spec(&fastbuf::netgen::write_variation(&spec)).expect("round-trips");
    let solve = |s: VariationSpec| {
        let outcome = session
            .request(&tree)
            .objective(Objective::YieldTarget {
                samples: 8,
                quantile: 0.5,
            })
            .variation(s)
            .solve()
            .unwrap();
        wire::variation_record(&outcome.scenarios[0], false, true)
            .unwrap()
            .to_json()
    };
    assert_eq!(solve(spec), solve(reparsed));
}

/// Enumerates all `(b+1)^sites` assignments of `tree` and returns the
/// best forward-evaluated slack (the sampled tree carries its wire edits,
/// sink edits, and site derates, and the forward evaluator reads them).
fn brute_force_best(tree: &RoutingTree, lib: &BufferLibrary) -> f64 {
    let sites: Vec<NodeId> = tree.buffer_sites().collect();
    let choices = lib.len() + 1;
    let total = choices.pow(sites.len() as u32);
    assert!(total <= 200_000, "brute force domain too large: {total}");
    let mut best = f64::NEG_INFINITY;
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
        let report = elmore::evaluate(tree, lib, &placements).expect("legal assignment");
        best = best.max(report.slack.picos());
    }
    best
}

/// The oracle: on nets small enough to enumerate, every sample's DP slack
/// is the true optimum of that sample's tree — variation does not merely
/// stay self-consistent, it stays *correct*.
#[test]
fn per_sample_slacks_match_exhaustive_enumeration() {
    let lib = BufferLibrary::paper_synthetic(3).unwrap();
    let session = Session::new(lib.clone());
    let mut nets: Vec<RoutingTree> = vec![fastbuf::netgen::line_net(Microns::new(6_000.0), 4)];
    for seed in 0..10u64 {
        let t = RandomNetSpec {
            sinks: 3 + (seed as usize % 3),
            die: Microns::new(2500.0),
            seed,
            site_pitch: Some(Microns::new(900.0)),
            ..RandomNetSpec::default()
        }
        .build();
        if t.buffer_site_count() <= 6 {
            nets.push(t);
        }
    }
    assert!(nets.len() >= 3, "need a few enumerable nets");

    let samples = 6usize;
    let mut compared = 0usize;
    for (n, tree) in nets.iter().enumerate() {
        let spec = spec_of(0b111111, 0.09, 1.0, 5000 + n as u64);
        let outcome = session
            .request(tree)
            .objective(Objective::YieldTarget {
                samples,
                quantile: 0.5,
            })
            .variation(spec.clone())
            .solve()
            .unwrap();
        let v = outcome.scenarios[0].variation().unwrap();
        let scripts = spec.expand(tree, samples);
        for (k, sample) in v.samples.iter().enumerate() {
            // Materialize sample k's tree and enumerate it.
            let mut solver = IncrementalSolver::new(tree.clone(), lib.clone());
            solver.apply_all(&scripts[k]).unwrap();
            let best = brute_force_best(solver.tree(), &lib);
            assert!(
                (sample.slack.picos() - best).abs() < 1e-6,
                "net {n} sample {k}: DP {} vs brute force {}",
                sample.slack.picos(),
                best
            );
            compared += 1;
        }
    }
    assert!(compared >= 18, "ran only {compared} oracle comparisons");
    println!("oracle-checked {compared} sampled solves");
}
