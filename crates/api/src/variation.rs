//! Monte-Carlo yield solving ([`Objective::YieldTarget`]).
//!
//! A yield request expands a [`VariationSpec`] into `N` deterministic
//! sampled scenarios and solves every one. The solves route through **one
//! [`IncrementalSolver`] (and therefore one `SubtreeCache`) per worker**:
//! every sample of a family perturbs the same locality-bounded node pool
//! with *absolute* values, so applying sample `k`'s script on top of any
//! previously solved sample reproduces exactly the sample-`k` tree and
//! dirties only the pool's root paths. The cache invariant (cached solve ≡
//! bit-identical scratch solve of the same tree) then makes every sampled
//! result independent of which worker solved it and in what order — which
//! is what lets the sample fan-out scale without losing reproducibility.
//! Because every sample dirties the same root paths, each worker declares
//! them as its cache's footprint before the first solve, and the cache
//! stores only the lists the next sample reads back.
//!
//! The distribution summary is folded in **sample-index order** regardless
//! of completion order ([`summarize_samples`] sorts first): float addition
//! does not commute, and a completion-order fold would make the reported
//! mean depend on thread scheduling.

use std::time::{Duration, Instant};

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{par, SolverOptions};
use fastbuf_incremental::IncrementalSolver;
use fastbuf_netgen::VariationSpec;
use fastbuf_rctree::RoutingTree;

use crate::error::SolveError;

/// One sampled scenario's solve result.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleResult {
    /// The sample index `k` in `0..samples` (also the PRNG stream id:
    /// sample `k` is the same scenario at every worker count).
    pub index: usize,
    /// Source slack of the sampled tree.
    pub slack: Seconds,
    /// Whether the returned solution met the scenario's slew limit.
    pub slew_ok: bool,
    /// Subtrees recomputed by this sample's solve.
    pub nodes_recomputed: u64,
    /// Subtrees reused from the worker's warm cache.
    pub nodes_reused: u64,
}

/// The slack distribution over all samples, folded in fixed order.
#[derive(Clone, Debug, PartialEq)]
pub struct VariationSummary {
    /// Number of samples solved.
    pub samples: usize,
    /// Worst sampled slack.
    pub min_slack: Seconds,
    /// Best sampled slack.
    pub max_slack: Seconds,
    /// Mean sampled slack (folded in sample-index order).
    pub mean_slack: Seconds,
    /// The requested quantile `q` in `[0, 1]`.
    pub quantile: f64,
    /// The `q`-quantile of the slack distribution (nearest-rank on the
    /// ascending order: the slack at least `ceil(q·N)` samples stay at or
    /// below). `q = 0` is the minimum, `q = 1` the maximum.
    pub quantile_slack: Seconds,
    /// Fraction of samples that close timing: slack ≥ 0 **and** the slew
    /// limit (if any) was met.
    pub yield_fraction: f64,
    /// Total subtrees recomputed across all samples.
    pub nodes_recomputed: u64,
    /// Total subtrees reused from warm caches across all samples.
    pub nodes_reused: u64,
}

/// The payload of one scenario of a yield-target request: every sample's
/// result (in sample index order) plus the fixed-order summary.
#[derive(Clone, Debug, PartialEq)]
pub struct VariationOutcome {
    /// The variation family that generated the samples.
    pub spec: VariationSpec,
    /// Per-sample results, sorted by sample index.
    pub samples: Vec<SampleResult>,
    /// The distribution summary.
    pub summary: VariationSummary,
    /// Wall-clock time of the whole sample sweep.
    pub elapsed: Duration,
}

/// Parses a variation file through [`fastbuf_netgen::parse_variation`],
/// lifting its [`LineError`](fastbuf_netgen::LineError)
/// into the typed [`SolveError::VariationParse`].
///
/// # Errors
///
/// [`SolveError::VariationParse`] with the 1-based line of the first
/// problem.
pub fn parse_variation_spec(text: &str) -> Result<VariationSpec, SolveError> {
    fastbuf_netgen::parse_variation(text).map_err(|e| SolveError::VariationParse {
        line: e.line,
        message: e.message,
    })
}

/// Folds per-sample results into a [`VariationSummary`] with a fixed
/// reduction order: samples are sorted by index before any float
/// accumulation, so the summary is bit-identical no matter what order the
/// workers delivered results in. (Float addition does not commute — a
/// completion-order mean would differ in the low bits run to run.)
///
/// # Panics
///
/// Panics on an empty slice or an out-of-range quantile; request
/// validation rejects both before any solve starts.
pub fn summarize_samples(samples: &[SampleResult], quantile: f64) -> VariationSummary {
    assert!(!samples.is_empty(), "summary of zero samples");
    assert!(
        (0.0..=1.0).contains(&quantile),
        "quantile {quantile} outside [0, 1]"
    );
    let mut ordered: Vec<&SampleResult> = samples.iter().collect();
    ordered.sort_by_key(|s| s.index);

    let mut sum = 0.0;
    let mut closed = 0usize;
    let (mut recomputed, mut reused) = (0u64, 0u64);
    for s in &ordered {
        sum += s.slack.value();
        if s.slack.value() >= 0.0 && s.slew_ok {
            closed += 1;
        }
        recomputed += s.nodes_recomputed;
        reused += s.nodes_reused;
    }

    let mut slacks: Vec<f64> = ordered.iter().map(|s| s.slack.value()).collect();
    slacks.sort_by(f64::total_cmp);
    let n = slacks.len();
    // Nearest-rank: the smallest slack with at least ceil(q·N) samples at
    // or below it; q = 0 degenerates to the minimum.
    let rank = ((quantile * n as f64).ceil() as usize).clamp(1, n);
    VariationSummary {
        samples: n,
        min_slack: Seconds::new(slacks[0]),
        max_slack: Seconds::new(slacks[n - 1]),
        mean_slack: Seconds::new(sum / n as f64),
        quantile,
        quantile_slack: Seconds::new(slacks[rank - 1]),
        yield_fraction: closed as f64 / n as f64,
        nodes_recomputed: recomputed,
        nodes_reused: reused,
    }
}

/// Validates the yield-target knobs shared by every entry point.
pub(crate) fn validate_yield(
    spec: &VariationSpec,
    samples: usize,
    quantile: f64,
) -> Result<(), SolveError> {
    if samples == 0 {
        return Err(SolveError::NoSamples);
    }
    // Nearest-rank quantiles are defined on (0, 1]: q = 0 names no rank.
    if !quantile.is_finite() || quantile <= 0.0 || quantile > 1.0 {
        return Err(SolveError::InvalidQuantile { quantile });
    }
    if !spec.is_valid() {
        return Err(SolveError::InvalidVariation(format!(
            "out-of-domain variation spec: {spec:?}"
        )));
    }
    Ok(())
}

/// Solves `samples` sampled scenarios of `spec` over `tree` under the
/// scenario's `options` (its RAT derate included), fanning
/// sample indices across at most `cap` threads with [`par::map`]. Each worker
/// owns one [`IncrementalSolver`] — one warm `SubtreeCache` per sample
/// family — and results come back in sample order, so the outcome is
/// identical for every worker count.
pub(crate) fn solve_variation(
    library: &BufferLibrary,
    tree: &RoutingTree,
    mut options: SolverOptions,
    spec: &VariationSpec,
    samples: usize,
    quantile: f64,
    cap: Option<usize>,
) -> Result<VariationOutcome, SolveError> {
    validate_yield(spec, samples, quantile)?;
    let start = Instant::now();

    // Yield sweeps report slack statistics, not placements.
    options.track_predecessors = false;

    // Every sample's script is expanded up front from the pristine base
    // tree (absolute values); workers only index into the list.
    let scripts = spec.expand(tree, samples);

    // Every script dirties the same root paths, so each worker's cache
    // keeps only the lists of that footprint's frontier. A worker builds
    // its solver on its first sample; the caller builds the first.
    let new_solver = || {
        let mut solver =
            IncrementalSolver::new(tree.clone(), library.clone()).with_options(options.clone());
        let footprint = solver.set_footprint(scripts.iter().flatten());
        (solver, footprint)
    };
    let (first, footprint) = new_solver();
    let workers = par::workers(cap, samples, samples * footprint * library.len());
    let mut solvers: Vec<Option<IncrementalSolver>> = (0..workers).map(|_| None).collect();
    solvers[0] = Some(first);
    let results = par::map(samples, &mut solvers, |solver, k| {
        let solver = solver.get_or_insert_with(|| new_solver().0);
        solver.apply_all(&scripts[k]).map_err(SolveError::Edit)?;
        let solution = solver.solve();
        Ok(SampleResult {
            index: k,
            slack: solution.slack,
            slew_ok: solution.slew_ok,
            nodes_recomputed: solution.stats.nodes_recomputed,
            nodes_reused: solution.stats.nodes_reused,
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, SolveError>>()?;

    let summary = summarize_samples(&results, quantile);
    Ok(VariationOutcome {
        spec: spec.clone(),
        samples: results,
        summary,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: usize, slack_ps: f64, slew_ok: bool) -> SampleResult {
        SampleResult {
            index,
            slack: Seconds::from_pico(slack_ps),
            slew_ok,
            nodes_recomputed: 3,
            nodes_reused: 7,
        }
    }

    /// The regression test satellite #2 asks for: a fold in delivery order
    /// would produce different mean bits for a permuted delivery, and the
    /// summary must not.
    #[test]
    fn summary_is_independent_of_delivery_order() {
        // Magnitudes chosen so the sum depends on order: in index order
        // the 1.0s are absorbed by 1e16 (ulp 2 at that magnitude), in the
        // shuffled order they add first and survive.
        let values = [1.0e16, 1.0, -1.0e16, 1.0];
        let ordered: Vec<SampleResult> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| sample(i, v, true))
            .collect();
        let shuffled: Vec<SampleResult> = [1usize, 3, 0, 2]
            .iter()
            .map(|&i| ordered[i].clone())
            .collect();

        // A naive delivery-order fold really is order-dependent for these
        // inputs — the hazard the fixed order guards against.
        let fold = |xs: &[SampleResult]| xs.iter().fold(0.0f64, |acc, s| acc + s.slack.value());
        assert_ne!(
            fold(&ordered).to_bits(),
            fold(&shuffled).to_bits(),
            "chosen values must expose non-commutative addition"
        );

        let a = summarize_samples(&ordered, 0.5);
        let b = summarize_samples(&shuffled, 0.5);
        assert_eq!(
            a.mean_slack.value().to_bits(),
            b.mean_slack.value().to_bits()
        );
        assert_eq!(a, b);
    }

    #[test]
    fn quantiles_yield_and_extremes() {
        let samples: Vec<SampleResult> = [50.0, -10.0, 30.0, 0.0, -40.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| sample(i, v, true))
            .collect();
        let s = summarize_samples(&samples, 0.5);
        assert_eq!(s.min_slack, Seconds::from_pico(-40.0));
        assert_eq!(s.max_slack, Seconds::from_pico(50.0));
        // Ascending: -40 -10 0 30 50; ceil(0.5*5)=3rd → 0.
        assert_eq!(s.quantile_slack, Seconds::from_pico(0.0));
        // slack >= 0: 0, 30, 50.
        assert!((s.yield_fraction - 0.6).abs() < 1e-12);
        assert_eq!(s.nodes_recomputed, 15);
        assert_eq!(s.nodes_reused, 35);

        // q=0 is the minimum, q=1 the maximum.
        assert_eq!(
            summarize_samples(&samples, 0.0).quantile_slack,
            Seconds::from_pico(-40.0)
        );
        assert_eq!(
            summarize_samples(&samples, 1.0).quantile_slack,
            Seconds::from_pico(50.0)
        );

        // A slew-infeasible sample never counts toward yield even with
        // positive slack.
        let mut infeasible = samples.clone();
        for s in &mut infeasible {
            s.slew_ok = false;
        }
        assert_eq!(summarize_samples(&infeasible, 0.5).yield_fraction, 0.0);
    }

    /// Nearest-rank edge cases: `ceil(q·n)` must never index past the end
    /// (`q = 1.0` names exactly the maximum, not `slacks[n]`), and a
    /// single-sample sweep answers every quantile with that one sample.
    #[test]
    fn nearest_rank_edges_are_in_bounds() {
        let one = vec![sample(0, 17.0, true)];
        for q in [0.0, 1e-12, 0.5, 1.0 - f64::EPSILON, 1.0] {
            let s = summarize_samples(&one, q);
            assert_eq!(s.quantile_slack, Seconds::from_pico(17.0), "q = {q}");
            assert_eq!(s.min_slack, s.max_slack);
        }
        // q = 1.0: ceil(1.0 * n) = n exactly — the last (maximum) element.
        let many: Vec<SampleResult> = (0..7).map(|i| sample(i, i as f64, true)).collect();
        assert_eq!(
            summarize_samples(&many, 1.0).quantile_slack,
            Seconds::from_pico(6.0)
        );
        // Just below 1.0 still rounds up to the last rank for small n.
        assert_eq!(
            summarize_samples(&many, 1.0 - f64::EPSILON).quantile_slack,
            Seconds::from_pico(6.0)
        );
    }

    #[test]
    fn parse_wrapper_produces_typed_line_errors() {
        let err = parse_variation_spec("# ok\nwire-r normal 1.0 NaN\n").unwrap_err();
        match err {
            SolveError::VariationParse { line, ref message } => {
                assert_eq!(line, 2);
                assert!(message.contains("finite"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        let err = parse_variation_spec("# header\nseed 7\nwire-c uniform 2 1\n").unwrap_err();
        assert!(
            matches!(&err, SolveError::VariationParse { line: 3, message } if message == "empty range: 2 > 1"),
            "{err:?}"
        );
        assert!(parse_variation_spec("wire-r normal 1 0.1\n").is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_requests() {
        let spec = VariationSpec::default();
        assert!(matches!(
            validate_yield(&spec, 0, 0.5),
            Err(SolveError::NoSamples)
        ));
        for q in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                validate_yield(&spec, 4, q),
                Err(SolveError::InvalidQuantile { .. })
            ));
        }
        let bad = VariationSpec {
            locality: 0.0,
            ..VariationSpec::default()
        };
        assert!(matches!(
            validate_yield(&bad, 4, 0.5),
            Err(SolveError::InvalidVariation(_))
        ));
        assert!(validate_yield(&spec, 4, 0.5).is_ok());
    }

    /// Above two grains of sample work the sweep fans out (the other
    /// variation tests run on nets too small to), to the same samples.
    #[test]
    fn a_sweep_above_the_grain_fans_out_to_the_same_samples() {
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let tree = fastbuf_netgen::RandomNetSpec {
            sinks: 40,
            seed: 3,
            ..fastbuf_netgen::RandomNetSpec::default()
        }
        .build();
        let spec = VariationSpec::gaussian(0.05, 0.5, 7);
        let samples = 12;
        let mut probe = IncrementalSolver::new(tree.clone(), lib.clone());
        let footprint = probe.set_footprint(spec.expand(&tree, samples).iter().flatten());
        assert_eq!(
            par::workers(Some(2), samples, samples * footprint * lib.len()),
            2
        );
        let sweep = |cap| {
            let options = SolverOptions::default();
            solve_variation(&lib, &tree, options, &spec, samples, 0.5, Some(cap)).unwrap()
        };
        let (one, two) = (sweep(1), sweep(2));
        let slacks = |v: &VariationOutcome| {
            let slacks = v
                .samples
                .iter()
                .map(|s| (s.index, s.slack.value().to_bits()));
            slacks.collect::<Vec<_>>()
        };
        assert_eq!(slacks(&one), slacks(&two));
        assert_eq!(one.summary.mean_slack, two.summary.mean_slack);
        assert_eq!(one.summary.quantile_slack, two.summary.quantile_slack);
    }
}
