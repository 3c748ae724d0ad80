//! Batch-vs-sequential equivalence and cross-worker-count determinism.
//!
//! These are the contract tests of the batch subsystem: fanning nets over
//! a worker pool (with per-worker reusable workspaces) must change *only*
//! the wall time, never a single bit of any result.

use fastbuf_batch::{BatchReport, BatchSolver};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::RoutingTree;

fn suite(nets: usize, seed: u64) -> Vec<RoutingTree> {
    SuiteSpec {
        nets,
        seed,
        max_sinks: 96,
        ..SuiteSpec::default()
    }
    .build()
}

fn assert_reports_identical(a: &BatchReport, b: &BatchReport) {
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.index, y.index);
        assert_eq!(x.slack, y.slack, "net {}", x.index);
        assert_eq!(x.slack_before, y.slack_before, "net {}", x.index);
        assert_eq!(x.placements, y.placements, "net {}", x.index);
        assert_eq!(x.cost, y.cost, "net {}", x.index);
        assert_eq!(x.slew_before, y.slew_before, "net {}", x.index);
        assert_eq!(x.max_slew, y.max_slew, "net {}", x.index);
        assert_eq!(x.slew_ok, y.slew_ok, "net {}", x.index);
    }
    assert_eq!(a.wns_after, b.wns_after);
    assert_eq!(a.tns_after, b.tns_after);
    assert_eq!(a.total_buffers, b.total_buffers);
    assert_eq!(a.worst_slew, b.worst_slew);
    assert_eq!(a.slew_violations, b.slew_violations);
}

#[test]
fn batch_matches_sequential_single_net_solves() {
    let nets = suite(30, 1);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let report = BatchSolver::new(&nets, &lib).workers(4).solve();
    assert_eq!(report.outcomes.len(), nets.len());
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(outcome.index, i, "outcomes must be in input order");
        let solo = Solver::new(&nets[i], &lib).solve();
        assert_eq!(outcome.slack, solo.slack, "net {i}");
        assert_eq!(outcome.placements, solo.placements, "net {i}");
        assert_eq!(outcome.cost, solo.total_cost(&lib), "net {i}");
        // And every reconstruction survives the independent Elmore check.
        solo.verify(&nets[i], &lib).unwrap();
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let nets = suite(24, 9);
    let lib = BufferLibrary::paper_synthetic(16).unwrap();
    let base = BatchSolver::new(&nets, &lib).workers(1).solve();
    assert_eq!(base.workers, 1);
    for workers in [2usize, 3, 4, 8] {
        let parallel = BatchSolver::new(&nets, &lib).workers(workers).solve();
        assert!(parallel.workers >= 1 && parallel.workers <= workers);
        assert_reports_identical(&base, &parallel);
    }
}

#[test]
fn report_aggregates_consistently() {
    let nets = suite(10, 42);
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let report = BatchSolver::new(&nets, &lib).solve();
    assert_eq!(report.outcomes.len(), nets.len());
    assert!(report.wns_after >= report.wns_before);
    assert!(report.tns_after >= report.tns_before);
    let placed: usize = report.outcomes.iter().map(|o| o.placements.len()).sum();
    assert_eq!(placed, report.total_buffers);
    for o in &report.outcomes {
        assert!(o.slack >= o.slack_before, "net {}", o.index);
    }
}

#[test]
fn slew_limit_counts_violations_and_only_costs_slack() {
    use fastbuf_buflib::units::Seconds;
    let nets = suite(10, 42);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let unconstrained = BatchSolver::new(&nets, &lib).solve();
    assert_eq!(unconstrained.slew_violations, 0);
    let constrained = BatchSolver::new(&nets, &lib)
        .slew_limit(Seconds::from_pico(150.0))
        .solve();
    assert_eq!(constrained.outcomes.len(), nets.len());
    assert_eq!(
        constrained.slew_violations,
        constrained.outcomes.iter().filter(|o| !o.slew_ok).count()
    );
    // Tightening a constraint can only cost slack.
    assert!(constrained.wns_after.value() <= unconstrained.wns_after.value() + 1e-15);
}

#[test]
fn all_algorithms_run_through_the_batch_path() {
    let nets = suite(10, 3);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let exact = BatchSolver::new(&nets, &lib)
        .algorithm(Algorithm::Lillis)
        .workers(2)
        .solve();
    let fast = BatchSolver::new(&nets, &lib)
        .algorithm(Algorithm::LiShi)
        .workers(2)
        .solve();
    for (a, b) in exact.outcomes.iter().zip(&fast.outcomes) {
        assert!(
            (a.slack.picos() - b.slack.picos()).abs() < 1e-6,
            "net {}: exact algorithms disagree",
            a.index
        );
    }
    // The published permanent pruning may lose slack but must never win.
    let permanent = BatchSolver::new(&nets, &lib)
        .algorithm(Algorithm::LiShiPermanent)
        .workers(2)
        .solve();
    for (a, p) in exact.outcomes.iter().zip(&permanent.outcomes) {
        assert!(p.slack.picos() <= a.slack.picos() + 1e-6, "net {}", a.index);
    }
}

#[test]
fn untracked_batch_skips_placements_but_keeps_slacks() {
    let nets = suite(8, 5);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let tracked = BatchSolver::new(&nets, &lib).workers(2).solve();
    let untracked = BatchSolver::new(&nets, &lib)
        .workers(2)
        .track_predecessors(false)
        .solve();
    for (t, u) in tracked.outcomes.iter().zip(&untracked.outcomes) {
        assert_eq!(t.slack, u.slack);
        assert!(u.placements.is_empty());
    }
    assert_eq!(untracked.total_buffers, 0);
}

#[test]
fn report_json_is_wellformed_and_ordered() {
    let nets = suite(5, 2);
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let report = BatchSolver::new(&nets, &lib).workers(2).solve();
    let names: Vec<String> = (0..nets.len())
        .map(|i| format!("suite/{i:03}.net"))
        .collect();
    let json = report.to_json(Some(&names), true);
    assert!(json.contains("\"nets\": 5"));
    assert!(json.contains("\"net\": \"suite/000.net\""));
    assert!(json.contains("\"placements\": ["));
    // Balanced braces/brackets (cheap well-formedness check; the format is
    // flat enough that counting suffices).
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces"
    );
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // Results appear in input order.
    let pos: Vec<usize> = (0..5)
        .map(|i| json.find(&format!("\"index\": {i},")).unwrap())
        .collect();
    assert!(pos.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn single_net_batch_works() {
    let nets = suite(1, 77);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let report = BatchSolver::new(&nets, &lib).workers(8).solve();
    assert_eq!(report.workers, 1, "workers are capped at the net count");
    assert_eq!(report.outcomes.len(), 1);
}

#[test]
fn empty_batch_is_empty_report() {
    let nets: Vec<RoutingTree> = Vec::new();
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let report = BatchSolver::new(&nets, &lib).solve();
    assert!(report.outcomes.is_empty());
    assert_eq!(report.total_buffers, 0);
}

#[test]
fn slew_constrained_batch_matches_sequential_and_reports_slews() {
    use fastbuf_buflib::units::Seconds;
    let nets = suite(16, 4);
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let limit = Seconds::from_pico(250.0);
    let report = BatchSolver::new(&nets, &lib)
        .workers(3)
        .slew_limit(limit)
        .solve();
    assert_eq!(report.slew_limit, Some(limit));
    assert_eq!(report.delay_model, "elmore");
    for (i, o) in report.outcomes.iter().enumerate() {
        let solo = Solver::new(&nets[i], &lib).slew_limit(limit).solve();
        assert_eq!(o.slack, solo.slack, "net {i}");
        assert_eq!(o.placements, solo.placements, "net {i}");
        assert_eq!(o.slew_ok, solo.slew_ok, "net {i}");
        // The reported slew is the forward-evaluated ground truth and must
        // honour the limit whenever the net is feasible.
        if o.slew_ok {
            assert!(
                o.max_slew.value() <= limit.value() * (1.0 + 1e-9),
                "net {i}: {} over {}",
                o.max_slew,
                limit
            );
        }
        assert!(o.slew_before >= Seconds::ZERO);
    }
    assert_eq!(
        report.slew_violations,
        report.outcomes.iter().filter(|o| !o.slew_ok).count()
    );
    // The JSON report carries the slew columns.
    let json = report.to_json(None, false);
    for key in [
        "\"slew_limit_ps\"",
        "\"worst_slew_ps\"",
        "\"slew_violations\"",
        "\"max_slew_ps\"",
        "\"slew_ok\"",
        "\"delay_model\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn scaled_model_batch_is_deterministic_across_workers() {
    use fastbuf_core::ScaledElmoreModel;
    use std::sync::Arc;
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    // 12 nets are under two `par::GRAIN`s and run inline at every cap;
    // 48 nets are above them, so the 4-worker side fans out.
    for (count, fans_out) in [(12, false), (48, true)] {
        let nets = suite(count, 8);
        let mk = |workers| {
            BatchSolver::new(&nets, &lib)
                .workers(workers)
                .delay_model(Arc::new(ScaledElmoreModel::default()))
                .solve()
        };
        let a = mk(1);
        let b = mk(4);
        assert_eq!(a.delay_model, "scaled-elmore");
        assert_eq!(
            b.workers >= 2,
            fans_out,
            "{count} nets: {} workers",
            b.workers
        );
        assert_reports_identical(&a, &b);
    }
}

/// Regression: a pathological (non-positive) slew limit must keep the
/// legacy best-effort contract through the api-routed path — every net
/// reports `slew_ok = false`, nothing panics, and the sequential solver
/// agrees bit for bit.
#[test]
fn non_positive_slew_limit_is_best_effort_not_a_panic() {
    use fastbuf_buflib::units::Seconds;
    let nets = suite(6, 5);
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let limit = Seconds::from_pico(-1.0);
    let report = BatchSolver::new(&nets, &lib)
        .workers(2)
        .slew_limit(limit)
        .solve();
    assert_eq!(report.slew_violations, nets.len());
    for o in &report.outcomes {
        assert!(!o.slew_ok);
        let solo = Solver::new(&nets[o.index], &lib).slew_limit(limit).solve();
        assert_eq!(o.slack, solo.slack);
        assert_eq!(o.placements, solo.placements);
    }
}
