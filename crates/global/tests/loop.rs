//! Integration tests of the pricing loop's dynamics on generated
//! shared-site fleets (the cross-worker/warm-vs-scratch bit-identity and
//! oracle tests live at the workspace root in `tests/global_equivalence.rs`).

use fastbuf_buflib::BufferLibrary;
use fastbuf_global::{GlobalError, GlobalNet, GlobalSolver, SiteCapacityMap};
use fastbuf_netgen::SharedSuiteSpec;

fn fleet(spec: &SharedSuiteSpec) -> Vec<GlobalNet> {
    spec.build()
        .into_iter()
        .enumerate()
        .map(|(i, net)| GlobalNet::new(format!("shared/{i}"), net.tree, net.site_of))
        .collect()
}

fn lib() -> BufferLibrary {
    BufferLibrary::paper_synthetic(8).expect("paper synthetic library")
}

#[test]
fn contended_fleet_starts_infeasible_and_converges() {
    let spec = SharedSuiteSpec::default();
    let outcome = GlobalSolver::new(
        fleet(&spec),
        lib(),
        SiteCapacityMap::uniform(spec.pool_sites, 1),
    )
    .solve()
    .expect("valid fleet");
    let report = &outcome.report;
    assert!(report.feasible, "loop must converge: {}", report.summary());
    assert!(
        report.history[0].sites_overused > 0,
        "the default fleet must actually be contended at zero prices \
         (otherwise the loop tests nothing): {}",
        report.summary()
    );
    assert!(report.iterations >= 2);
    // Capacity is respected site by site.
    for u in &report.utilization {
        assert!(u.usage <= u.capacity, "site {} overused", u.site);
    }
    // Warm caches: later iterations re-solve only re-priced nets.
    assert!(
        report.total_resolved < (report.iterations * report.nets) as u64 || report.iterations == 1,
        "warm loop should skip nets whose prices never changed: {} inner \
         solves over {} iterations x {} nets",
        report.total_resolved,
        report.iterations,
        report.nets
    );
    // Every net still has a solution and the report's totals match them.
    assert_eq!(outcome.solutions.len(), report.nets);
    let buffers: usize = outcome.solutions.iter().map(|s| s.placements.len()).sum();
    assert_eq!(buffers, report.total_buffers);
}

#[test]
fn ample_capacity_finishes_in_one_iteration() {
    let spec = SharedSuiteSpec::default();
    let outcome = GlobalSolver::new(
        fleet(&spec),
        lib(),
        SiteCapacityMap::uniform(
            spec.pool_sites,
            spec.nets as u32 * spec.sites_per_net as u32,
        ),
    )
    .solve()
    .expect("valid fleet");
    assert!(outcome.report.feasible);
    assert_eq!(outcome.report.iterations, 1);
    assert!(outcome
        .report
        .utilization
        .iter()
        .all(|u| u.price.value() == 0.0));
}

#[test]
fn zero_capacity_everywhere_prices_out_every_buffer() {
    // With zero capacity, feasibility means *no* buffers on shared sites at
    // all; prices must grow past the full buffering benefit of every net.
    // All sites are shared here, so the final solutions are unbuffered.
    let spec = SharedSuiteSpec {
        nets: 3,
        ..SharedSuiteSpec::default()
    };
    let outcome = GlobalSolver::new(
        fleet(&spec),
        lib(),
        SiteCapacityMap::uniform(spec.pool_sites, 0),
    )
    .solve()
    .expect("valid fleet");
    assert!(
        outcome.report.feasible,
        "the growing step schedule must eventually price everything out: {}",
        outcome.report.summary()
    );
    assert_eq!(outcome.report.total_buffers, 0);
}

#[test]
fn iteration_cap_reports_infeasible_without_error() {
    let spec = SharedSuiteSpec::default();
    let outcome = GlobalSolver::new(
        fleet(&spec),
        lib(),
        SiteCapacityMap::uniform(spec.pool_sites, 1),
    )
    .max_iters(1)
    .solve()
    .expect("hitting the cap is not an error");
    assert!(!outcome.report.feasible);
    assert_eq!(outcome.report.iterations, 1);
    assert!(outcome.report.history[0].total_overuse > 0);
}

#[test]
fn degenerate_inputs_return_typed_errors() {
    let spec = SharedSuiteSpec::default();
    let cap = SiteCapacityMap::uniform(spec.pool_sites, 2);

    assert_eq!(
        GlobalSolver::new(Vec::new(), lib(), cap.clone())
            .solve()
            .unwrap_err(),
        GlobalError::EmptyFleet
    );

    let mut short = fleet(&spec);
    short[2].site_of.pop();
    match GlobalSolver::new(short, lib(), cap.clone())
        .solve()
        .unwrap_err()
    {
        GlobalError::SiteMapLength { net: 2, .. } => {}
        other => panic!("expected SiteMapLength for net 2, got {other:?}"),
    }

    let mut wild = fleet(&spec);
    let idx = wild[1].site_of.iter().position(Option::is_some).unwrap();
    wild[1].site_of[idx] = Some(spec.pool_sites + 7);
    match GlobalSolver::new(wild, lib(), cap.clone())
        .solve()
        .unwrap_err()
    {
        GlobalError::UnknownSite {
            net: Some(1), site, ..
        } => {
            assert_eq!(site, spec.pool_sites + 7)
        }
        other => panic!("expected UnknownSite for net 1, got {other:?}"),
    }

    assert!(matches!(
        GlobalSolver::new(fleet(&spec), lib(), cap.clone())
            .max_iters(0)
            .solve()
            .unwrap_err(),
        GlobalError::InvalidOptions(_)
    ));

    assert!(matches!(
        SiteCapacityMap::from_pairs(4, 1, &[(9, 2)]).unwrap_err(),
        GlobalError::UnknownSite {
            net: None,
            site: 9,
            pool: 4
        }
    ));
}

#[test]
fn a_fleet_above_the_grain_fans_out_to_the_same_outcome() {
    // Long enough nets that the first round's work spans two grains, so
    // a cap of 2 runs the parallel path.
    let spec = SharedSuiteSpec {
        nets: 24,
        sites_per_net: 48,
        pool_sites: 96,
        ..SharedSuiteSpec::default()
    };
    let work: usize = fleet(&spec).iter().map(|n| n.tree.node_count()).sum();
    assert_eq!(
        fastbuf_core::par::workers(Some(2), spec.nets, work * lib().len()),
        2
    );
    let solve = |workers| {
        GlobalSolver::new(
            fleet(&spec),
            lib(),
            SiteCapacityMap::uniform(spec.pool_sites, 1),
        )
        .max_iters(6)
        .workers(workers)
        .solve()
        .expect("valid fleet")
    };
    let (one, two) = (solve(1), solve(2));
    assert_eq!(one.report.history, two.report.history);
    assert_eq!(one.report.utilization, two.report.utilization);
    let bits = |o: &fastbuf_global::GlobalOutcome| {
        o.solutions
            .iter()
            .map(|s| (s.slack.value().to_bits(), s.placements.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&one), bits(&two));
}
