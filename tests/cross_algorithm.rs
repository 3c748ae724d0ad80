//! Cross-algorithm agreement: the O(b²n²) Lillis baseline and the O(bn²)
//! Li–Shi algorithm must find the *identical* optimal slack on every
//! topology (Theorem 1 of the paper), and every reconstructed solution must
//! survive independent forward Elmore re-evaluation.

use fastbuf::netgen::{caterpillar_net, h_tree, line_net, RandomNetSpec};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;

fn families() -> Vec<(String, RoutingTree)> {
    let mut nets = Vec::new();
    for sites in [0usize, 1, 5, 25] {
        nets.push((
            format!("line/{sites}"),
            line_net(Microns::new(9000.0), sites),
        ));
    }
    nets.push((
        "caterpillar/24".into(),
        caterpillar_net(24, Microns::new(350.0), Microns::new(30.0)),
    ));
    nets.push(("htree/2".into(), h_tree(2)));
    nets.push(("htree/3".into(), h_tree(3)));
    for seed in 0..6u64 {
        let sinks = 12 + 11 * seed as usize;
        nets.push((
            format!("random/{seed}"),
            RandomNetSpec {
                sinks,
                seed,
                site_pitch: Some(Microns::new(120.0)),
                ..RandomNetSpec::default()
            }
            .build(),
        ));
    }
    nets
}

/// Theorem 1 in bits: Li–Shi selects the same root candidate as Lillis —
/// slack, `root_q` and root load equal bit for bit — and the same
/// placements and slew verdict.
fn assert_same_bits(what: &str, lillis: &Solution, lishi: &Solution) {
    let bits = |s: &Solution| {
        [
            s.slack.value().to_bits(),
            s.root_q.value().to_bits(),
            s.root_load.value().to_bits(),
        ]
    };
    assert_eq!(
        bits(lillis),
        bits(lishi),
        "{what}: lillis slack {} vs lishi {}",
        lillis.slack,
        lishi.slack
    );
    assert_eq!(lillis.placements, lishi.placements, "{what}: placements");
    assert_eq!(lillis.slew_ok, lishi.slew_ok, "{what}: slew verdict");
}

/// The odd types of `paper_synthetic(16)` with a 60 fF load limit.
fn load_limited_library() -> BufferLibrary {
    let base = BufferLibrary::paper_synthetic(16).unwrap();
    BufferLibrary::new(
        base.iter()
            .map(|(id, b)| match id.index() % 2 {
                1 => b.clone().with_max_load(Farads::from_femto(60.0)),
                _ => b.clone(),
            })
            .collect(),
    )
    .unwrap()
}

/// Lillis scans every type at every site, so it is the independent check
/// of Li–Shi's rule under limits: walk the hull, re-scan only the types
/// whose walked α is illegal. Every library meets a slew ladder, and one
/// library is load-limited; the load-limited library and every rung at
/// 200 ps or below must send some Li–Shi solve through that repair, or
/// the ladder tests nothing.
#[test]
fn lillis_and_lishi_agree_everywhere_and_verify() {
    let mut libs: Vec<(String, BufferLibrary)> = [1usize, 2, 8, 17]
        .into_iter()
        .map(|b| {
            let lib = BufferLibrary::paper_synthetic_jittered(b, 3).unwrap();
            (format!("b={b}"), lib)
        })
        .collect();
    libs.push(("load-limited b=16".into(), load_limited_library()));
    for (lib_name, lib) in &libs {
        for limit_ps in [f64::INFINITY, 800.0, 200.0, 50.0] {
            let mut repairs = 0;
            for (name, tree) in families() {
                let what = format!("{name} {lib_name} limit={limit_ps} ps");
                let solve = |algo| {
                    let mut solver = Solver::new(&tree, lib).algorithm(algo);
                    if limit_ps.is_finite() {
                        solver = solver.slew_limit(Seconds::from_pico(limit_ps));
                    }
                    solver.solve()
                };
                let lillis = solve(Algorithm::Lillis);
                let lishi = solve(Algorithm::LiShi);
                assert_same_bits(&what, &lillis, &lishi);
                repairs += lishi.stats.scan_candidate_visits;
                lillis
                    .verify(&tree, lib)
                    .unwrap_or_else(|e| panic!("{what}: lillis verification failed: {e}"));
                lishi
                    .verify(&tree, lib)
                    .unwrap_or_else(|e| panic!("{what}: lishi verification failed: {e}"));
            }
            let load_limited = lib.iter().any(|(_, b)| b.max_load().is_some());
            let what = format!("{lib_name} limit={limit_ps} ps: {repairs} scan visits");
            if limit_ps.is_infinite() && !load_limited {
                assert_eq!(repairs, 0, "{what}");
            }
            if limit_ps <= 200.0 || load_limited {
                assert!(repairs > 0, "{what}");
            }
        }
    }
}

#[test]
fn permanent_pruning_never_beats_the_exact_optimum() {
    let lib = BufferLibrary::paper_synthetic(16).unwrap();
    for (name, tree) in families() {
        let exact = Solver::new(&tree, &lib).algorithm(Algorithm::LiShi).solve();
        let perm = Solver::new(&tree, &lib)
            .algorithm(Algorithm::LiShiPermanent)
            .solve();
        assert!(
            perm.slack.picos() <= exact.slack.picos() + 1e-6,
            "{name}: permanent {} beats exact {} — impossible",
            perm.slack,
            exact.slack
        );
        // Whatever it returns must still be a *real*, achievable solution.
        perm.verify(&tree, &lib)
            .unwrap_or_else(|e| panic!("{name}: permanent verification failed: {e}"));
    }
}

#[test]
fn permanent_pruning_is_exact_on_two_pin_nets() {
    let lib = BufferLibrary::paper_synthetic(32).unwrap();
    for sites in [1usize, 7, 31, 63] {
        let tree = line_net(Microns::new(12_000.0), sites);
        let exact = Solver::new(&tree, &lib).algorithm(Algorithm::LiShi).solve();
        let perm = Solver::new(&tree, &lib)
            .algorithm(Algorithm::LiShiPermanent)
            .solve();
        assert!(
            (perm.slack.picos() - exact.slack.picos()).abs() < 1e-6,
            "sites={sites}: 2-pin permanent pruning must be loss-free"
        );
    }
}

#[test]
fn larger_library_never_hurts_when_nested() {
    // Nested libraries (prefixes of one generator) can only improve slack.
    let full = BufferLibrary::paper_synthetic(16).unwrap();
    let tree = RandomNetSpec {
        sinks: 40,
        seed: 5,
        ..RandomNetSpec::default()
    }
    .build();
    let mut last = f64::NEG_INFINITY;
    for b in [1usize, 2, 4, 8, 16] {
        let ids: Vec<_> = full.ids().take(b).collect();
        let sub = full.subset(&ids).unwrap();
        let slack = Solver::new(&tree, &sub).solve().slack.picos();
        assert!(
            slack >= last - 1e-9,
            "slack must be monotone in nested library size: b={b}: {slack} < {last}"
        );
        last = slack;
    }
}

#[test]
fn more_buffer_sites_never_hurt() {
    use fastbuf::rctree::segment::segment_uniform;
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let base = RandomNetSpec {
        sinks: 30,
        seed: 11,
        site_pitch: None,
        ..RandomNetSpec::default()
    }
    .build();
    let mut last = f64::NEG_INFINITY;
    for pieces in [1usize, 2, 4] {
        let tree = segment_uniform(&base, pieces).unwrap().tree;
        let slack = Solver::new(&tree, &lib).solve().slack.picos();
        assert!(
            slack >= last - 1e-9,
            "pieces={pieces}: refining sites must not lose slack ({slack} < {last})"
        );
        last = slack;
    }
}

#[test]
fn algorithms_agree_under_subset_site_constraints() {
    use fastbuf::rctree::segment::segment_uniform;
    use std::sync::Arc;

    let lib = BufferLibrary::paper_synthetic(6).unwrap();
    let base = RandomNetSpec {
        sinks: 18,
        seed: 3,
        site_pitch: None,
        ..RandomNetSpec::default()
    }
    .build();
    let seg = segment_uniform(&base, 3).unwrap().tree;

    // Rebuild with varied constraints: every third site only allows the two
    // weakest types, every fifth is disabled entirely.
    let mut b = TreeBuilder::new();
    for node in seg.node_ids() {
        match seg.kind(node) {
            NodeKind::Source { driver } => {
                b.source(*driver);
            }
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => {
                b.sink(*capacitance, *required_arrival);
            }
            NodeKind::Internal => {
                let idx = node.index();
                let constraint = if !seg.is_buffer_site(node) || idx % 5 == 0 {
                    SiteConstraint::NotASite
                } else if idx % 3 == 0 {
                    let mut set = BufferSet::empty(lib.len());
                    set.insert(BufferTypeId::new(0));
                    set.insert(BufferTypeId::new(1));
                    SiteConstraint::Subset(Arc::new(set))
                } else {
                    SiteConstraint::AnyBuffer
                };
                b.internal_with(constraint);
            }
        }
    }
    for node in seg.node_ids() {
        if let (Some(p), Some(w)) = (seg.parent(node), seg.wire_to_parent(node)) {
            b.connect(p, node, *w).unwrap();
        }
    }
    let tree = b.build().unwrap();

    let lillis = Solver::new(&tree, &lib)
        .algorithm(Algorithm::Lillis)
        .solve();
    let lishi = Solver::new(&tree, &lib).algorithm(Algorithm::LiShi).solve();
    assert_same_bits("constrained", &lillis, &lishi);
    lishi.verify(&tree, &lib).unwrap();
    // No placement may violate its site constraint (verify checks this too,
    // but assert explicitly for clarity).
    for p in &lishi.placements {
        assert!(tree.site_constraint(p.node).allows(p.buffer));
    }
}
