//! Property-based tests of the substrate layers (units, buffer sets,
//! segmenting, Elmore evaluation, the text formats) — the pieces every
//! solver stands on.

use proptest::prelude::*;

use fastbuf::api::parse_scenarios;
use fastbuf::buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf::buflib::{BufferSet, BufferTypeId};
use fastbuf::netgen::eco::{parse_edits, write_edits};
use fastbuf::netgen::{
    parse_capacity, parse_placements, parse_variation, write_capacity, write_placements,
    write_variation, CtsPlacementSpec, Dist, RandomNetSpec, VariationSpec,
};
use fastbuf::prelude::*;
use fastbuf::rctree::segment::segment_uniform;
use fastbuf::rctree::{elmore, io, Wire};

fn random_net(sinks: usize, seed: u64) -> RoutingTree {
    RandomNetSpec {
        sinks,
        seed,
        site_pitch: Some(Microns::new(300.0)),
        ..RandomNetSpec::default()
    }
    .build()
}

/// `.net` write→parse: structure and every number come back bit for bit.
fn assert_net_round_trip(t: &RoutingTree) {
    let back = io::parse(&io::write(t)).unwrap();
    assert_eq!(back.node_count(), t.node_count());
    let (d1, d2) = (t.driver(), back.driver());
    assert_eq!(
        d1.resistance().value().to_bits(),
        d2.resistance().value().to_bits()
    );
    let (k1, k2) = (d1.intrinsic_delay().value(), d2.intrinsic_delay().value());
    assert_eq!(k1.to_bits(), k2.to_bits(), "intrinsic delay {k1} -> {k2}");
    for n in t.node_ids() {
        assert_eq!(back.parent(n), t.parent(n), "parent of {n}");
        let (s1, s2) = (t.site_constraint(n), back.site_constraint(n));
        assert_eq!(format!("{s1:?}"), format!("{s2:?}"), "site of {n}");
        match (t.kind(n), back.kind(n)) {
            (
                NodeKind::Sink {
                    capacitance: c1,
                    required_arrival: r1,
                },
                NodeKind::Sink {
                    capacitance: c2,
                    required_arrival: r2,
                },
            ) => {
                assert_eq!(c1.value().to_bits(), c2.value().to_bits(), "cap of {n}");
                assert_eq!(r1.value().to_bits(), r2.value().to_bits(), "rat of {n}");
            }
            (a, b) => assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b)),
        }
        match (t.wire_to_parent(n), back.wire_to_parent(n)) {
            (Some(a), Some(b)) => {
                let (r1, r2) = (a.resistance().value(), b.resistance().value());
                assert_eq!(r1.to_bits(), r2.to_bits(), "wire r of {n}");
                assert_eq!(format!("{:?}", a.length()), format!("{:?}", b.length()));
                let (c1, c2) = (a.capacitance().value(), b.capacitance().value());
                assert_eq!(c1.to_bits(), c2.to_bits(), "wire c of {n}: {c1} -> {c2}");
            }
            (a, b) => assert_eq!(a.is_none(), b.is_none(), "wire of {n}"),
        }
    }
}

/// One malformed variant of `text`: on one non-comment line, a token
/// replaced by a non-finite, huge, negative or garbage value, a token
/// dropped, or the line truncated.
fn mutate(text: &str, pick: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let live: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].split('#').next().unwrap().trim().is_empty())
        .collect();
    let (i, pick) = (live[pick as usize % live.len()], pick / live.len() as u64);
    let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
    let (t, pick) = (pick as usize % tokens.len(), pick / tokens.len() as u64);
    let line = &lines[i];
    lines[i] = match pick % 7 {
        k @ 0..=4 => {
            tokens[t] = ["nan", "inf", "1e30", "-1", "x!y"][k as usize];
            tokens.join(" ")
        }
        5 => {
            tokens.remove(t);
            tokens.join(" ")
        }
        _ => {
            let cut = (pick / 7) as usize % (line.len() + 1);
            line[..line.floor_char_boundary(cut)].to_owned()
        }
    };
    lines.join("\n")
}

/// The line a format's reader blames for `text`, if it rejects it and the
/// error is one that carries a line.
fn rejected_line(format: usize, text: &str) -> Option<usize> {
    let line = |r: Result<(), fastbuf::netgen::LineError>| r.err().map(|e| e.line);
    match format {
        0 => line(io::parse(text).map(drop)),
        1 => line(BufferLibrary::from_text(text).map(drop)),
        2 => line(parse_edits(text).map(drop)),
        3 => line(parse_variation(text).map(drop)),
        4 => line(parse_placements(text).map(drop)),
        5 => line(parse_capacity(text).map(drop)),
        _ => match parse_scenarios(text) {
            Err(SolveError::ScenarioParse { line, .. }) => Some(line),
            _ => None,
        },
    }
}

/// A valid text of format `format` (the numbering of [`rejected_line`]),
/// from its writer where the format has one.
fn valid_text(format: usize, seed: u64) -> String {
    let tree = random_net(1 + seed as usize % 6, seed);
    match format {
        0 => io::write(&tree),
        1 => BufferLibrary::paper_synthetic_jittered(1 + seed as usize % 5, seed)
            .unwrap()
            .to_text(),
        2 => write_edits(
            &EditScriptSpec {
                edits: 8,
                locality: 1.0,
                seed,
                swap_library_every: 3,
            }
            .generate(&tree),
        ),
        3 => write_variation(&VariationSpec::gaussian(0.05, 0.1, seed)),
        4 => write_placements(
            &CtsPlacementSpec {
                sinks: 4,
                seed,
                ..CtsPlacementSpec::default()
            }
            .generate(),
        ),
        5 => write_capacity(&[(0, 2), (7, 1), (3, 4)]),
        _ => "typical\nslow derate=0.9 slew-limit-ps=250\nfast model=scaled-elmore algo=lillis\n"
            .to_owned(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RC products commute and scale linearly.
    #[test]
    fn unit_algebra(r in 0.0f64..1e5, c in 0.0f64..1e-9, k in 1.0f64..100.0) {
        let rc1 = Ohms::new(r) * Farads::new(c);
        let rc2 = Farads::new(c) * Ohms::new(r);
        prop_assert_eq!(rc1, rc2);
        let scaled = Ohms::new(r * k) * Farads::new(c);
        prop_assert!((scaled.value() - rc1.value() * k).abs() <= 1e-12 * scaled.value().abs().max(1e-30));
        // Sub then add is identity.
        let t = Seconds::new(rc1.value());
        prop_assert_eq!(t + Seconds::ZERO, t);
        prop_assert_eq!(t - Seconds::ZERO, t);
    }

    /// Engineering display round-trips through the magnitude (no panics,
    /// correct sign).
    #[test]
    fn unit_display_never_panics(v in -1e12f64..1e12) {
        let s = format!("{}", Seconds::new(v));
        prop_assert!(!s.is_empty());
        if v < 0.0 {
            prop_assert!(s.starts_with('-'));
        }
    }

    /// BufferSet behaves like a set of indices.
    #[test]
    fn bufferset_laws(mut ids in prop::collection::vec(0usize..200, 0..40)) {
        let universe = 200;
        let mut set = BufferSet::empty(universe);
        for &i in &ids {
            set.insert(BufferTypeId::new(i));
        }
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(set.len(), ids.len());
        let got: Vec<usize> = set.iter().map(|id| id.index()).collect();
        prop_assert_eq!(&got, &ids);
        for &i in &ids {
            prop_assert!(set.contains(BufferTypeId::new(i)));
            set.remove(BufferTypeId::new(i));
            prop_assert!(!set.contains(BufferTypeId::new(i)));
        }
        prop_assert!(set.is_empty());
    }

    /// Splitting a wire into k parts preserves total parasitics.
    #[test]
    fn wire_split_conserves_parasitics(
        r in 0.01f64..1e4,
        c in 1e-18f64..1e-10,
        pieces in 1usize..40,
    ) {
        let w = Wire::new(Ohms::new(r), Farads::new(c));
        let part = w.split(pieces);
        let total_r = part.resistance().value() * pieces as f64;
        let total_c = part.capacitance().value() * pieces as f64;
        prop_assert!((total_r - r).abs() <= 1e-9 * r);
        prop_assert!((total_c - c).abs() <= 1e-9 * c);
    }

    /// In the half-capacitance lumped Elmore model, path delay is *exactly*
    /// invariant under wire splitting: a segment contributes
    /// `R_e·(C_e/2 + downstream)`, and splitting conserves both the total
    /// R·C/2 self-term along a path and every through-term. Segmenting
    /// therefore changes which *buffered* solutions exist, but never the
    /// unbuffered slack.
    #[test]
    fn segmenting_preserves_unbuffered_elmore_exactly(
        sinks in 1usize..20,
        seed in 0u64..300,
    ) {
        let base = RandomNetSpec {
            sinks,
            seed,
            site_pitch: None,
            ..RandomNetSpec::default()
        }
        .build();
        let lib = fastbuf::buflib::BufferLibrary::empty();
        let reference = elmore::evaluate(&base, &lib, &[]).unwrap().slack.picos();
        for pieces in [2usize, 4, 8] {
            let t = segment_uniform(&base, pieces).unwrap().tree;
            let slack = elmore::evaluate(&t, &lib, &[]).unwrap().slack.picos();
            prop_assert!(
                (slack - reference).abs() <= 1e-6 * reference.abs().max(1.0),
                "pieces={pieces}: slack {slack} != {reference}"
            );
        }
    }

    /// The forward evaluator is a pure function: same inputs, same report.
    #[test]
    fn evaluation_is_deterministic(sinks in 1usize..15, seed in 0u64..200) {
        let tree = RandomNetSpec {
            sinks,
            seed,
            site_pitch: Some(Microns::new(300.0)),
            ..RandomNetSpec::default()
        }
        .build();
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let sol = Solver::new(&tree, &lib).solve();
        let a = elmore::evaluate(&tree, &lib, &sol.placement_pairs()).unwrap();
        let b = elmore::evaluate(&tree, &lib, &sol.placement_pairs()).unwrap();
        prop_assert_eq!(a.slack, b.slack);
        prop_assert_eq!(a.root_load, b.root_load);
        prop_assert_eq!(a.critical_sink, b.critical_sink);
    }

    /// Net statistics are consistent with each other.
    #[test]
    fn tree_stats_self_consistent(sinks in 1usize..25, seed in 0u64..200) {
        let tree = RandomNetSpec {
            sinks,
            seed,
            ..RandomNetSpec::default()
        }
        .build();
        let stats = tree.stats();
        prop_assert_eq!(stats.nodes, stats.sinks + stats.internals + 1); // +1 source
        prop_assert_eq!(stats.edges, stats.nodes - 1);
        prop_assert!(stats.buffer_sites <= stats.internals);
        prop_assert!(stats.max_depth < stats.nodes);
        prop_assert_eq!(stats.sinks, tree.sinks().count());
        prop_assert_eq!(stats.buffer_sites, tree.buffer_sites().count());
    }

    /// Every format with a writer reads its own output back to the same
    /// values: bit for bit, except the `.net` unit fields (see
    /// [`assert_net_round_trip`]).
    #[test]
    fn written_text_reads_back_bit_for_bit(
        seed in 0u64..10_000,
        b in 1usize..6,
        (shape, x, y) in (0usize..3, 0.5f64..1.5, 0.0f64..0.6),
        (slew, max_load, locality) in (0.0f64..40.0, 0.0f64..300.0, 0.001f64..1.0),
        capacities in prop::collection::vec((0u32..500, 0u32..9), 0..12),
    ) {
        let tree = random_net(1 + (seed % 12) as usize, seed);
        assert_net_round_trip(&tree);

        let jittered = BufferLibrary::paper_synthetic_jittered(b, seed).unwrap();
        let lib = BufferLibrary::new(
            jittered
                .iter()
                .map(|(id, buf)| match id.index() % 3 {
                    0 => buf.clone().with_output_slew(Seconds::from_pico(slew)),
                    1 => buf.clone().with_max_load(Farads::from_femto(max_load)).with_inverting(true),
                    _ => buf.clone().with_cost(x),
                })
                .collect(),
        )
        .unwrap();
        let back = BufferLibrary::from_text(&lib.to_text()).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{lib:?}"));

        let edits = EditScriptSpec { edits: 20, locality, seed, swap_library_every: 5 }.generate(&tree);
        let back = parse_edits(&write_edits(&edits)).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{edits:?}"));

        let dist = |k: usize| match (shape + k) % 3 {
            0 => Dist::Fixed,
            1 => Dist::Normal { mean: x, sigma: y },
            _ => Dist::Uniform { lo: x, hi: x + y },
        };
        let spec = VariationSpec {
            wire_r: dist(0),
            wire_c: dist(1),
            buffer_delay: dist(2),
            buffer_drive: dist(3),
            sink_cap: dist(4),
            rat_derate: dist(5),
            locality,
            seed,
        };
        let back = parse_variation(&write_variation(&spec)).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{spec:?}"));

        let placements = CtsPlacementSpec { sinks: b * 3, seed, ..CtsPlacementSpec::default() }.generate();
        let back = parse_placements(&write_placements(&placements)).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{placements:?}"));

        let mut pairs = capacities;
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.dedup_by_key(|&mut (id, _)| id);
        prop_assert_eq!(parse_capacity(&write_capacity(&pairs)).unwrap(), pairs);
    }

    /// A mutated valid input, in any of the seven formats, never panics or
    /// aborts the reader, and a rejection names a line of the text (or 0).
    #[test]
    fn mutated_text_is_rejected_on_a_line_never_panics(
        format in 0usize..7,
        seed in 0u64..10_000,
        pick in 0u64..1_000_000_000,
    ) {
        let text = mutate(&valid_text(format, seed), pick);
        if let Some(line) = rejected_line(format, &text) {
            prop_assert!(line <= text.lines().count(), "{format}: line {line} of {text:?}");
        }
    }
}
