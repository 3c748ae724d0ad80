//! Plain-text net exchange format.
//!
//! The format is line-oriented and independent of any external serialization
//! crate, so nets can be produced by scripts and diffed in code review:
//!
//! ```text
//! # anything after '#' is a comment
//! fastbuf-net v1
//! nodes 4
//! node 0 source 180          # driving resistance [intrinsic delay ps]
//! node 1 internal site       # 'site' = any buffer; 'allow 0 2' = subset
//! node 2 sink 10 500         # cap_ff rat_ps
//! node 3 sink 7.5 430
//! edge 0 1 7.6 11.8 len 100  # parent child r_ohms c_ff [len um]
//! edge 1 2 3.8 5.9
//! edge 1 3 3.8 5.9
//! ```
//!
//! Lines follow the shared [`fastbuf_buflib::text`] grammar: `#` comments,
//! integer counts and ids, finite numbers, and fF/ps fields that may also
//! be exact SI values (`2.5e-14F`, `3e-12s`). Node ids must be dense
//! (`0..nodes`), each defined exactly once, and `nodes` may not exceed the
//! file's line count; edges may appear in any order. [`write()`](write())
//! always produces a file [`parse`] accepts, and every number reads back
//! bit for bit: fF/ps fields are written by [`text::femto_field`] /
//! [`text::pico_field`] (round-trip tested). One normalization applies:
//! the bitset universe of an `allow` subset becomes `max id + 1` after
//! parsing; membership semantics are unchanged.

use std::sync::Arc;

use fastbuf_buflib::text::{self, LineError};
use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf_buflib::{BufferTypeId, Driver};

use crate::node::{NodeId, NodeKind, SiteConstraint, Wire};
use crate::tree::{RoutingTree, TreeBuilder};

/// Allow lists name buffer types below this id. A set spans the ids up to
/// its largest, so the bound caps what one `allow` line can allocate; it
/// is far above any library a net is solved against.
const MAX_BUFFER_ID: usize = 4096;

/// Serializes a tree to the text format.
pub fn write(tree: &RoutingTree) -> String {
    let mut out = String::new();
    out.push_str("fastbuf-net v1\n");
    out.push_str(&format!("nodes {}\n", tree.node_count()));
    for node in tree.node_ids() {
        match tree.kind(node) {
            NodeKind::Source { driver } => {
                if driver.intrinsic_delay() == Seconds::ZERO {
                    out.push_str(&format!(
                        "node {} source {}\n",
                        node.index(),
                        driver.resistance().value()
                    ));
                } else {
                    out.push_str(&format!(
                        "node {} source {} {}\n",
                        node.index(),
                        driver.resistance().value(),
                        text::pico_field(driver.intrinsic_delay())
                    ));
                }
            }
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => {
                out.push_str(&format!(
                    "node {} sink {} {}\n",
                    node.index(),
                    text::femto_field(*capacitance),
                    text::pico_field(*required_arrival)
                ));
            }
            NodeKind::Internal => match tree.site_constraint(node) {
                SiteConstraint::NotASite => {
                    out.push_str(&format!("node {} internal\n", node.index()));
                }
                SiteConstraint::AnyBuffer => {
                    out.push_str(&format!("node {} internal site\n", node.index()));
                }
                SiteConstraint::Subset(set) => {
                    out.push_str(&format!("node {} internal allow", node.index()));
                    for id in set.iter() {
                        out.push_str(&format!(" {}", id.index()));
                    }
                    out.push('\n');
                }
            },
        }
    }
    for node in tree.node_ids() {
        if let (Some(parent), Some(wire)) = (tree.parent(node), tree.wire_to_parent(node)) {
            out.push_str(&format!(
                "edge {} {} {} {}",
                parent.index(),
                node.index(),
                wire.resistance().value(),
                text::femto_field(wire.capacitance())
            ));
            if let Some(l) = wire.length() {
                out.push_str(&format!(" len {}", l.value()));
            }
            out.push('\n');
        }
    }
    out
}

/// Parses the text format into a validated [`RoutingTree`].
///
/// # Errors
///
/// A [`LineError`] naming the first offending line; structural problems
/// detected by [`TreeBuilder::build`] are reported on line 0.
pub fn parse(text: &str) -> Result<RoutingTree, LineError> {
    enum Decl {
        Source(Driver),
        Sink(Farads, Seconds),
        Internal(SiteConstraint),
    }

    let mut decls: Option<Vec<Option<Decl>>> = None;
    let mut edges: Vec<(usize, usize, usize, Wire)> = Vec::new(); // (line, parent, child)
    let mut saw_header = false;

    for mut fields in text::lines(text) {
        match fields.word("directive")? {
            "fastbuf-net" => {
                let version = fields.word("format version")?;
                if version != "v1" {
                    return Err(fields.error(format!("unsupported version `{version}`")));
                }
                saw_header = true;
            }
            "nodes" => {
                if decls.is_some() {
                    return Err(fields.error("`nodes` given twice"));
                }
                let n: usize = fields.num("node count")?;
                // Every node needs its own `node` line, so a count beyond
                // the line count is malformed; checking it first bounds
                // the allocation below by the input's size.
                let lines = text.bytes().filter(|&b| b == b'\n').count()
                    + usize::from(!text.ends_with('\n'));
                if n > lines {
                    return Err(
                        fields.error(format!("node count {n} exceeds the file's {lines} lines"))
                    );
                }
                decls = Some((0..n).map(|_| None).collect());
            }
            "node" => {
                let Some(decls) = decls.as_mut() else {
                    return Err(fields.error("`nodes` must precede `node`"));
                };
                let n = decls.len();
                let id: usize = fields.num("node id")?;
                if id >= n {
                    return Err(fields.error(format!("node id {id} out of range (nodes {n})")));
                }
                if decls[id].is_some() {
                    return Err(fields.error(format!("node {id} redefined")));
                }
                let decl = match fields.word("node kind")? {
                    "source" => {
                        let r = Ohms::new(fields.finite("resistance")?);
                        let k = match fields.clone().next() {
                            None => Seconds::ZERO,
                            Some(_) => fields.picos("intrinsic delay")?,
                        };
                        Decl::Source(Driver::new(r).with_intrinsic_delay(k))
                    }
                    "sink" => Decl::Sink(fields.femtos("capacitance")?, fields.picos("rat")?),
                    "internal" => Decl::Internal(match fields.next() {
                        None => SiteConstraint::NotASite,
                        Some("site") => SiteConstraint::AnyBuffer,
                        Some("allow") => {
                            let mut ids = Vec::new();
                            while let Some(t) = fields.next() {
                                let v: usize = fields.parse("buffer id", t)?;
                                if v >= MAX_BUFFER_ID {
                                    return Err(fields.error(format!(
                                        "buffer id {v} out of range (below {MAX_BUFFER_ID})"
                                    )));
                                }
                                ids.push(BufferTypeId::new(v));
                            }
                            SiteConstraint::Subset(Arc::new(ids.into_iter().collect()))
                        }
                        Some(other) => {
                            return Err(
                                fields.error(format!("unknown internal qualifier `{other}`"))
                            );
                        }
                    }),
                    other => return Err(fields.error(format!("unknown node kind `{other}`"))),
                };
                decls[id] = Some(decl);
            }
            "edge" => {
                let parent = fields.num("parent id")?;
                let child = fields.num("child id")?;
                let r = Ohms::new(fields.finite("wire resistance")?);
                let c = fields.femtos("wire capacitance")?;
                let length = match fields.next() {
                    None => None,
                    Some("len") => Some(Microns::new(fields.finite("length")?)),
                    Some(other) => {
                        return Err(fields.error(format!("unexpected token `{other}` on edge")));
                    }
                };
                edges.push((fields.line(), parent, child, Wire::from_parts(r, c, length)));
            }
            other => return Err(fields.error(format!("unknown directive `{other}`"))),
        }
        fields.end()?;
    }

    if !saw_header {
        return Err(LineError::at(0, "missing `fastbuf-net v1` header"));
    }
    let decls = decls.ok_or_else(|| LineError::at(0, "missing `nodes` directive"))?;
    let n = decls.len();
    let mut b = TreeBuilder::with_capacity(n);
    for (id, d) in decls.into_iter().enumerate() {
        match d {
            None => return Err(LineError::at(0, format!("node {id} never defined"))),
            Some(Decl::Source(driver)) => b.source(driver),
            Some(Decl::Sink(c, rat)) => b.sink(c, rat),
            Some(Decl::Internal(con)) => b.internal_with(con),
        };
    }
    for (line, parent, child, wire) in edges {
        if parent >= n || child >= n {
            return Err(LineError::at(line, "edge endpoint out of range"));
        }
        b.connect(NodeId::new(parent), NodeId::new(child), wire)
            .map_err(|e| LineError::at(line, e.to_string()))?;
    }
    b.build().map_err(|e| LineError::at(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::{BufferSet, Technology};

    fn sample() -> RoutingTree {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src =
            b.source(Driver::new(Ohms::new(180.0)).with_intrinsic_delay(Seconds::from_pico(3.0)));
        let tee = b.internal();
        let site = b.buffer_site();
        let mut allowed = BufferSet::empty(4);
        allowed.insert(BufferTypeId::new(0));
        allowed.insert(BufferTypeId::new(2));
        let limited = b.internal_with(SiteConstraint::Subset(Arc::new(allowed)));
        let s1 = b.sink(Farads::from_femto(10.0), Seconds::from_pico(500.0));
        let s2 = b.sink(Farads::from_femto(7.5), Seconds::from_pico(430.0));
        b.connect(src, tee, Wire::from_length(&tech, Microns::new(100.0)))
            .unwrap();
        b.connect(
            tee,
            site,
            Wire::new(Ohms::new(3.8), Farads::from_femto(5.9)),
        )
        .unwrap();
        b.connect(site, s1, Wire::new(Ohms::new(1.0), Farads::from_femto(2.0)))
            .unwrap();
        b.connect(
            tee,
            limited,
            Wire::new(Ohms::new(2.0), Farads::from_femto(3.0)),
        )
        .unwrap();
        b.connect(
            limited,
            s2,
            Wire::new(Ohms::new(1.5), Farads::from_femto(2.5)),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let text = write(&t);
        let back = parse(&text).unwrap();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.sink_count(), t.sink_count());
        assert_eq!(back.buffer_site_count(), t.buffer_site_count());
        for n in t.node_ids() {
            // Unit conversion (F -> fF -> F) may cost one ULP; compare
            // numerically rather than bitwise.
            match (back.kind(n), t.kind(n)) {
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
                    assert!((c1.femtos() - c2.femtos()).abs() < 1e-9, "cap of {n}");
                    assert!((r1.picos() - r2.picos()).abs() < 1e-9, "rat of {n}");
                }
                (a, b) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "kind of {n}"
                ),
            }
            // Subset universes are normalized to max id + 1 by parsing, so
            // compare membership, not representation.
            for b in 0..8 {
                let id = BufferTypeId::new(b);
                assert_eq!(
                    back.site_constraint(n).allows(id),
                    t.site_constraint(n).allows(id),
                    "site of {n} buffer {b}"
                );
            }
            assert_eq!(back.parent(n), t.parent(n), "parent of {n}");
            match (back.wire_to_parent(n), t.wire_to_parent(n)) {
                (Some(a), Some(b)) => {
                    assert!((a.resistance().value() - b.resistance().value()).abs() < 1e-9);
                    assert!((a.capacitance().femtos() - b.capacitance().femtos()).abs() < 1e-9);
                    match (a.length(), b.length()) {
                        (Some(x), Some(y)) => assert!((x.value() - y.value()).abs() < 1e-9),
                        (None, None) => {}
                        other => panic!("length mismatch at {n}: {other:?}"),
                    }
                }
                (None, None) => {}
                other => panic!("wire mismatch at {n}: {other:?}"),
            }
        }
        // Driver intrinsic delay survives.
        assert!((back.driver().intrinsic_delay().picos() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\nfastbuf-net v1\nnodes 2 # trailing\nnode 0 source 100\nnode 1 sink 1 10\nedge 0 1 1 1\n\n";
        let t = parse(text).unwrap();
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let missing_header = "nodes 1\nnode 0 source 1\n";
        assert_eq!(parse(missing_header).unwrap_err().line, 0);

        let bad = "fastbuf-net v1\nnodes 2\nnode 0 source 100\nnode 1 sink x 10\nedge 0 1 1 1\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("bad capacitance"));

        let oob = "fastbuf-net v1\nnodes 1\nnode 0 source 100\nedge 0 5 1 1\n";
        let e = parse(oob).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("out of range"));

        let redef = "fastbuf-net v1\nnodes 2\nnode 0 source 1\nnode 0 source 1\n";
        assert!(parse(redef).unwrap_err().message.contains("redefined"));

        let unknown = "fastbuf-net v1\nnodes 1\nnode 0 widget 1\n";
        assert!(parse(unknown)
            .unwrap_err()
            .message
            .contains("unknown node kind"));

        let undef = "fastbuf-net v1\nnodes 2\nnode 0 source 1\n";
        assert!(parse(undef).unwrap_err().message.contains("never defined"));
    }

    #[test]
    fn structural_errors_surface_from_build() {
        // Two roots: node 1 unreachable.
        let text = "fastbuf-net v1\nnodes 2\nnode 0 source 1\nnode 1 sink 1 1\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("not reachable"), "{e}");
    }

    /// Counts, ids and numbers that used to be cast, truncated or
    /// allocated unchecked each fail on their line.
    #[test]
    fn malformed_numbers_fail_on_their_line() {
        let net = |nodes: &str, body: &str| format!("fastbuf-net v1\nnodes {nodes}\n{body}");
        let ok = "node 0 source 100\nnode 1 sink 1 10\nedge 0 1 1 1\n";
        for (text, line, needle) in [
            (net("1e30", ok), 2, "bad node count `1e30`"),
            (net("99999999999", ok), 2, "exceeds the file's 5 lines"),
            (net("-5", ok), 2, "bad node count"),
            (net("nan", ok), 2, "bad node count"),
            (net("2.7", ok), 2, "bad node count"),
            (
                net("2", "node 0 source nan\n"),
                3,
                "resistance must be finite",
            ),
            (
                net("2", "node 0 source inf\n"),
                3,
                "resistance must be finite",
            ),
            (
                net("2", "node 0 source 1 -inf\n"),
                3,
                "intrinsic delay must be finite",
            ),
            (net("2", "node 1 sink 1 nan\n"), 3, "rat must be finite"),
            (net("2", "node 1.0 sink 1 1\n"), 3, "bad node id"),
            (net("2", "node 0 source 1 2 3\n"), 3, "trailing token `3`"),
            (
                net("2", "node 1 internal allow 99999999999\n"),
                3,
                "out of range",
            ),
            (net("2", "node 1 internal allow -1\n"), 3, "bad buffer id"),
            (
                net("2", "edge 0 1 nan 295\n"),
                3,
                "wire resistance must be finite",
            ),
            (net("2", "edge -1 1 1 1\n"), 3, "bad parent id"),
            (
                net("2", "edge 0 1 1 1 len 1e999\n"),
                3,
                "length must be finite",
            ),
            ("fastbuf-net v2\n".to_owned(), 1, "unsupported version `v2`"),
            (net("2", "nodes 2\n"), 3, "`nodes` given twice"),
        ] {
            let e = parse(&text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn unit_fields_accept_exact_si_values() {
        let text = "fastbuf-net v1\nnodes 2\nnode 0 source 100 3e-12s\n\
                    node 1 sink 2.5e-14F 500\nedge 0 1 1 7.3e-15F\n";
        let t = parse(text).unwrap();
        assert_eq!(t.driver().intrinsic_delay(), Seconds::new(3e-12));
        let NodeKind::Sink { capacitance, .. } = t.kind(NodeId::new(1)) else {
            panic!("node 1 is a sink");
        };
        assert_eq!(capacitance.value(), 2.5e-14);
        assert_eq!(
            t.wire_to_parent(NodeId::new(1))
                .unwrap()
                .capacitance()
                .value(),
            7.3e-15
        );
    }
}
