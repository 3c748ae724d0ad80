//! Reproducible ECO (engineering-change-order) workloads: typed tree
//! edits, deterministic edit-script generation, and a line-oriented text
//! format for them.
//!
//! An ECO workload is a routing tree plus a *sequence of localized edits* —
//! a wire that got longer after detailed routing, a sink whose required
//! time tightened after STA, a blockage that swallowed a buffer site.
//! `fastbuf-incremental` re-solves such sequences by recomputing only each
//! edit's root path; the generator here produces the scripts those solves
//! (and their differential tests and benchmarks) run on, with the same
//! seed-determinism guarantee as every other generator in this crate: the
//! same spec on the same tree always yields the same script.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastbuf_buflib::text::{self, femto_field, pico_field, Fields};
use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree};

use crate::LineError;

/// One typed, topology-preserving edit of an ECO script.
///
/// Node ids refer to the tree the script is applied to; every variant maps
/// onto one `RoutingTree` mutation (or, for [`Edit::SwapLibrary`], a
/// library replacement that flushes all cached state — see
/// `fastbuf-incremental`).
#[derive(Clone, Debug, PartialEq)]
pub enum Edit {
    /// Re-route the wire from `node` to its parent at a new length (the
    /// applier converts through its technology's per-micron parasitics).
    SetWireLength {
        /// Child endpoint of the edited wire.
        node: NodeId,
        /// New geometric length.
        length: Microns,
    },
    /// Replace sink `node`'s required arrival time.
    SetSinkRat {
        /// The sink.
        node: NodeId,
        /// New required arrival time.
        rat: Seconds,
    },
    /// Replace sink `node`'s load capacitance.
    SetSinkCap {
        /// The sink.
        node: NodeId,
        /// New load capacitance.
        cap: Farads,
    },
    /// Replace the wire from `node` to its parent with absolute lumped
    /// parasitics (no recorded length). This is how sampled process
    /// variation perturbs a wire: the sampler computes absolute `R`/`C`
    /// from the base tree, so applying sample `k`'s script always produces
    /// the same wire regardless of which sample was applied before.
    SetWireRC {
        /// Child endpoint of the edited wire.
        node: NodeId,
        /// New lumped resistance.
        resistance: Ohms,
        /// New lumped capacitance.
        capacitance: Farads,
    },
    /// Set the local process-variation factors at `node`: any buffer
    /// inserted there has its intrinsic delay scaled by `delay_scale` and
    /// its driving resistance by `drive_scale` (see
    /// `RoutingTree::set_site_variation`). `(1.0, 1.0)` restores nominal.
    DerateSite {
        /// The site (inert on nodes where buffering is impossible).
        node: NodeId,
        /// Multiplier on intrinsic delay `K`.
        delay_scale: f64,
        /// Multiplier on driving resistance `R`.
        drive_scale: f64,
    },
    /// Forbid buffering at `node` (a blockage landed on the site).
    BlockSite {
        /// The site to block.
        node: NodeId,
    },
    /// Re-allow any library buffer at internal node `node`.
    UnblockSite {
        /// The site to unblock.
        node: NodeId,
    },
    /// Swap in the deterministic synthetic library
    /// `BufferLibrary::paper_synthetic_jittered(size, jitter)` — a whole-
    /// library change, which invalidates every cached subtree (the
    /// "full flush" edit). Serializable by construction; appliers that
    /// need an arbitrary library call their `swap_library` entry directly.
    SwapLibrary {
        /// Library size `b`.
        size: usize,
        /// Jitter seed (`0` = the plain `paper_synthetic` library).
        jitter: u64,
    },
}

impl std::fmt::Display for Edit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Edit::SetWireLength { node, length } => {
                write!(f, "wire {node} {}", length.value())
            }
            Edit::SetSinkRat { node, rat } => write!(f, "rat {node} {}", pico_field(*rat)),
            Edit::SetSinkCap { node, cap } => write!(f, "cap {node} {}", femto_field(*cap)),
            Edit::SetWireRC {
                node,
                resistance,
                capacitance,
            } => write!(
                f,
                "wirerc {node} {} {}",
                resistance.value(),
                femto_field(*capacitance)
            ),
            Edit::DerateSite {
                node,
                delay_scale,
                drive_scale,
            } => write!(f, "derate {node} {delay_scale} {drive_scale}"),
            Edit::BlockSite { node } => write!(f, "block {node}"),
            Edit::UnblockSite { node } => write!(f, "unblock {node}"),
            Edit::SwapLibrary { size, jitter } => write!(f, "swaplib {size} {jitter}"),
        }
    }
}

/// Serializes a script in the text format [`parse_edits`] reads (one edit
/// per line).
pub fn write_edits(edits: &[Edit]) -> String {
    let mut out = String::new();
    for e in edits {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Parses the line-oriented edit format (`#` comments and blank lines
/// allowed):
///
/// ```text
/// wire n12 1450.5      # new length in microns
/// rat n7 950.25        # new required arrival in ps
/// cap n7 18.5          # new sink load in fF
/// wirerc n12 76.5 118.25   # absolute parasitics: ohms, fF
/// derate n5 1.08 0.96      # buffer delay x1.08, drive x0.96 at n5
/// block n4
/// unblock n4
/// swaplib 16 7         # paper_synthetic_jittered(16, 7)
/// ```
///
/// Capacitance and time fields may also be exact SI values (`2.5e-14F`,
/// `9.5e-10s`), which [`write_edits`] uses where no decimal in fF or ps
/// reads back bit for bit.
///
/// # Errors
///
/// A [`LineError`] naming the 1-based line of the first problem.
pub fn parse_edits(text: &str) -> Result<Vec<Edit>, LineError> {
    let mut edits = Vec::new();
    for mut fields in text::lines(text) {
        let edit = match fields.word("edit")? {
            "wire" => Edit::SetWireLength {
                node: node(&mut fields)?,
                length: Microns::new(fields.finite("length in microns")?),
            },
            "rat" => Edit::SetSinkRat {
                node: node(&mut fields)?,
                rat: fields.picos("required arrival in ps")?,
            },
            "cap" => Edit::SetSinkCap {
                node: node(&mut fields)?,
                cap: fields.femtos("capacitance in fF")?,
            },
            "wirerc" => {
                let node = node(&mut fields)?;
                let ohms = fields.finite("resistance in ohms")?;
                let cap = fields.femtos("capacitance in fF")?;
                if ohms < 0.0 || cap < Farads::ZERO {
                    return Err(fields.error(format!(
                        "wire parasitics must be non-negative, got {ohms} / {}",
                        cap.femtos()
                    )));
                }
                Edit::SetWireRC {
                    node,
                    resistance: Ohms::new(ohms),
                    capacitance: cap,
                }
            }
            "derate" => {
                let node = node(&mut fields)?;
                let delay_scale = fields.finite("delay scale")?;
                let drive_scale = fields.finite("drive scale")?;
                if delay_scale <= 0.0 || drive_scale <= 0.0 {
                    return Err(fields.error(format!(
                        "derate scales must be positive, got {delay_scale} / {drive_scale}"
                    )));
                }
                Edit::DerateSite {
                    node,
                    delay_scale,
                    drive_scale,
                }
            }
            "block" => Edit::BlockSite {
                node: node(&mut fields)?,
            },
            "unblock" => Edit::UnblockSite {
                node: node(&mut fields)?,
            },
            "swaplib" => {
                let size: usize = fields.num("library size")?;
                let jitter = match fields.clone().next() {
                    None => 0,
                    Some(_) => fields.num("jitter seed")?,
                };
                if size == 0 || size > 1024 {
                    return Err(fields.error(format!(
                        "library size must be between 1 and 1024, got {size}"
                    )));
                }
                Edit::SwapLibrary { size, jitter }
            }
            other => {
                return Err(fields.error(format!(
                    "unknown edit `{other}` (expected wire, rat, cap, wirerc, derate, \
                     block, unblock, swaplib)"
                )))
            }
        };
        fields.end()?;
        edits.push(edit);
    }
    Ok(edits)
}

/// The `nN` node argument of an edit.
fn node(fields: &mut Fields) -> Result<NodeId, LineError> {
    let t = fields.word("node (like n12)")?;
    t.strip_prefix('n')
        .and_then(|d| d.parse().ok())
        .map(NodeId::new)
        .ok_or_else(|| fields.error(format!("bad node id `{t}` (expected nN)")))
}

/// Specification of a deterministic random edit script over one tree.
///
/// **Locality** is the knob ECO workloads live and die by: the script only
/// ever touches a pool of `ceil(locality × editable-nodes)` nodes, drawn by
/// a seeded shuffle. At 1% locality almost every subtree stays clean
/// between re-solves (the incremental sweet spot); at 100% the script
/// roams the whole net.
#[derive(Clone, Debug, PartialEq)]
pub struct EditScriptSpec {
    /// Number of edits to generate.
    pub edits: usize,
    /// Fraction `(0, 1]` of editable nodes eligible as edit targets.
    pub locality: f64,
    /// PRNG seed; the same spec on the same tree yields the same script.
    pub seed: u64,
    /// Emit an [`Edit::SwapLibrary`] every this many edits (`0` = never).
    /// Library swaps are the full-flush edit, so scripts exercising cache
    /// invalidation sprinkle them in.
    pub swap_library_every: usize,
}

impl Default for EditScriptSpec {
    fn default() -> Self {
        EditScriptSpec {
            edits: 20,
            locality: 0.1,
            seed: 1,
            swap_library_every: 0,
        }
    }
}

impl EditScriptSpec {
    /// Generates the script against `tree`.
    ///
    /// Wire edits scale the wire's current length by a factor in
    /// `[0.6, 1.6]` (wires without a recorded length are skipped as
    /// targets); RAT edits scale by `[0.7, 1.3]`; capacitance edits by
    /// `[0.5, 2.0]`. Block/unblock edits toggle a site's *scripted* state,
    /// so applying the script in order alternates them meaningfully.
    ///
    /// # Panics
    ///
    /// Panics if `locality` is not in `(0, 1]`.
    pub fn generate(&self, tree: &RoutingTree) -> Vec<Edit> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pool = locality_pool(tree, self.locality, &mut rng);

        // Track the scripted block state so block/unblock alternate.
        let mut blocked: Vec<bool> = tree.node_ids().map(|n| !tree.is_buffer_site(n)).collect();

        let mut edits = Vec::with_capacity(self.edits);
        for k in 0..self.edits {
            if self.swap_library_every > 0 && (k + 1) % self.swap_library_every == 0 {
                edits.push(Edit::SwapLibrary {
                    size: rng.gen_range(2usize..17),
                    jitter: rng.next_u64() >> 32,
                });
                continue;
            }
            if pool.is_empty() {
                break;
            }
            let node = pool[rng.gen_range(0usize..pool.len())];
            let is_sink = tree.kind(node).is_sink();
            let is_internal = tree.kind(node).is_internal();
            let has_length = tree
                .wire_to_parent(node)
                .is_some_and(|w| w.length().is_some());
            // Weighted choice among the kinds this node supports.
            let edit = loop {
                match rng.gen_range(0u32..4) {
                    0 if has_length => {
                        let length = tree
                            .wire_to_parent(node)
                            .and_then(|w| w.length())
                            .expect("has_length checked");
                        let scaled = (length.value() * rng.gen_range(0.6f64..=1.6)).max(1.0);
                        break Edit::SetWireLength {
                            node,
                            length: Microns::new(scaled),
                        };
                    }
                    1 if is_sink => {
                        let NodeKind::Sink {
                            required_arrival, ..
                        } = tree.kind(node)
                        else {
                            unreachable!("is_sink checked")
                        };
                        break Edit::SetSinkRat {
                            node,
                            rat: Seconds::new(
                                required_arrival.value() * rng.gen_range(0.7f64..=1.3),
                            ),
                        };
                    }
                    2 if is_sink => {
                        let NodeKind::Sink { capacitance, .. } = tree.kind(node) else {
                            unreachable!("is_sink checked")
                        };
                        let scaled =
                            (capacitance.value() * rng.gen_range(0.5f64..=2.0)).max(0.1e-15);
                        break Edit::SetSinkCap {
                            node,
                            cap: Farads::new(scaled),
                        };
                    }
                    3 if is_internal => {
                        let b = &mut blocked[node.index()];
                        *b = !*b;
                        break if *b {
                            Edit::BlockSite { node }
                        } else {
                            Edit::UnblockSite { node }
                        };
                    }
                    // Every non-root node is a sink or internal, so at
                    // least one arm above always applies: re-roll until it
                    // lands.
                    _ => continue,
                }
            };
            edits.push(edit);
        }
        edits
    }
}

/// The nodes a seeded edit source may touch: every non-root node, shuffled
/// by a Fisher–Yates pass drawing from `rng`, truncated to the
/// `locality`-sized prefix (at least one node). Callers that keep drawing
/// from `rng` afterwards see the stream advanced past the shuffle.
///
/// # Panics
///
/// Panics if `locality` is not in `(0, 1]`.
pub(crate) fn locality_pool(tree: &RoutingTree, locality: f64, rng: &mut StdRng) -> Vec<NodeId> {
    assert!(
        locality > 0.0 && locality <= 1.0,
        "locality must be in (0, 1], got {locality}"
    );
    let mut pool: Vec<NodeId> = tree
        .node_ids()
        .filter(|&n| tree.parent(n).is_some())
        .collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0usize..i + 1));
    }
    let keep = ((locality * pool.len() as f64).ceil() as usize).clamp(1, pool.len().max(1));
    pool.truncate(keep);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomNetSpec;

    fn tree() -> RoutingTree {
        RandomNetSpec {
            sinks: 12,
            seed: 5,
            ..RandomNetSpec::default()
        }
        .build()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t = tree();
        let spec = EditScriptSpec {
            edits: 30,
            locality: 0.3,
            seed: 9,
            swap_library_every: 7,
        };
        assert_eq!(spec.generate(&t), spec.generate(&t));
        let other = EditScriptSpec { seed: 10, ..spec };
        assert_ne!(other.generate(&t), spec.generate(&t));
    }

    #[test]
    fn locality_bounds_the_touched_nodes() {
        let t = tree();
        let spec = EditScriptSpec {
            edits: 200,
            locality: 0.05,
            seed: 3,
            swap_library_every: 0,
        };
        let edits = spec.generate(&t);
        assert_eq!(edits.len(), 200);
        let editable = t.node_ids().filter(|&n| t.parent(n).is_some()).count();
        let budget = (0.05 * editable as f64).ceil() as usize;
        let mut touched: Vec<NodeId> = edits
            .iter()
            .filter_map(|e| match e {
                Edit::SetWireLength { node, .. }
                | Edit::SetSinkRat { node, .. }
                | Edit::SetSinkCap { node, .. }
                | Edit::SetWireRC { node, .. }
                | Edit::DerateSite { node, .. }
                | Edit::BlockSite { node }
                | Edit::UnblockSite { node } => Some(*node),
                Edit::SwapLibrary { .. } => None,
            })
            .collect();
        touched.sort();
        touched.dedup();
        assert!(
            touched.len() <= budget,
            "{} distinct nodes exceed the locality budget {budget}",
            touched.len()
        );
    }

    #[test]
    fn swap_cadence_and_block_alternation() {
        let t = tree();
        let spec = EditScriptSpec {
            edits: 40,
            locality: 1.0,
            seed: 4,
            swap_library_every: 5,
        };
        let edits = spec.generate(&t);
        let swaps = edits
            .iter()
            .filter(|e| matches!(e, Edit::SwapLibrary { .. }))
            .count();
        assert_eq!(swaps, 8);
        // Per node, block/unblock strictly alternate starting from the
        // tree's actual state.
        let mut blocked: Vec<bool> = t.node_ids().map(|n| !t.is_buffer_site(n)).collect();
        for e in &edits {
            match e {
                Edit::BlockSite { node } => {
                    assert!(!blocked[node.index()], "blocking an already-blocked node");
                    blocked[node.index()] = true;
                }
                Edit::UnblockSite { node } => {
                    assert!(blocked[node.index()], "unblocking an unblocked node");
                    blocked[node.index()] = false;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn text_roundtrip_preserves_scripts() {
        let t = tree();
        let edits = EditScriptSpec {
            edits: 25,
            locality: 0.5,
            seed: 11,
            swap_library_every: 6,
        }
        .generate(&t);
        // Unit fields are written so they read back bit for bit.
        let back = parse_edits(&write_edits(&edits)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{edits:?}"));
    }

    #[test]
    fn parse_reports_line_numbers_and_bad_tokens() {
        assert!(parse_edits("# comment only\n\n").unwrap().is_empty());
        let err = parse_edits("wire n3\n").unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_edits("rat x7 100\n").unwrap_err().to_string();
        assert!(err.contains("bad node id"), "{err}");
        let err = parse_edits("block n1 extra\n").unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
        let err = parse_edits("teleport n1\n").unwrap_err().to_string();
        assert!(err.contains("unknown edit"), "{err}");
        let err = parse_edits("wire n1 oops\n").unwrap_err().to_string();
        assert!(err.contains("bad length"), "{err}");
        let err = parse_edits("cap n1 inf\n").unwrap_err().to_string();
        assert!(err.contains("finite"), "{err}");
        let err = parse_edits("swaplib 0\n").unwrap_err().to_string();
        assert!(err.contains("between 1 and 1024"), "{err}");
        // Sizes parse strictly as integers: no silent truncation, no
        // absurd values reaching the library builder.
        let err = parse_edits("swaplib 2.9\n").unwrap_err().to_string();
        assert!(err.contains("bad library size"), "{err}");
        let err = parse_edits("swaplib 1e300\n").unwrap_err().to_string();
        assert!(err.contains("bad library size"), "{err}");
        let err = parse_edits("swaplib 4096\n").unwrap_err().to_string();
        assert!(err.contains("between 1 and 1024"), "{err}");
        // Variation edits validate their numeric domains at parse.
        let err = parse_edits("derate n1 0 1\n").unwrap_err().to_string();
        assert!(err.contains("positive"), "{err}");
        let err = parse_edits("derate n1 1.1 nan\n").unwrap_err().to_string();
        assert!(err.contains("finite"), "{err}");
        let err = parse_edits("wirerc n1 -3 4\n").unwrap_err().to_string();
        assert!(err.contains("non-negative"), "{err}");
        let ok = parse_edits("wirerc n2 76.5 118.25\nderate n5 1.08 0.96\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert!(matches!(ok[0], Edit::SetWireRC { .. }));
        assert!(
            matches!(ok[1], Edit::DerateSite { node, delay_scale, drive_scale }
                if node == NodeId::new(5) && delay_scale == 1.08 && drive_scale == 0.96)
        );
        // Comments after content are stripped.
        let ok = parse_edits("block n4 # blockage from macro move\n").unwrap();
        assert_eq!(
            ok,
            vec![Edit::BlockSite {
                node: NodeId::new(4)
            }]
        );
    }
}
