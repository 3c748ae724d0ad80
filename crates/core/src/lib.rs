//! Optimal buffer insertion for interconnect delay.
//!
//! This crate implements the dynamic-programming buffer-insertion family on
//! RC routing trees under the Elmore / linear-buffer delay model:
//!
//! * **van Ginneken (ISCAS 1990)** — the classic O(n²) algorithm for one
//!   buffer type (the `b = 1` case of the solvers here);
//! * **Lillis, Cheng & Lin (JSSC 1996)** — the multi-type extension whose
//!   `AddBuffer` scans all `k` candidates for each of the `b` types:
//!   O(b²n²) total ([`Algorithm::Lillis`]);
//! * **Li & Shi (DATE 2005)** — the paper this workspace reproduces: the
//!   candidates that generate new buffered candidates lie on the convex
//!   hull of the `(Q, C)` set, so one Graham scan plus one monotone walk
//!   finds all of them in O(k + b), for O(bn²) total
//!   ([`Algorithm::LiShi`], the default; [`Algorithm::LiShiPermanent`] for
//!   the paper's exact published pruning).
//!
//! The solvers share one DP engine ([`Solver`]) and differ only in the
//! `AddBuffer` operation, so runtime comparisons measure exactly the
//! paper's contribution. A [`CostSolver`](cost::CostSolver) extends the DP
//! to the slack-vs-cost frontier (the "reduce buffer cost" application the
//! paper's conclusion mentions).
//!
//! # Quick start
//!
//! ```
//! use fastbuf_buflib::{BufferLibrary, Driver, Technology};
//! use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
//! use fastbuf_rctree::{TreeBuilder, Wire};
//! use fastbuf_core::Solver;
//!
//! let tech = Technology::tsmc180_like();
//! let lib = BufferLibrary::paper_synthetic(16)?;
//!
//! let mut b = TreeBuilder::new();
//! let src = b.source(Driver::new(Ohms::new(180.0)));
//! let site = b.buffer_site();
//! let sink = b.sink(Farads::from_femto(12.0), Seconds::from_pico(900.0));
//! b.connect(src, site, Wire::from_length(&tech, Microns::new(4000.0)))?;
//! b.connect(site, sink, Wire::from_length(&tech, Microns::new(4000.0)))?;
//! let tree = b.build()?;
//!
//! let solution = Solver::new(&tree, &lib).solve();
//! println!("slack {} using {} buffers", solution.slack, solution.placements.len());
//! solution.verify(&tree, &lib)?; // cross-check against forward Elmore analysis
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod arena;
mod buffering;
mod cache;
mod candidate;
pub mod cost;
mod engine;
mod hull;
#[doc(hidden)]
pub mod oracle;
pub mod par;
pub mod polarity;
pub mod skew;
mod slab;
mod slew;
mod solution;
mod stats;

pub use arena::{PredArena, PredEntry, PredRef};
pub use buffering::Algorithm;
pub use cache::SubtreeCache;
pub use candidate::Candidate;
pub use engine::{SolveWorkspace, Solver, SolverOptions};
// Re-exported so solver users can configure `SolverOptions::delay_model`
// without importing `fastbuf-rctree` directly.
pub use fastbuf_rctree::delay::DelayModel;
pub use skew::{SkewSolution, SkewSolver};
pub use solution::{forward_agrees, Placement, Solution, VerifyError};
pub use stats::SolveStats;
