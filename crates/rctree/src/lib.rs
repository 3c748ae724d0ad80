//! RC routing-tree substrate for the `fastbuf` buffer-insertion toolkit.
//!
//! A net is a rooted tree `T = (V, E)`: the root is the **source** (driven by
//! a [`Driver`](fastbuf_buflib::Driver)), leaves are **sinks** (load
//! capacitance + required arrival time), and internal vertices may be
//! **buffer positions** where the insertion algorithms are allowed to place
//! repeaters. Every edge is a wire with lumped resistance and capacitance
//! under the Elmore delay model:
//!
//! ```text
//! D(e) = R(e) · ( C(e)/2 + C_downstream )
//! ```
//!
//! Contents:
//!
//! * [`RoutingTree`] / [`TreeBuilder`] — validated arena tree with
//!   precomputed post-order, children CSR, and parent wires.
//! * [`elmore`] — a *forward* Elmore/linear-buffer evaluator for a fixed
//!   buffer assignment. It is deliberately independent from the dynamic
//!   programming in `fastbuf-core` so the two can cross-check each other.
//! * [`segment`] — wire segmenting (Alpert & Devgan, DAC 1997) to
//!   create candidate buffer positions along long wires; this is how the
//!   paper's `n` (number of buffer positions) is scaled in Figure 4.
//! * [`io`] — a plain-text net exchange format with parser and writer.
//!
//! # Example: a two-pin net with one buffer site
//!
//! ```
//! use fastbuf_buflib::{Driver, Technology};
//! use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
//! use fastbuf_rctree::{TreeBuilder, Wire};
//!
//! let tech = Technology::tsmc180_like();
//! let mut b = TreeBuilder::new();
//! let src = b.source(Driver::new(Ohms::new(180.0)));
//! let mid = b.buffer_site();
//! let snk = b.sink(Farads::from_femto(10.0), Seconds::from_pico(500.0));
//! b.connect(src, mid, Wire::from_length(&tech, Microns::new(500.0)))?;
//! b.connect(mid, snk, Wire::from_length(&tech, Microns::new(500.0)))?;
//! let tree = b.build()?;
//! assert_eq!(tree.sink_count(), 1);
//! assert_eq!(tree.buffer_site_count(), 1);
//! # Ok::<(), fastbuf_rctree::TreeError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod delay;
pub mod elmore;
mod error;
pub mod io;
mod node;
pub mod segment;
mod stats;
mod tree;

pub use delay::DelayModel;
pub use error::TreeError;
pub use node::{NodeId, NodeKind, SiteConstraint, SiteVariation, Wire};
pub use stats::TreeStats;
pub use tree::{RoutingTree, TreeBuilder};
