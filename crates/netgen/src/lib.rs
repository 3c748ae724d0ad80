//! Synthetic net generators reproducing the workload *shapes* of
//! Li & Shi, DATE 2005.
//!
//! The paper evaluates on three industrial nets (337 / 1944 / 2676 sinks;
//! the 1944-sink net carries 33133 candidate buffer positions) routed in a
//! 180 nm technology with sink capacitances between 2 and 41 fF. Those nets
//! are proprietary, so this crate generates deterministic synthetic stand-ins
//! matched on the published statistics:
//!
//! * [`line_net`] — 2-pin lines with a configurable number of buffer sites
//!   (the textbook van Ginneken workload, used for complexity sweeps);
//! * [`RandomNetSpec`] — random geometric Steiner-style trees at any sink
//!   count, with paper-matched sink loads and technology constants
//!   ([`RandomNetSpec::paper`] presets the three table rows);
//! * [`caterpillar_net`] — a trunk with periodic sink stubs (bus-like);
//! * [`h_tree`] — symmetric clock-style H-trees;
//! * [`SuiteSpec`] — whole *fleets* of nets with a realistic heavy-tailed
//!   size mix, for the batch subsystem and throughput benchmarks;
//! * [`eco`] — typed tree [`Edit`](eco::Edit)s and deterministic
//!   [`EditScriptSpec`](eco::EditScriptSpec) generation for incremental
//!   (ECO) re-solve workloads, plus a text format for edit scripts;
//! * [`variation`] — seeded process-variation families
//!   ([`VariationSpec`]) that expand into
//!   per-sample absolute edit scripts for Monte-Carlo yield solving;
//! * [`shared`] — fleets of nets contending for a *shared* pool of
//!   physical buffer sites ([`SharedSuiteSpec`]), plus the site-capacity
//!   text format, for the design-level pricing loop (`fastbuf-global`);
//! * [`cts`] — 2-D sink placements ([`CtsPlacementSpec`], a text format)
//!   and recursive-bipartition clock topology generation
//!   ([`build_topology`]) for the skew-aware CTS pipeline (`fastbuf cts`).
//!
//! Everything is seeded and deterministic: the same spec always builds the
//! same net, so benchmark tables are reproducible run to run.
//!
//! ```
//! use fastbuf_netgen::RandomNetSpec;
//!
//! let tree = RandomNetSpec::paper(337).build();
//! assert_eq!(tree.sink_count(), 337);
//! assert!(tree.buffer_site_count() > 3000); // paper-scale position density
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod clock;
pub mod cts;
pub mod eco;
mod line;
mod random;
pub mod shared;
mod suite;
pub mod variation;

pub use clock::{caterpillar_net, h_tree, try_caterpillar_net, ClockSpecError, HTreeSpec};
pub use cts::{
    build_topology, parse_placements, write_placements, CtsPlacementSpec, CtsTopology,
    CtsTopologySpec, SinkPlacement, TopologyError,
};
pub use line::{line_net, LineNetSpec};
pub use random::{RandomNetSpec, RatPolicy};
pub use shared::{parse_capacity, write_capacity, SharedNet, SharedSuiteSpec};
pub use suite::{heavy_tailed_sinks, SuiteSpec};
pub use variation::{parse_variation, write_variation, Dist, VariationSpec};

/// The located error of every fastbuf text format, re-exported from
/// [`fastbuf_buflib::text`] where the shared line grammar lives.
pub use fastbuf_buflib::text::LineError;
