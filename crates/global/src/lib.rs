//! Design-level resource-constrained buffering: a Lagrangian pricing loop
//! that allocates a *shared* buffer-site budget across a fleet of nets.
//!
//! The per-net DP (Li & Shi, DATE 2005) solves one net optimally; a chip
//! allocates the same physical buffer sites to many nets at once. Albrecht
//! et al. (arXiv:cs/0508045) show the chip-level problem is tractable as a
//! multicommodity pricing loop, and this crate implements exactly that
//! decomposition:
//!
//! 1. every shared site carries a **price** (seconds of slack charged for
//!    inserting a buffer there);
//! 2. each net is re-solved *optimally* against current prices — the
//!    priced subproblem stays exact because a per-node price folds into
//!    the DP as extra intrinsic delay
//!    ([`SolverOptions::site_prices`](fastbuf_core::SolverOptions));
//! 3. per-site usage is measured against a [`SiteCapacityMap`], and
//!    overused sites get their prices raised by a deterministic
//!    subgradient schedule;
//! 4. repeat until no site is over capacity (or an iteration cap).
//!
//! Re-pricing a site is a *localized* edit: between iterations each net
//! keeps a warm per-net cache
//! ([`IncrementalSolver`](fastbuf_incremental::IncrementalSolver)), so an
//! iteration only pays for the nets whose site prices actually changed —
//! and within those, only the changed nodes' root paths.
//!
//! Results are **bit-identical at every worker count and across warm vs
//! scratch inner solves**: nets are independent given the price vector,
//! usage aggregation and price updates run in fixed net/site order on the
//! coordinating thread, and the step schedule is a closed form of the
//! iteration index (`tests/global_equivalence.rs` pins all of this).
//!
//! # Quick start
//!
//! ```
//! use fastbuf_buflib::BufferLibrary;
//! use fastbuf_global::{GlobalNet, GlobalSolver, SiteCapacityMap};
//! use fastbuf_netgen::SharedSuiteSpec;
//!
//! let spec = SharedSuiteSpec::default();
//! let fleet: Vec<GlobalNet> = spec
//!     .build()
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, net)| GlobalNet::new(format!("shared/{i}"), net.tree, net.site_of))
//!     .collect();
//! let lib = BufferLibrary::paper_synthetic(8)?;
//! let capacity = SiteCapacityMap::uniform(spec.pool_sites, 2);
//!
//! let outcome = GlobalSolver::new(fleet, lib, capacity).solve()?;
//! assert!(outcome.report.feasible);
//! for site in &outcome.report.utilization {
//!     assert!(site.usage <= site.capacity);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

use fastbuf_incremental::EcoError;
use fastbuf_rctree::RoutingTree;

mod report;
mod solver;

pub use report::{GlobalReport, IterationRow, SiteUse};
pub use solver::{GlobalOptions, GlobalOutcome, GlobalSolver};

/// Capacities of the shared physical buffer sites, indexed by site id
/// `0..sites`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteCapacityMap {
    caps: Vec<u32>,
}

impl SiteCapacityMap {
    /// A pool of `sites` sites, every one with the same `capacity`.
    pub fn uniform(sites: u32, capacity: u32) -> Self {
        SiteCapacityMap {
            caps: vec![capacity; sites as usize],
        }
    }

    /// A pool of `sites` sites with `default` capacity, overridden by
    /// `(site, capacity)` pairs — the shape `fastbuf_netgen::parse_capacity`
    /// returns (netgen is not a dependency of this crate, so no link).
    ///
    /// # Errors
    ///
    /// [`GlobalError::UnknownSite`] when a pair names a site `>= sites`.
    pub fn from_pairs(sites: u32, default: u32, pairs: &[(u32, u32)]) -> Result<Self, GlobalError> {
        let mut map = SiteCapacityMap::uniform(sites, default);
        for &(site, cap) in pairs {
            if site >= sites {
                return Err(GlobalError::UnknownSite {
                    net: None,
                    site,
                    pool: sites,
                });
            }
            map.caps[site as usize] = cap;
        }
        Ok(map)
    }

    /// Number of sites in the pool.
    pub fn sites(&self) -> u32 {
        self.caps.len() as u32
    }

    /// Capacity of one site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn capacity(&self, site: u32) -> u32 {
        self.caps[site as usize]
    }

    /// Sum of all capacities.
    pub fn total(&self) -> u64 {
        self.caps.iter().map(|&c| c as u64).sum()
    }

    /// The capacities as a slice, indexed by site id.
    pub fn as_slice(&self) -> &[u32] {
        &self.caps
    }
}

/// One net of the fleet: a routing tree plus its node→shared-site mapping.
#[derive(Clone, Debug)]
pub struct GlobalNet {
    /// Display name (report rows, JSON).
    pub name: String,
    /// The net's routing tree.
    pub tree: RoutingTree,
    /// `site_of[node.index()]` = the shared site id the node occupies, or
    /// `None` for unmapped nodes. Must be exactly `tree.node_count()`
    /// long; mapped ids must lie inside the capacity pool. Mappings on
    /// nodes that are not buffer sites are inert (the DP never places
    /// buffers there).
    pub site_of: Vec<Option<u32>>,
}

impl GlobalNet {
    /// Bundles a tree with its shared-site mapping.
    pub fn new(name: impl Into<String>, tree: RoutingTree, site_of: Vec<Option<u32>>) -> Self {
        GlobalNet {
            name: name.into(),
            tree,
            site_of,
        }
    }
}

/// Errors from [`GlobalSolver::solve`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum GlobalError {
    /// The fleet has no nets.
    EmptyFleet,
    /// A net's `site_of` length does not match its tree's node count.
    SiteMapLength {
        /// Fleet index of the offending net.
        net: usize,
        /// `tree.node_count()`.
        expected: usize,
        /// `site_of.len()`.
        got: usize,
    },
    /// A mapping (or capacity override) names a site outside the pool.
    UnknownSite {
        /// Fleet index of the offending net (`None` for capacity files).
        net: Option<usize>,
        /// The out-of-range site id.
        site: u32,
        /// The pool size it must be below.
        pool: u32,
    },
    /// The options are unusable (`max_iters == 0`, a non-positive step,
    /// or `growth < 1`).
    InvalidOptions(String),
    /// A price push into a per-net solver was rejected — unreachable for
    /// validated fleets, surfaced rather than panicked on.
    Eco(EcoError),
}

impl fmt::Display for GlobalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalError::EmptyFleet => write!(f, "the fleet has no nets"),
            GlobalError::SiteMapLength { net, expected, got } => write!(
                f,
                "net {net}: site map has {got} entries but the tree has {expected} nodes"
            ),
            GlobalError::UnknownSite { net, site, pool } => match net {
                Some(net) => write!(
                    f,
                    "net {net}: site id {site} is outside the pool (0..{pool})"
                ),
                None => write!(f, "site id {site} is outside the pool (0..{pool})"),
            },
            GlobalError::InvalidOptions(msg) => write!(f, "invalid global options: {msg}"),
            GlobalError::Eco(e) => write!(f, "price update rejected: {e}"),
        }
    }
}

impl Error for GlobalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GlobalError::Eco(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EcoError> for GlobalError {
    fn from(e: EcoError) -> Self {
        GlobalError::Eco(e)
    }
}
