//! Convergence reporting for the pricing loop.

use std::time::Duration;

use fastbuf_api::wire::Json;
use fastbuf_buflib::units::Seconds;

/// Final state of one shared site (only sites that saw usage, carry a
/// price, or have zero capacity are reported — idle unconstrained sites
/// are noise).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteUse {
    /// Shared site id.
    pub site: u32,
    /// Buffers placed on the site in the final solutions.
    pub usage: u32,
    /// The site's capacity.
    pub capacity: u32,
    /// The site's final Lagrangian price.
    pub price: Seconds,
}

/// One row of the iteration history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRow {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Nets re-solved this iteration (all of them on iteration 0; after
    /// that only nets whose mapped prices changed).
    pub nets_resolved: usize,
    /// Sites over capacity after this iteration's solves.
    pub sites_overused: usize,
    /// Total units of overuse across all sites.
    pub total_overuse: u64,
    /// Largest price in the vector entering this iteration's solves.
    pub max_price: Seconds,
}

/// What the pricing loop did: convergence, utilization, and history.
#[derive(Clone, Debug)]
pub struct GlobalReport {
    /// `true` when the final solutions respect every site capacity.
    pub feasible: bool,
    /// Iterations actually run (≤ `max_iters`).
    pub iterations: usize,
    /// Fleet size.
    pub nets: usize,
    /// Shared-site pool size.
    pub pool_sites: u32,
    /// Worker threads used for the inner solves.
    pub workers: usize,
    /// Whether per-net caches stayed warm across iterations.
    pub warm: bool,
    /// Buffers placed across the fleet in the final solutions.
    pub total_buffers: usize,
    /// Inner solves summed over all iterations (the warm-cache win shows
    /// up here: later iterations re-solve only re-priced nets).
    pub total_resolved: u64,
    /// Sum of final per-net slacks.
    pub total_slack: Seconds,
    /// Worst final per-net slack.
    pub worst_slack: Seconds,
    /// Final per-site state (see [`SiteUse`] for which sites appear).
    pub utilization: Vec<SiteUse>,
    /// One row per iteration.
    pub history: Vec<IterationRow>,
    /// Wall-clock time of the whole loop.
    pub elapsed: Duration,
}

impl GlobalReport {
    /// Serializes the report as JSON, printed by [`Json::to_pretty`].
    pub fn to_json(&self) -> String {
        let utilization = self
            .utilization
            .iter()
            .map(|u| {
                Json::obj([
                    ("site", u.site.into()),
                    ("usage", u.usage.into()),
                    ("capacity", u.capacity.into()),
                    ("price_ps", u.price.picos().into()),
                ])
            })
            .collect();
        let history = self
            .history
            .iter()
            .map(|row| {
                Json::obj([
                    ("iter", row.iter.into()),
                    ("nets_resolved", row.nets_resolved.into()),
                    ("sites_overused", row.sites_overused.into()),
                    ("total_overuse", row.total_overuse.into()),
                    ("max_price_ps", row.max_price.picos().into()),
                ])
            })
            .collect();
        Json::obj([
            ("feasible", self.feasible.into()),
            ("iterations", self.iterations.into()),
            ("nets", self.nets.into()),
            ("pool_sites", self.pool_sites.into()),
            ("workers", self.workers.into()),
            ("warm", self.warm.into()),
            ("total_buffers", self.total_buffers.into()),
            ("total_resolved", self.total_resolved.into()),
            ("total_slack_ps", self.total_slack.picos().into()),
            ("worst_slack_ps", self.worst_slack.picos().into()),
            ("elapsed_ms", (self.elapsed.as_secs_f64() * 1e3).into()),
            ("utilization", utilization),
            ("history", history),
        ])
        .to_pretty()
    }

    /// A one-paragraph human summary for CLI text output.
    pub fn summary(&self) -> String {
        let verdict = if self.feasible {
            "feasible".to_owned()
        } else {
            let still: u64 = self
                .history
                .last()
                .map(|row| row.total_overuse)
                .unwrap_or(0);
            format!("NOT feasible ({still} units of overuse remain)")
        };
        format!(
            "{} after {} iteration(s): {} nets over {} shared sites, \
             {} buffers placed, {} inner solves total, worst slack {} ps, \
             total slack {} ps",
            verdict,
            self.iterations,
            self.nets,
            self.pool_sites,
            self.total_buffers,
            self.total_resolved,
            fmt_ps(self.worst_slack.picos()),
            fmt_ps(self.total_slack.picos()),
        )
    }
}

/// Compact human formatting for picosecond quantities in [`GlobalReport::summary`].
fn fmt_ps(ps: f64) -> String {
    if ps.abs() >= 100.0 {
        format!("{ps:.1}")
    } else {
        format!("{ps:.3}")
    }
}
