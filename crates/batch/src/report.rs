//! Batch results: per-net outcomes, aggregates, and JSON serialization.

use std::fmt;
use std::time::Duration;

use fastbuf_api::wire::Json;
use fastbuf_api::{NetOutcome, Scenario};
use fastbuf_buflib::units::Seconds;
use fastbuf_core::Algorithm;

/// Aggregated outcome of a [`BatchSolver::solve`](crate::BatchSolver::solve)
/// run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-net outcomes, in input order.
    pub outcomes: Vec<NetOutcome>,
    /// The algorithm every net was solved with.
    pub algorithm: Algorithm,
    /// Worker threads actually used.
    pub workers: usize,
    /// Name of the delay model every net was solved with.
    pub delay_model: &'static str,
    /// The per-net slew limit in force (`None` = unconstrained).
    pub slew_limit: Option<Seconds>,
    /// Worst [`NetOutcome::max_slew`] across the batch.
    pub worst_slew: Seconds,
    /// Number of nets that could not meet the slew limit.
    pub slew_violations: usize,
    /// Worst net slack before buffering.
    pub wns_before: Seconds,
    /// Worst net slack after buffering.
    pub wns_after: Seconds,
    /// Total negative slack (`Σ min(slack, 0)`) before buffering.
    pub tns_before: Seconds,
    /// Total negative slack after buffering.
    pub tns_after: Seconds,
    /// Buffers inserted across the batch.
    pub total_buffers: usize,
    /// Total buffer cost across the batch.
    pub total_cost: f64,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchReport {
    /// Aggregates `outcomes` (already in input order), solved under
    /// `scenario`, into a report.
    pub(crate) fn from_outcomes(
        outcomes: Vec<NetOutcome>,
        scenario: &Scenario,
        workers: usize,
        elapsed: Duration,
    ) -> Self {
        let mut report = BatchReport {
            outcomes,
            algorithm: scenario.algorithm.unwrap_or_default(),
            workers,
            delay_model: scenario.delay_model.unwrap_or_default().name(),
            slew_limit: scenario.slew_limit,
            worst_slew: Seconds::ZERO,
            slew_violations: 0,
            wns_before: Seconds::new(f64::INFINITY),
            wns_after: Seconds::new(f64::INFINITY),
            tns_before: Seconds::ZERO,
            tns_after: Seconds::ZERO,
            total_buffers: 0,
            total_cost: 0.0,
            elapsed,
        };
        for o in &report.outcomes {
            report.wns_before = report.wns_before.min(o.slack_before);
            report.wns_after = report.wns_after.min(o.slack);
            report.tns_before += o.slack_before.min(Seconds::ZERO);
            report.tns_after += o.slack.min(Seconds::ZERO);
            report.total_buffers += o.placements.len();
            report.total_cost += o.cost;
            report.worst_slew = report.worst_slew.max(o.max_slew);
            report.slew_violations += usize::from(!o.slew_ok);
        }
        report
    }

    /// Nets solved per wall-clock second — the batch throughput metric of
    /// `fastbuf batch`.
    pub fn nets_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Serializes the report as JSON: batch aggregates plus one entry per
    /// net. `names` labels the nets (falling back to `net<index>`);
    /// `include_placements` adds the full placement list per net.
    ///
    /// Per-net entries are [`NetOutcome::to_value`] records — the same
    /// record `fastbuf solve --json` and `fastbuf serve` print, so their
    /// per-net JSON can never drift apart. The whole report is printed by
    /// [`Json::to_pretty`].
    pub fn to_json(&self, names: Option<&[String]>, include_placements: bool) -> String {
        let results = self
            .outcomes
            .iter()
            .map(|o| {
                let name = names
                    .and_then(|n| n.get(o.index).cloned())
                    .unwrap_or_else(|| format!("net{:05}", o.index));
                o.to_value(&name, None, include_placements)
            })
            .collect();
        Json::obj([
            ("nets", self.outcomes.len().into()),
            ("algorithm", self.algorithm.name().into()),
            ("workers", self.workers.into()),
            ("delay_model", self.delay_model.into()),
            ("slew_limit_ps", self.slew_limit.map(|l| l.picos()).into()),
            ("worst_slew_ps", self.worst_slew.picos().into()),
            ("slew_violations", self.slew_violations.into()),
            ("elapsed_ms", (self.elapsed.as_secs_f64() * 1e3).into()),
            ("nets_per_sec", self.nets_per_sec().into()),
            ("wns_before_ps", self.wns_before.picos().into()),
            ("wns_after_ps", self.wns_after.picos().into()),
            ("tns_before_ps", self.tns_before.picos().into()),
            ("tns_after_ps", self.tns_after.picos().into()),
            ("total_buffers", self.total_buffers.into()),
            ("total_cost", self.total_cost.into()),
            ("results", results),
        ])
        .to_pretty()
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets on {} workers in {:.1} ms ({:.0} nets/s): WNS {} -> {}, {} buffers (cost {:.0}), worst slew {}{}",
            self.outcomes.len(),
            self.workers,
            self.elapsed.as_secs_f64() * 1e3,
            self.nets_per_sec(),
            self.wns_before,
            self.wns_after,
            self.total_buffers,
            self.total_cost,
            self.worst_slew,
            match self.slew_limit {
                Some(l) if self.slew_violations > 0 =>
                    format!(" ({} nets over the {} limit)", self.slew_violations, l),
                Some(l) => format!(" (all within the {} limit)", l),
                None => String::new(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_aggregates() {
        let r = BatchReport::from_outcomes(Vec::new(), &Scenario::default(), 1, Duration::ZERO);
        assert_eq!(r.total_buffers, 0);
        assert_eq!(r.outcomes.len(), 0);
        let json = r.to_json(None, false);
        assert!(json.contains("\"nets\": 0"));
        assert!(json.contains("\"results\": ["));
    }
}
