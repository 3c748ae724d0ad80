//! Machine-independent operation counters.
//!
//! Wall-clock comparisons of the algorithms depend on hardware; the counters
//! here measure the *work* each DP operation performs (candidates visited,
//! hull steps, betas emitted), giving clean evidence of the O(k·b) vs
//! O(k + b) `AddBuffer` behaviour that Figures 3 and 4 of the paper show as
//! running time. The `paper` bench harness records them for every
//! Table 1 / Figure 3–4 row in `BENCH_paper.json` (`AddBuffer` work of both
//! algorithms and its ratio, mean `k` per call, longest list, slab
//! counters).

use std::fmt;
use std::time::Duration;

/// Counters collected during one [`Solver::solve`](crate::Solver::solve).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of "add wire" operations performed.
    pub wire_ops: u64,
    /// Number of branch merges performed.
    pub merge_ops: u64,
    /// Number of `AddBuffer` invocations (buffer positions reached with a
    /// non-empty library).
    pub addbuffer_ops: u64,
    /// Candidates in the lists `AddBuffer` ran on, summed over its calls
    /// (Σ k; before [`Algorithm::LiShiPermanent`](crate::Algorithm)'s
    /// convex prune).
    pub addbuffer_candidates: u64,
    /// Candidates inspected by full scans (all of Lillis' work; only the
    /// load-limited fallback for Li–Shi).
    pub scan_candidate_visits: u64,
    /// Hull constructions performed (one per `AddBuffer` for Li–Shi).
    pub hull_builds: u64,
    /// Total candidates fed to hull constructions (Σ k).
    pub hull_input_candidates: u64,
    /// Forward steps of the monotone hull walk (bounded by hull size + b
    /// per position).
    pub hull_walk_steps: u64,
    /// Buffered candidates (β) generated.
    pub betas_generated: u64,
    /// Candidates removed by *permanent* convex pruning
    /// ([`Algorithm::LiShiPermanent`](crate::Algorithm) only).
    pub convex_pruned: u64,
    /// Candidates removed because their stage wire delay already violated
    /// the slew limit (0 in unconstrained solves; wire steps only — merge
    /// prunes are enforced but not counted).
    pub slew_pruned: u64,
    /// Nodes whose candidate lists were recomputed by a cached solve
    /// ([`Solver::solve_cached`](crate::Solver::solve_cached)); `0` for
    /// ordinary from-scratch solves, which do not report the split.
    pub nodes_recomputed: u64,
    /// Nodes whose cached candidate lists were reused unchanged by a
    /// cached solve (`nodes_recomputed + nodes_reused` = node count there);
    /// `0` for ordinary solves.
    pub nodes_reused: u64,
    /// Candidates swept by the struct-of-arrays kernel's wire-propagation
    /// columns and the cost solver's level-dominance sweeps.
    pub slab_candidates_scanned: u64,
    /// Candidates removed by dominance pruning inside the slab kernel's
    /// linear column sweeps (wire re-prune and branch-merge monotone stack).
    pub slab_candidates_pruned: u64,
    /// Peak bytes of live candidate columns held by the slab during the
    /// solve (lists held outside it, such as cache snapshots, are not
    /// counted). Under intra-net parallelism this is the largest peak of
    /// any participating slab (main or task), not their sum.
    pub slab_bytes_peak: usize,
    /// Independent sibling subtrees solved on worker threads by intra-net
    /// parallelism ([`SolverOptions::intra_net_workers`]). Only
    /// from-scratch solves fork, so this is `0` for sequential and cached
    /// solves.
    ///
    /// [`SolverOptions::intra_net_workers`]: crate::SolverOptions::intra_net_workers
    pub parallel_subtrees: u64,
    /// Largest candidate list seen at any node.
    pub max_list_len: usize,
    /// Candidate list length at the root.
    pub root_list_len: usize,
    /// Entries recorded in the predecessor arena (0 when tracking is off).
    pub arena_entries: usize,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
}

impl SolveStats {
    /// The machine-independent cost of all `AddBuffer` operations: scan
    /// visits plus hull construction and walk work. This is the quantity
    /// the paper's complexity claims bound — O(k·b) per position for
    /// Lillis vs O(k + b) for Li–Shi.
    pub fn addbuffer_work(&self) -> u64 {
        self.scan_candidate_visits
            + self.hull_input_candidates
            + self.hull_walk_steps
            + self.betas_generated
    }

    /// Folds the counters of a parallel shard (one subtree task of
    /// intra-net parallel solving) into this total: additive counters sum,
    /// high-water marks take the maximum. `elapsed`, `root_list_len`, and
    /// `arena_entries` are whole-solve quantities the coordinator sets at
    /// the end and are left untouched.
    pub fn merge_shard(&mut self, shard: &SolveStats) {
        self.wire_ops += shard.wire_ops;
        self.merge_ops += shard.merge_ops;
        self.addbuffer_ops += shard.addbuffer_ops;
        self.addbuffer_candidates += shard.addbuffer_candidates;
        self.scan_candidate_visits += shard.scan_candidate_visits;
        self.hull_builds += shard.hull_builds;
        self.hull_input_candidates += shard.hull_input_candidates;
        self.hull_walk_steps += shard.hull_walk_steps;
        self.betas_generated += shard.betas_generated;
        self.convex_pruned += shard.convex_pruned;
        self.slew_pruned += shard.slew_pruned;
        self.nodes_recomputed += shard.nodes_recomputed;
        self.nodes_reused += shard.nodes_reused;
        self.slab_candidates_scanned += shard.slab_candidates_scanned;
        self.slab_candidates_pruned += shard.slab_candidates_pruned;
        self.slab_bytes_peak = self.slab_bytes_peak.max(shard.slab_bytes_peak);
        self.parallel_subtrees += shard.parallel_subtrees;
        self.max_list_len = self.max_list_len.max(shard.max_list_len);
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops: wire={} merge={} addbuf={} | addbuf work: k={} scans={} hull_in={} walk={} betas={} | lists: max={} root={} | pruned={} slew_pruned={} arena={} | eco: recomputed={} reused={} | slab: scanned={} pruned={} peak_bytes={} par_subtrees={} | {:?}",
            self.wire_ops,
            self.merge_ops,
            self.addbuffer_ops,
            self.addbuffer_candidates,
            self.scan_candidate_visits,
            self.hull_input_candidates,
            self.hull_walk_steps,
            self.betas_generated,
            self.max_list_len,
            self.root_list_len,
            self.convex_pruned,
            self.slew_pruned,
            self.arena_entries,
            self.nodes_recomputed,
            self.nodes_reused,
            self.slab_candidates_scanned,
            self.slab_candidates_pruned,
            self.slab_bytes_peak,
            self.parallel_subtrees,
            self.elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addbuffer_work_sums_components() {
        let stats = SolveStats {
            scan_candidate_visits: 10,
            hull_input_candidates: 20,
            hull_walk_steps: 5,
            betas_generated: 3,
            ..SolveStats::default()
        };
        assert_eq!(stats.addbuffer_work(), 38);
    }

    #[test]
    fn display_mentions_counters() {
        let s = SolveStats::default().to_string();
        assert!(s.contains("wire=0"));
        assert!(s.contains("max=0"));
    }
}
