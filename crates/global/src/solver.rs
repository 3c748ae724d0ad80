//! The Lagrangian outer loop.

use std::sync::Mutex;
use std::time::Instant;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{par, Solution, SolverOptions};
use fastbuf_incremental::IncrementalSolver;
use fastbuf_rctree::NodeId;

use crate::report::{GlobalReport, IterationRow, SiteUse};
use crate::{GlobalError, GlobalNet, SiteCapacityMap};

/// Configuration of a [`GlobalSolver`].
#[derive(Clone, Debug)]
pub struct GlobalOptions {
    /// Iteration cap: a fleet that has not become feasible after this many
    /// pricing rounds is reported with `feasible = false` (never an
    /// endless loop, never a panic).
    pub max_iters: usize,
    /// Worker-thread cap of the per-net inner solves (default 1; see
    /// [`par::workers`]). Results are bit-identical at every count: nets
    /// are independent given the price vector, and all cross-net state
    /// (usage, prices) is updated in fixed net/site order on the caller.
    pub workers: usize,
    /// First subgradient step in seconds-per-unit-overuse (default 1 ps).
    pub step0: Seconds,
    /// Geometric growth of the step per iteration (default 1.25); the
    /// iteration-`t` step is `step0 · growth^t`, a closed form of `t`
    /// alone, so the schedule cannot depend on timing or thread order.
    pub growth: f64,
    /// Keep per-net incremental caches warm across iterations (default
    /// `true`): a re-priced net re-solves only the changed root paths.
    /// `false` flushes every net's cache each iteration (from-scratch
    /// inner solves) — bit-identical results, strictly more work; the
    /// `global_convergence` bench measures the gap.
    pub warm: bool,
    /// Inner per-net solve configuration (algorithm, delay model, kernel,
    /// …). `site_prices` on this struct is ignored — the loop owns the
    /// price vector.
    pub solver: SolverOptions,
}

impl Default for GlobalOptions {
    fn default() -> Self {
        GlobalOptions {
            max_iters: 64,
            workers: 1,
            step0: Seconds::from_pico(1.0),
            growth: 1.25,
            warm: true,
            solver: SolverOptions::default(),
        }
    }
}

/// What [`GlobalSolver::solve`] returns: the report plus the final
/// per-net solutions (fleet order).
#[derive(Debug)]
pub struct GlobalOutcome {
    /// Convergence, utilization, and per-iteration history.
    pub report: GlobalReport,
    /// The final priced solution of every net, in fleet order.
    pub solutions: Vec<Solution>,
}

/// Mutable per-net state, one [`Mutex`] per net so workers can solve
/// disjoint nets concurrently (each index is sent to exactly one worker,
/// so locks are uncontended — the `Mutex` exists for `Sync`, like the
/// batch layer's result slots).
struct NetState {
    solver: IncrementalSolver,
    solution: Option<Solution>,
    dirty: bool,
}

/// The design-level solver; see the [crate docs](crate) for the loop.
#[derive(Debug)]
pub struct GlobalSolver {
    nets: Vec<GlobalNet>,
    library: BufferLibrary,
    capacity: SiteCapacityMap,
    options: GlobalOptions,
}

impl GlobalSolver {
    /// Creates a solver over `nets` contending for `capacity`, all using
    /// `library`. Validation happens in [`GlobalSolver::solve`] so
    /// construction never fails.
    pub fn new(nets: Vec<GlobalNet>, library: BufferLibrary, capacity: SiteCapacityMap) -> Self {
        GlobalSolver {
            nets,
            library,
            capacity,
            options: GlobalOptions::default(),
        }
    }

    /// Replaces all options.
    #[must_use]
    pub fn with_options(mut self, options: GlobalOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the iteration cap.
    #[must_use]
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.options.max_iters = max_iters;
        self
    }

    /// Caps the inner-solve worker count (see [`GlobalOptions::workers`]).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = workers;
        self
    }

    /// Warm per-net caches across iterations (`true`, default) or
    /// from-scratch inner solves every iteration (`false`).
    #[must_use]
    pub fn warm(mut self, warm: bool) -> Self {
        self.options.warm = warm;
        self
    }

    /// The fleet.
    pub fn nets(&self) -> &[GlobalNet] {
        &self.nets
    }

    /// Runs the pricing loop to feasibility or the iteration cap.
    ///
    /// # Errors
    ///
    /// [`GlobalError::EmptyFleet`] / [`GlobalError::SiteMapLength`] /
    /// [`GlobalError::UnknownSite`] for malformed fleets,
    /// [`GlobalError::InvalidOptions`] for unusable options. Hitting the
    /// iteration cap is **not** an error: the report says
    /// `feasible = false` and utilization shows where capacity is still
    /// exceeded.
    pub fn solve(&self) -> Result<GlobalOutcome, GlobalError> {
        let start = Instant::now();
        self.validate()?;
        let pool = self.capacity.sites() as usize;
        let caps = self.capacity.as_slice();
        let opts = &self.options;

        // Per-net warm solvers. `site_prices` from the caller's inner
        // options is dropped: the loop owns pricing.
        let mut inner = opts.solver.clone();
        inner.site_prices = None;
        let states: Vec<Mutex<NetState>> = self
            .nets
            .iter()
            .map(|net| {
                Mutex::new(NetState {
                    solver: IncrementalSolver::new(net.tree.clone(), self.library.clone())
                        .with_options(inner.clone()),
                    solution: None,
                    dirty: true,
                })
            })
            .collect();

        let mut prices = vec![0.0f64; pool];
        let mut usage = vec![0u32; pool];
        let mut history: Vec<IterationRow> = Vec::new();
        let mut feasible = false;
        let mut total_resolved = 0u64;

        for iter in 0..opts.max_iters {
            // 1. Re-solve every net whose prices changed (all, on iter 0).
            let resolved = self.solve_dirty(&states);
            total_resolved += resolved as u64;

            // 2. Aggregate usage in fleet order. Counts are integers, so
            //    the order is irrelevant to the sums — fixing it anyway
            //    keeps the loop order-deterministic by inspection.
            usage.iter_mut().for_each(|u| *u = 0);
            for (net, state) in self.nets.iter().zip(&states) {
                let state = state.lock().expect("net state lock");
                let solution = state.solution.as_ref().expect("solved this iteration");
                for p in &solution.placements {
                    if let Some(site) = net.site_of[p.node.index()] {
                        usage[site as usize] += 1;
                    }
                }
            }

            // 3. Measure overuse.
            let mut sites_overused = 0usize;
            let mut total_overuse = 0u64;
            for (u, &c) in usage.iter().zip(caps) {
                if *u > c {
                    sites_overused += 1;
                    total_overuse += (*u - c) as u64;
                }
            }
            let max_price = prices.iter().copied().fold(0.0f64, f64::max);
            history.push(IterationRow {
                iter,
                nets_resolved: resolved,
                sites_overused,
                total_overuse,
                max_price: Seconds::new(max_price),
            });
            if sites_overused == 0 {
                feasible = true;
                break;
            }

            // 4. Monotone subgradient step on the overused sites:
            //    λ_v += step_t · (usage_v − cap_v), step_t = step0·growth^t.
            //    Prices never fall — a growing-step schedule with decrease
            //    steps can oscillate forever; the monotone schedule trades
            //    a little slack for guaranteed escape from every overused
            //    site (see docs/ALGORITHM.md §10).
            let step = opts.step0.value() * opts.growth.powi(iter as i32);
            let mut changed = vec![false; pool];
            for s in 0..pool {
                if usage[s] > caps[s] {
                    prices[s] += step * (usage[s] - caps[s]) as f64;
                    changed[s] = true;
                }
            }

            // 5. Push the new prices into the affected nets (fleet order).
            //    A net none of whose mapped sites changed keeps its cache
            //    fully clean and is skipped next iteration.
            for (net, state) in self.nets.iter().zip(&states) {
                let changes: Vec<(NodeId, Seconds)> = net
                    .site_of
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, site)| {
                        site.filter(|&s| changed[s as usize])
                            .map(|s| (NodeId::new(idx), Seconds::new(prices[s as usize])))
                    })
                    .collect();
                if changes.is_empty() {
                    continue;
                }
                let mut state = state.lock().expect("net state lock");
                if state.solver.set_site_prices(&changes)? > 0 {
                    state.dirty = true;
                }
            }
        }

        // Final bookkeeping from the last iteration's solutions.
        let solutions: Vec<Solution> = states
            .iter()
            .map(|s| {
                s.lock()
                    .expect("net state lock")
                    .solution
                    .take()
                    .expect("every net was solved at least once")
            })
            .collect();
        let total_buffers: usize = solutions.iter().map(|s| s.placements.len()).sum();
        let total_slack = solutions.iter().map(|s| s.slack.value()).sum::<f64>();
        let worst_slack = solutions
            .iter()
            .map(|s| s.slack.value())
            .fold(f64::INFINITY, f64::min);
        let utilization: Vec<SiteUse> = (0..pool)
            .filter(|&s| usage[s] > 0 || prices[s] > 0.0 || caps[s] == 0)
            .map(|s| SiteUse {
                site: s as u32,
                usage: usage[s],
                capacity: caps[s],
                price: Seconds::new(prices[s]),
            })
            .collect();

        Ok(GlobalOutcome {
            report: GlobalReport {
                feasible,
                iterations: history.len(),
                nets: self.nets.len(),
                pool_sites: self.capacity.sites(),
                workers: opts.workers.max(1),
                warm: opts.warm,
                total_buffers,
                total_resolved,
                total_slack: Seconds::new(total_slack),
                worst_slack: Seconds::new(worst_slack),
                utilization,
                history,
                elapsed: start.elapsed(),
            },
            solutions,
        })
    }

    /// Solves every dirty net (largest first across the worker pool, like
    /// `fastbuf-batch`), returning how many were re-solved. Every per-net
    /// solve is deterministic and nets share no mutable state, so the
    /// worker count cannot affect any result bit.
    fn solve_dirty(&self, states: &[Mutex<NetState>]) -> usize {
        let warm = self.options.warm;
        let dirty: Vec<usize> = (0..states.len())
            .filter(|&i| states[i].lock().expect("net state lock").dirty)
            .collect();
        let size = |k: usize| self.nets[dirty[k]].tree.node_count();
        let order = par::largest_first(dirty.len(), size);
        let work = (0..dirty.len()).map(size).sum::<usize>() * self.library.len();
        let mut workers = vec![(); par::workers(Some(self.options.workers), dirty.len(), work)];
        par::map_ordered(&order, &mut workers, |(), k| {
            let mut state = states[dirty[k]].lock().expect("net state lock");
            if !warm {
                state.solver.flush();
            }
            let solution = state.solver.solve();
            state.solution = Some(solution);
            state.dirty = false;
        });
        dirty.len()
    }

    fn validate(&self) -> Result<(), GlobalError> {
        if self.nets.is_empty() {
            return Err(GlobalError::EmptyFleet);
        }
        if self.options.max_iters == 0 {
            return Err(GlobalError::InvalidOptions(
                "max_iters must be at least 1".into(),
            ));
        }
        // NaN-safe: a NaN step0 fails the `>` and lands here too.
        if self.options.step0.value().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(GlobalError::InvalidOptions(
                "step0 must be strictly positive".into(),
            ));
        }
        if !(self.options.growth >= 1.0 && self.options.growth.is_finite()) {
            return Err(GlobalError::InvalidOptions(
                "growth must be finite and >= 1".into(),
            ));
        }
        let pool = self.capacity.sites();
        for (i, net) in self.nets.iter().enumerate() {
            if net.site_of.len() != net.tree.node_count() {
                return Err(GlobalError::SiteMapLength {
                    net: i,
                    expected: net.tree.node_count(),
                    got: net.site_of.len(),
                });
            }
            for site in net.site_of.iter().flatten() {
                if *site >= pool {
                    return Err(GlobalError::UnknownSite {
                        net: Some(i),
                        site: *site,
                        pool,
                    });
                }
            }
        }
        Ok(())
    }
}
