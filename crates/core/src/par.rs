//! The workspace's one parallel map: every fan-out (intra-net subtrees,
//! batch nets, request scenarios, Monte-Carlo samples, priced nets of the
//! global loop) runs through [`map_ordered`], on [`workers`] workers.
//!
//! The contract is what makes every fan-out deterministic:
//!
//! * **Dispatch order** is the caller's: workers claim items in `order`
//!   (batch and global pass [`largest_first`], so big items cannot
//!   straggle at the end).
//! * **Result order** is item-index order, never completion order.
//! * **Per-worker state**: each worker is lent one element of `states` (a
//!   workspace, a slab, an incremental solver, or `()`) for all the items
//!   it claims, and works on it from its own stack (see [`map_ordered`]).
//! * **One worker runs inline** on the caller's thread: `w` workers spawn
//!   `w - 1` threads, and a sequential run spawns nothing.
//! * **No per-item cost** beyond one atomic increment: a worker appends
//!   `(index, result)` to its own vector and the caller scatters the
//!   vectors once all workers are joined.
//! * **Panics** in a worker are re-raised on the caller with their
//!   original payload, once every worker has stopped.

use std::cmp::Reverse;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The tree-node × buffer-type units of DP work (40–100 ns each on a
/// 2-vCPU x86-64 VM) that repay one worker's scoped spawn and join
/// (50–65 µs there); calibrated by `scenario_throughput`'s sweep.
pub const GRAIN: usize = 4096;

/// The hardware thread count (1 when the OS cannot say), read once: the
/// standard library re-reads cgroup files on every call.
pub fn hardware_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker count of a fan-out over `items` items and `work` units:
/// `min(cap, items, work / GRAIN)`, at least 1, so work under one
/// [`GRAIN`] runs inline. A `None` cap is [`hardware_threads`]; an
/// explicit cap may exceed it (tests run parallel paths on 1 thread).
pub fn workers(cap: Option<usize>, items: usize, work: usize) -> usize {
    let cap = cap.unwrap_or_else(hardware_threads);
    cap.min(items).min(work / GRAIN).max(1)
}

/// Computes `f(state, i)` for every item `i` in `0..order.len()`, claiming
/// items in `order` over one worker per element of `states`, and returns
/// the results in item-index order: `out[i] = f(_, i)`.
///
/// At most `min(states.len(), order.len())` workers run, the first of
/// them inline on the caller's thread (it lends `states[0]`), so one
/// worker spawns no thread. Which state an item sees
/// depends on scheduling, so `f` must give the same result for every
/// state (workspaces and caches must be result-neutral).
///
/// A worker moves its state onto its own stack (leaving `S::default()` in
/// the slot) and moves it back when it runs out of items. States sit side
/// by side in `states`, and two workers writing neighbouring states would
/// share cache lines: in a 2-worker `BatchSolver` run on a 2-vCPU host that
/// false sharing cost about 8% more CPU per batch.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..order.len()`, if `states`
/// is empty while `order` is not, or if any call of `f` panics (the payload
/// of the first panicking worker in `states` order is re-raised after every
/// worker has stopped).
pub fn map_ordered<S, R, F>(order: &[usize], states: &mut [S], f: F) -> Vec<R>
where
    S: Default + Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let n = order.len();
    let workers = states.len().min(n);
    assert!(
        workers > 0 || n == 0,
        "a non-empty map needs a worker state"
    );
    // The cursor publishes no data (`Relaxed` suffices): results reach the
    // caller through the joins.
    let next = AtomicUsize::new(0);
    let run = |slot: &mut S| {
        let mut state = std::mem::take(slot);
        let mut done = Vec::with_capacity(n / workers + 1);
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, f(&mut state, i)));
        }
        *slot = state;
        done
    };

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut scatter = |done: Vec<(usize, R)>| {
        for (i, result) in done {
            assert!(slots[i].is_none(), "item {i} appears twice in the order");
            slots[i] = Some(result);
        }
    };
    // One worker runs inline on the caller, which would otherwise only wait
    // for the joins: a map over `w` workers spawns `w - 1` threads.
    if let Some((inline, spawned)) = states[..workers].split_first_mut() {
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = spawned
                .iter_mut()
                .map(|state| scope.spawn(move || run(state)))
                .collect();
            let inline = panic::catch_unwind(AssertUnwindSafe(|| run(inline)));
            let mut payload = None;
            for done in std::iter::once(inline).chain(handles.into_iter().map(|h| h.join())) {
                match done {
                    Ok(done) => scatter(done),
                    Err(p) => {
                        payload.get_or_insert(p);
                    }
                }
            }
            if let Some(payload) = payload {
                panic::resume_unwind(payload);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the order covers every item index"))
        .collect()
}

/// [`map_ordered`] with items claimed in index order.
pub fn map<S, R, F>(n: usize, states: &mut [S], f: F) -> Vec<R>
where
    S: Default + Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    map_ordered(&(0..n).collect::<Vec<_>>(), states, f)
}

/// The dispatch order that claims the largest of `n` items first, ties in
/// index order.
pub fn largest_first(n: usize, size: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    // Stable: equal sizes keep ascending index order.
    order.sort_by_key(|&i| Reverse(size(i)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn work_below_one_grain_runs_inline() {
        assert_eq!(workers(Some(8), 100, 0), 1);
        assert_eq!(workers(Some(8), 100, GRAIN - 1), 1);
        assert_eq!(workers(None, 100, GRAIN - 1), 1);
    }

    #[test]
    fn each_worker_gets_at_least_one_grain() {
        assert_eq!(workers(Some(8), 100, GRAIN), 1);
        assert_eq!(workers(Some(8), 100, 3 * GRAIN - 1), 2);
        assert_eq!(workers(Some(8), 100, 3 * GRAIN), 3);
    }

    #[test]
    fn an_explicit_cap_is_honoured_above_the_hardware_count() {
        let cap = hardware_threads() + 3;
        assert_eq!(workers(Some(cap), 1000, usize::MAX), cap);
        assert_eq!(workers(Some(1), 1000, usize::MAX), 1);
        assert_eq!(workers(Some(0), 1000, usize::MAX), 1, "never 0");
    }

    #[test]
    fn workers_are_capped_at_the_item_count() {
        assert_eq!(workers(Some(8), 3, usize::MAX), 3);
        assert_eq!(workers(None, 1, usize::MAX), 1);
        assert_eq!(workers(Some(8), 0, usize::MAX), 1, "never 0");
    }

    #[test]
    fn the_unset_cap_is_the_hardware_count() {
        let threads = hardware_threads();
        assert!(threads >= 1);
        assert_eq!(threads, hardware_threads(), "read once");
        assert_eq!(workers(None, usize::MAX, usize::MAX), threads);
    }

    #[test]
    fn results_come_back_in_index_order_under_a_permuted_dispatch() {
        let sizes: Vec<usize> = (0..97).map(|i| (i * 37) % 23).collect();
        let order = largest_first(sizes.len(), |i| sizes[i]);
        assert_ne!(order, (0..sizes.len()).collect::<Vec<_>>());
        for workers in [1, 2, 4, 8] {
            let mut states = vec![(); workers];
            let out = map_ordered(&order, &mut states, |_, i| (i, sizes[i] * 3));
            let want: Vec<_> = (0..sizes.len()).map(|i| (i, sizes[i] * 3)).collect();
            assert_eq!(out, want, "{workers} workers");
        }
    }

    #[test]
    fn largest_first_breaks_ties_by_index() {
        assert_eq!(
            largest_first(6, |i| [3, 9, 3, 1, 9, 3][i]),
            [1, 4, 0, 2, 5, 3]
        );
    }

    #[test]
    fn every_item_runs_exactly_once_and_states_are_per_worker() {
        let n = 500;
        for workers in [1, 2, 4, 8] {
            let calls: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            // Each state counts the items its worker ran: a state is never
            // shared, so the counts add up to exactly `n`.
            let mut states = vec![0usize; workers];
            map(n, &mut states, |ran, i| {
                *ran += 1;
                calls[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            assert_eq!(states.iter().sum::<usize>(), n, "{workers} workers");
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let order = largest_first(10, |i| i);
        let threads: Vec<ThreadId> = map_ordered(&order, &mut [()], |_, _| thread::current().id());
        assert!(threads.iter().all(|&t| t == caller));
        // More states than items: the surplus states stay idle.
        let threads = map(1, &mut [(), (), ()], |_, _| thread::current().id());
        assert_eq!(threads, [caller]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers_and_results_stay_in_index_order() {
        let caller = thread::current().id();
        // Items 0 and 1 wait for each other, so the two workers hold one each.
        let both = Barrier::new(2);
        let out = map(24, &mut [(); 2], |_, i| {
            if i < 2 {
                both.wait();
            }
            (i, thread::current().id())
        });
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..24).collect::<Vec<_>>()
        );
        let threads: HashSet<ThreadId> = out.iter().map(|&(_, t)| t).collect();
        assert!(threads.contains(&caller), "the caller claimed no item");
        assert!(
            threads.len() <= 2,
            "two workers ran on {} threads",
            threads.len()
        );
    }

    /// Maps 40 items over 3 workers, where `f` may panic; returns the
    /// re-raised payload's message and how many items had completed when
    /// the caller saw it.
    fn panic_and_count(f: impl Fn(&AtomicU32) + Sync) -> (String, u32) {
        let done = AtomicU32::new(0);
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            map(40, &mut [(); 3], |_, _| f(&done));
        }))
        .expect_err("a worker panicked");
        let message = payload.downcast_ref::<&str>().expect("a literal payload");
        (message.to_string(), done.load(Ordering::SeqCst))
    }

    #[test]
    fn a_panic_on_the_inline_worker_is_re_raised_after_the_spawned_ones_stop() {
        let caller = thread::current().id();
        let started = AtomicBool::new(false);
        let (message, done) = panic_and_count(|done| {
            if thread::current().id() == caller {
                // Panic only once a spawned worker is running items.
                while !started.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_micros(100));
                }
                panic!("inline worker exploded");
            }
            started.store(true, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(1));
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(message, "inline worker exploded");
        assert_eq!(done, 39, "every other item finished before the re-raise");
    }

    #[test]
    fn a_panic_on_a_spawned_worker_is_re_raised_after_the_others_stop() {
        let caller = thread::current().id();
        let fired = AtomicBool::new(false);
        let (message, done) = panic_and_count(|done| {
            if thread::current().id() == caller {
                // Keep claiming items only after a spawned worker panicked.
                while !fired.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_micros(100));
                }
            } else if !fired.swap(true, Ordering::SeqCst) {
                panic!("spawned worker exploded");
            }
            thread::sleep(Duration::from_millis(1));
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(message, "spawned worker exploded");
        assert_eq!(done, 39, "every other item finished before the re-raise");
    }

    #[test]
    fn an_empty_order_returns_empty() {
        let out: Vec<u8> = map_ordered(&[], &mut [(); 4], |_, _| unreachable!());
        assert!(out.is_empty());
        let out: Vec<u8> = map(0, &mut [] as &mut [()], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "item 13 exploded")]
    fn a_panicking_item_panics_the_caller() {
        map(64, &mut [(); 4], |_, i| {
            if i == 13 {
                panic!("item {i} exploded");
            }
        });
    }

    #[test]
    #[should_panic(expected = "item 3 exploded")]
    fn a_panicking_item_panics_the_caller_inline() {
        map(8, &mut [()], |_, i| {
            if i == 3 {
                panic!("item {i} exploded");
            }
        });
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn a_repeated_index_is_rejected() {
        map_ordered(&[0, 0], &mut [()], |_, i| i);
    }
}
