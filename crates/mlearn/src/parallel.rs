//! Deterministic scoped-thread worker pool for the training and scoring
//! hot paths.
//!
//! The design constraint is **thread-count invariance**: any computation
//! run through this module must produce bit-identical results for 1, 2,
//! or N worker threads. That is achieved by
//!
//! 1. indexing the work — every task is identified by its position in the
//!    input, and results are returned in input order regardless of which
//!    worker ran them or when they finished, and
//! 2. deriving per-task randomness from `(seed, index)` with the SplitMix64
//!    finalizer ([`derive_seed`]) instead of threading one sequential RNG
//!    stream through all tasks.
//!
//! Built on `std::thread::scope` only — the workspace vendors its external
//! dependencies as shims, so no rayon/crossbeam.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a user-facing thread-count knob: `0` means "auto", the
/// machine's available parallelism (1 when it cannot be queried);
/// anything else is used as given.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Derives an independent 64-bit seed for task `index` from a base `seed`
/// using the SplitMix64 finalizer. Consecutive indices produce
/// decorrelated seeds, and the mapping depends only on `(seed, index)` —
/// never on scheduling — which is what makes parallel training
/// deterministic.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `task(0..n_tasks)` across up to `threads` scoped worker threads
/// and returns the results **in index order** — the stateless case of
/// [`run_indexed_with`].
pub fn run_indexed<T, F>(n_tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(n_tasks, threads, || (), |(), i| task(i))
}

/// Runs `task(&mut state, 0..n_tasks)` across up to `threads` scoped
/// worker threads, each holding one `init()` state for all the tasks it
/// runs (a scratch workspace, say), and returns the results **in index
/// order**.
///
/// Work is distributed dynamically, but in *chunks* of consecutive
/// indices rather than one index per atomic claim: each worker grabs
/// `max(1, n_tasks / (threads * 4))` tasks at a time, so fine-grained
/// workloads don't serialize on the cursor's cache line while uneven
/// task costs still balance (4 chunks per worker on average leaves room
/// for stealing). The output is independent of the schedule as long as
/// `task(_, i)` does not depend on what its state saw before: slot `i`
/// always holds `task(_, i)`. With `threads <= 1` (or a single task) the
/// tasks run inline on the caller's thread — no spawn overhead.
///
/// # Panics
///
/// Propagates the first worker panic after all workers have stopped.
pub fn run_indexed_with<S, T, I, F>(n_tasks: usize, threads: usize, init: I, task: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n_tasks);
    if threads <= 1 {
        let mut state = init();
        return (0..n_tasks).map(|i| task(&mut state, i)).collect();
    }
    let chunk = (n_tasks / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let (init, task, cursor) = (&init, &task, &cursor);
    let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n_tasks {
                            break;
                        }
                        for i in start..(start + chunk).min(n_tasks) {
                            local.push((i, task(&mut state, i)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    for (i, value) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "task {i} ran twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("task {i} never ran")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_reused() {
        for threads in [1, 2, 8] {
            let built = AtomicUsize::new(0);
            let out = run_indexed_with(
                100,
                threads,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |seen, i| {
                    seen.push(i);
                    i * 2
                },
            );
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "{threads} threads");
            assert!(built.load(Ordering::Relaxed) <= threads, "{threads} threads");
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = run_indexed(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_task_costs_still_map_correctly() {
        // Tasks sleep inversely to index so late indices finish first.
        let out = run_indexed(16, 4, |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i as u64) * 50));
            i + 1
        });
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn derive_seed_is_stable_and_decorrelated() {
        // Stable: pure function of (seed, index).
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        // Distinct across both arguments.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            for index in 0..64u64 {
                seen.insert(derive_seed(seed, index));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "no collisions across a small grid");
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), cores);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        run_indexed(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
