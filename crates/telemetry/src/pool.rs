//! The one worker pool: indexed tasks on scoped threads, std only (the
//! workspace vendors no rayon). Capture-window pairing and the replay of
//! each client group, forest fit, cross-validation, dataset building and
//! batch scoring run through it.
//! Results are **bit-identical for 1, 2, or N workers**: every task is
//! identified by its index and its result lands at that index, whichever
//! worker ran it, and per-task randomness comes from `(seed, index)`
//! ([`derive_seed`]), never from one RNG stream threaded through tasks.

use std::io;
use std::iter;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{Builder, Scope, ScopedJoinHandle};

/// Resolves a user-facing thread-count knob: `0` means "auto", the
/// machine's available parallelism (read once per process; 1 when it
/// cannot be queried); anything else is used as given.
pub fn resolve_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    match requested {
        0 => *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)),
        n => n,
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

/// Runs `task(0..n_tasks)` on up to `threads` workers and returns the
/// results **in index order** — the stateless case of
/// [`run_indexed_with`].
pub fn run_indexed<T, F>(n_tasks: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(&mut vec![(); threads.max(1)], n_tasks, |(), i| task(i))
}

/// Runs `task(&mut state, 0..n_tasks)` with one worker per state, never
/// more workers than tasks, and returns the results **in index order**.
/// The calling thread is worker 0 and works `states[0]`; worker `k`
/// starts on task `k`, then claims one index at a time from a shared
/// counter. A state is scratch that lives across its worker's tasks and
/// across calls; the output is independent of the schedule as long as
/// `task(_, i)` does not depend on what its state saw before. One worker
/// or one task runs inline. A worker that cannot be spawned is not an
/// error: the caller takes its first task.
///
/// # Panics
///
/// When `states` is empty and there is a task, and with the first
/// worker panic after all workers have stopped.
pub fn run_indexed_with<S, T, F>(states: &mut [S], n_tasks: usize, task: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    run(states, n_tasks, &task, &next, |scope, job| Builder::new().spawn_scoped(scope, job))
}

/// A spawned worker's run: the `(index, result)` pairs it produced.
type Job<'scope, T> = Box<dyn FnOnce() -> Vec<(usize, T)> + Send + 'scope>;

/// [`run_indexed_with`] with the thread spawn as a parameter, so a test
/// can make spawns fail. `next` is the counter the workers claim from;
/// like everything a worker borrows, it outlives the scope.
fn run<'env, S, T, F, P>(
    states: &'env mut [S],
    n_tasks: usize,
    task: &'env F,
    next: &'env AtomicUsize,
    mut spawn: P,
) -> Vec<T>
where
    S: Send,
    T: Send + 'env,
    F: Fn(&mut S, usize) -> T + Sync,
    P: for<'scope> FnMut(
        &'scope Scope<'scope, 'env>,
        Job<'scope, T>,
    ) -> io::Result<ScopedJoinHandle<'scope, Vec<(usize, T)>>>,
{
    let workers = states.len().min(n_tasks);
    if workers <= 1 {
        let Some(state) = states.first_mut() else {
            assert_eq!(n_tasks, 0, "a task needs a worker state");
            return Vec::new();
        };
        return (0..n_tasks).map(|i| task(state, i)).collect();
    }
    next.store(workers, Ordering::Relaxed);
    let (caller, helpers) = states[..workers].split_first_mut().expect("two workers");
    let mut done = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(helpers.len());
        for (k, state) in (1..).zip(helpers) {
            let job: Job<'_, T> = Box::new(move || work(state, k..k + 1, n_tasks, next, task));
            match spawn(scope, job) {
                Ok(handle) => handles.push(handle),
                Err(_) => break,
            }
        }
        // The caller also takes the first task of every worker it could
        // not spawn.
        let first = iter::once(0).chain(handles.len() + 1..workers);
        let own =
            panic::catch_unwind(AssertUnwindSafe(|| work(caller, first, n_tasks, next, task)));
        let mut done = Vec::with_capacity(n_tasks);
        for ran in iter::once(own).chain(handles.into_iter().map(ScopedJoinHandle::join)) {
            done.extend(ran.expect("parallel worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    assert!(done.iter().enumerate().all(|(slot, &(i, _))| slot == i), "every task runs once");
    done.into_iter().map(|(_, value)| value).collect()
}

/// One worker: the tasks `first`, then the next unclaimed index from
/// `next` until none is left.
fn work<S, T>(
    state: &mut S,
    first: impl Iterator<Item = usize>,
    n_tasks: usize,
    next: &AtomicUsize,
    task: &impl Fn(&mut S, usize) -> T,
) -> Vec<(usize, T)> {
    // Relaxed: the counter only hands out distinct indices. The inputs
    // were written before the spawn and the results are read after the
    // join, and those order them.
    let claimed = iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
    first.chain(claimed).take_while(|&i| i < n_tasks).map(|i| (i, task(state, i))).collect()
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
            let mut states: Vec<Vec<usize>> = (0..threads)
                .map(|_| {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                })
                .collect();
            let out = run_indexed_with(&mut states, 100, |seen, i| {
                seen.push(i);
                i * 2
            });
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "{threads} threads");
            assert!(built.load(Ordering::Relaxed) <= threads, "{threads} threads");
            let mut seen: Vec<usize> = states.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "{threads} threads: states kept");
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

    /// Spawns that fail after `k` of the `workers − 1` succeed, for every
    /// `k`: the results are the inline run's, and the caller took the
    /// first task of every worker it could not spawn, so exactly the
    /// first `k + 1` states ran tasks.
    #[test]
    fn a_failed_spawn_leaves_its_tasks_to_the_caller() {
        let inline = run_indexed(40, 1, |i| derive_seed(7, i as u64));
        for workers in [2, 3, 8] {
            for k in 0..workers {
                let mut states = vec![0usize; workers];
                let mut spawned = 0;
                let task = |ran: &mut usize, i| {
                    *ran += 1;
                    derive_seed(7, i as u64)
                };
                let next = AtomicUsize::new(0);
                let out = run(&mut states, 40, &task, &next, |scope, job| {
                    if spawned == k {
                        return Err(io::Error::other("spawn refused"));
                    }
                    spawned += 1;
                    Builder::new().spawn_scoped(scope, job)
                });
                let case = format!("{k} of {} spawns at {workers} workers", workers - 1);
                assert_eq!(out, inline, "{case}");
                assert!(states[..=k].iter().all(|&ran| ran > 0), "{case}");
                assert!(states[k + 1..].iter().all(|&ran| ran == 0), "{case}");
            }
        }
    }
}
