//! The workspace's one source of threads.
//!
//! Every parallel loop — ParCut's CAPFOREST workers, label propagation,
//! the CSR rebuild of graph construction and `DeltaGraph` compaction,
//! and the batch service's job workers — runs through the two scoped
//! helpers below at a width its caller passes in (for a solve,
//! `SolveOptions::threads`).
//! Nothing else spawns a thread or asks the OS for its core count.
//!
//! Splitting is static: [`for_each_index`] hands worker `w` the
//! contiguous index range `[w·per, (w+1)·per)` with
//! `per = ⌈tasks / workers⌉`, and one worker runs everything inline, in
//! order, on the caller's thread — so a 1-thread solve is sequential and
//! deterministic. There is no work stealing: callers pre-chunk their
//! work evenly, the shape static splitting handles well.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Threads spawned by this module since process start.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Hardware parallelism, probed once per process: `available_parallelism`
/// re-reads cgroup limits on every call (~0.5 ms in containers) and the
/// default solve options sit on the per-solve path.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Number of OS threads [`for_each_index`] and [`map_each`] have spawned
/// since process start (one relaxed counter; width-1 calls spawn none).
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// Runs `f(i)` for every `i` in `0..tasks` on `min(threads, tasks)`
/// workers, each taking one contiguous range in ascending order. With one
/// worker everything runs inline on the caller's thread.
pub fn for_each_index<F>(tasks: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = threads.min(tasks);
    if workers <= 1 {
        (0..tasks).for_each(f);
        return;
    }
    let per = tasks.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (lo, hi) = (w * per, ((w + 1) * per).min(tasks));
            if lo < hi {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || (lo..hi).for_each(f));
            }
        }
    });
}

/// Runs `f(i, &mut states[i])` on one worker per state and returns the
/// results in state order. A single state runs inline; a worker's panic
/// resumes on the caller.
pub fn map_each<S, R, F>(states: &mut [S], f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    if states.len() <= 1 {
        return states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || f(i, s))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn every_index_runs_exactly_once() {
        for tasks in [0, 1, 5, 997] {
            for threads in [1, 2, 3, 4, 8] {
                let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                for_each_index(tasks, threads, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{tasks} tasks at width {threads}"
                );
            }
        }
    }

    #[test]
    fn at_most_threads_workers_each_ascending() {
        for threads in [2, 3, 4] {
            let seen: Mutex<Vec<(std::thread::ThreadId, usize)>> = Mutex::new(Vec::new());
            for_each_index(100, threads, |i| {
                seen.lock().unwrap().push((std::thread::current().id(), i));
            });
            let seen = seen.into_inner().unwrap();
            let ids: HashSet<_> = seen.iter().map(|&(id, _)| id).collect();
            assert!(
                ids.len() <= threads,
                "{} workers at width {threads}",
                ids.len()
            );
            assert!(!ids.contains(&std::thread::current().id()));
            for id in ids {
                let mine: Vec<usize> = seen.iter().filter(|s| s.0 == id).map(|s| s.1).collect();
                assert!(
                    mine.windows(2).all(|w| w[1] == w[0] + 1),
                    "one ascending range"
                );
            }
        }
    }

    #[test]
    fn width_one_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        for_each_index(50, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..50).collect::<Vec<_>>());
        let mut one = [7u32];
        let out = map_each(&mut one, |i, s| {
            assert_eq!(std::thread::current().id(), caller);
            *s += 1;
            (i, *s)
        });
        assert_eq!(out, vec![(0, 8)]);
    }

    #[test]
    fn map_each_returns_results_in_state_order() {
        let mut states: Vec<u64> = (0..6).map(|i| i * 10).collect();
        let out = map_each(&mut states, |i, s| {
            *s += 1;
            (i, *s)
        });
        assert_eq!(
            out,
            (0..6).map(|i| (i, i as u64 * 10 + 1)).collect::<Vec<_>>()
        );
        assert_eq!(states, vec![1, 11, 21, 31, 41, 51]);
    }
}
