//! The workspace's one source of threads.
//!
//! Every parallel loop — ParCut's CAPFOREST workers, label propagation,
//! the Padberg–Rinaldi classify phase of the reduction passes, and the
//! batch service's job workers — runs through [`map_each`], one scoped
//! worker per caller-owned state, at a width its caller picks (for a
//! solve, `SolveOptions::threads`). Nothing else spawns a thread or asks
//! the OS for its core count: graph construction, contraction and
//! `DeltaGraph` compaction are sequential.
//!
//! The two loops over a graph's arcs, label propagation and the
//! Padberg–Rinaldi classify phase, share one width rule, [`width`]: one
//! worker below [`MIN_PARALLEL_ARCS`] arcs, all of them above.
//!
//! A single state runs inline on the caller's thread, so a 1-thread
//! solve is sequential and deterministic. There is no work stealing:
//! callers split their work evenly across the states, or let the
//! workers pull indices from a shared cursor, as the service and the
//! Padberg–Rinaldi classify phase do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Below this many arcs a loop over a graph runs one worker, inline.
/// The value was measured for label propagation, whose workers share
/// one label array: spawning scoped threads per iteration and
/// ping-ponging its cache lines between cores measured ~5× slower than
/// a sequential pass at a few thousand vertices on a 2-core box. The
/// Padberg–Rinaldi classify phase, whose workers share only a chunk
/// cursor, reuses it and is cheaper to widen: on random hyperbolic
/// graphs of average degree 32 on the same box, a pass at two workers
/// took 0.54× the time of one at 2^15 arcs and 0.42–0.62× from 2^17 to
/// 2^21 arcs.
pub const MIN_PARALLEL_ARCS: usize = 1 << 20;

/// The worker count of a loop over a graph with `arcs` arcs at a width
/// of `threads`: one below [`MIN_PARALLEL_ARCS`], `threads` (at least
/// one) above.
pub fn width(arcs: usize, threads: usize) -> usize {
    if arcs < MIN_PARALLEL_ARCS {
        1
    } else {
        threads.max(1)
    }
}

/// Threads spawned by this module since process start.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Hardware parallelism, probed once per process: `available_parallelism`
/// re-reads cgroup limits on every call (~0.5 ms in containers) and the
/// default solve options sit on the per-solve path.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Number of OS threads [`map_each`] has spawned since process start
/// (one relaxed counter; single-state calls spawn none).
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
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

    #[test]
    fn width_one_runs_inline_in_order() {
        let caller = std::thread::current().id();
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
