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
//! Padberg–Rinaldi classify phase do. Workers that must meet between
//! steps, as the classify phase's waves do, share a [`Barrier`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// A barrier for the workers of one [`map_each`] call that a panicking
/// worker breaks: each worker holds a [`Barrier::break_on_panic`] guard
/// while it runs, and should it panic, every [`Barrier::wait`] returns
/// `false` instead of waiting for it forever, so `map_each` can join the
/// others and resume the panic.
pub struct Barrier {
    workers: usize,
    state: Mutex<BarrierState>,
    turned: Condvar,
}

#[derive(Default)]
struct BarrierState {
    /// Workers waiting in the current round.
    arrived: usize,
    /// Rounds completed.
    round: u64,
    /// A worker panicked.
    broken: bool,
}

/// Breaks its [`Barrier`] if dropped while its thread panics.
pub struct BreakOnPanic<'a>(&'a Barrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().broken = true;
            self.0.turned.notify_all();
        }
    }
}

impl Barrier {
    /// A barrier for `workers` workers (at least one).
    pub fn new(workers: usize) -> Self {
        Barrier {
            workers: workers.max(1),
            state: Mutex::default(),
            turned: Condvar::new(),
        }
    }

    /// Blocks until every worker has called `wait` in this round, then
    /// returns `true`; returns `false` once a worker has panicked. A lone
    /// worker never blocks.
    pub fn wait(&self) -> bool {
        let mut s = self.lock();
        if s.broken {
            return false;
        }
        s.arrived += 1;
        if s.arrived == self.workers {
            s.arrived = 0;
            s.round += 1;
            self.turned.notify_all();
            return true;
        }
        let round = s.round;
        while s.round == round && !s.broken {
            s = self.turned.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.round != round
    }

    /// The guard a worker holds while it runs.
    pub fn break_on_panic(&self) -> BreakOnPanic<'_> {
        BreakOnPanic(self)
    }

    /// The state, also after a panic: no code that can panic runs under
    /// the lock, and each update is a plain store.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_rounds_keep_workers_in_step() {
        // Each round every worker adds one, then all check the total.
        let barrier = Barrier::new(3);
        let total = AtomicU64::new(0);
        let mut states = [0u64; 3];
        map_each(&mut states, |_, seen| {
            let _guard = barrier.break_on_panic();
            for round in 1..=4 {
                total.fetch_add(1, Ordering::SeqCst);
                assert!(barrier.wait());
                *seen = total.load(Ordering::SeqCst);
                assert_eq!(*seen, 3 * round);
                assert!(barrier.wait());
            }
        });
        assert_eq!(states, [12; 3]);
    }

    #[test]
    fn a_panicking_worker_breaks_the_barrier() {
        // Worker 1 panics before it reaches the barrier; worker 0 must
        // stop waiting, so map_each joins both and resumes the panic.
        let barrier = Barrier::new(2);
        let mut states = [false; 2];
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_each(&mut states, |i, waited| {
                let _guard = barrier.break_on_panic();
                assert_eq!(i, 0, "worker {i} panics");
                *waited = !barrier.wait();
            })
        }));
        assert!(joined.is_err(), "the panic reaches the caller");
        assert_eq!(states, [true, false], "worker 0 saw a broken barrier");
    }

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
