//! Parallel CAPFOREST (Algorithm 1 of the paper).
//!
//! Every worker grows a scan region from a random start vertex, exactly
//! like sequential CAPFOREST but with three twists:
//!
//! * a shared visited array `T` ensures every vertex is *scanned by at most
//!   one worker* (we claim with an atomic swap; the paper tolerates benign
//!   duplicate visits without locking — the swap gives the same semantics
//!   race-free at negligible cost);
//! * a worker that pops a vertex already claimed elsewhere *blacklists* it
//!   locally and stops considering its edges — Lemma 3.2(3) shows the
//!   `q(e)` lower bounds stay valid because that is equivalent to running
//!   on the graph with all blacklisted vertices removed;
//! * contractible edges are marked in a *shared concurrent union-find*
//!   (Lemma 3.2(1): unions commute, so concurrent marking is equivalent to
//!   sequential), and λ̂ is a shared atomic lowered by CAS whenever a
//!   worker's region prefix is a better cut (stale reads of λ̂ only make
//!   the contraction test more conservative... or mark an edge whose
//!   connectivity is ≥ an *older, larger* bound — still ≥ λ ≥ any final
//!   result, see DESIGN.md "Key correctness decisions").
//!
//! When a region's queue empties, the worker restarts from a fresh
//! unclaimed vertex so that, as the paper requires, "after all processes
//! are finished, every vertex was visited exactly once".
//!
//! # Pooled worker state
//!
//! Each worker's hot state — `r` values, the epoch-stamped vertex states
//! (queued / scanned / blacklisted), the region buffer, and one
//! instrumented instance of every queue — lives in a [`ParWorkerState`]
//! owned by the driver's [`ParWorkerPool`] and *reused across contraction
//! rounds*: a round hands each spawned thread `&mut` to its slot, so
//! per-round cost is an epoch bump instead of O(n·threads) allocation and
//! zeroing. The per-worker PQ-operation tallies come straight from the
//! worker's own [`CountingPq`] (no thread-local counters).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use mincut_ds::{
    BQueuePq, BStackPq, BinaryHeapPq, ConcurrentUnionFind, CountingPq, MaxPq, PqCounters, PqKind,
};
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::MAX_BUCKET_BOUND;

/// Outcome of one parallel CAPFOREST round.
pub struct ParCapforestOutcome {
    /// Shared union-find containing all marked contractions.
    pub cuf: ConcurrentUnionFind,
    /// Improved global bound (minimum over the input bound and every
    /// worker's proper region-prefix cuts).
    pub lambda_hat: EdgeWeight,
    /// Witness for `lambda_hat` if some worker improved it: the region
    /// prefix (vertices of the current graph) achieving the bound.
    pub best_prefix: Option<Vec<NodeId>>,
    /// Priority-queue operation totals summed over all workers (non-zero
    /// when `P` counts, i.e. when run through a `CountingPq`).
    pub pq_ops: PqCounters,
}

/// Atomically lowers `shared` to `value`; returns true if this call moved it.
fn fetch_min(shared: &AtomicU64, value: u64) -> bool {
    let mut cur = shared.load(Ordering::Acquire);
    while value < cur {
        match shared.compare_exchange_weak(cur, value, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// Vertex states from one worker's point of view; meaningful only while
/// the worker's stamp matches its epoch (a stale stamp is the old
/// `Untouched`).
const QUEUED: u8 = 0;
const SCANNED: u8 = 1;
const BLACKLISTED: u8 = 2;

/// One worker's persistent scratch: SoA arrays stamped by an epoch that
/// advances once per round, plus the worker's queues.
pub struct ParWorkerState {
    /// Weight from v into this worker's region (valid iff stamped).
    r: Vec<EdgeWeight>,
    /// QUEUED / SCANNED / BLACKLISTED (valid iff stamped).
    state: Vec<u8>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Vertices of the worker's regions, in scan order.
    region: Vec<NodeId>,
    bstack: CountingPq<BStackPq>,
    bqueue: CountingPq<BQueuePq>,
    heap: CountingPq<BinaryHeapPq>,
}

impl Default for ParWorkerState {
    fn default() -> Self {
        Self::new()
    }
}

impl ParWorkerState {
    pub fn new() -> Self {
        ParWorkerState {
            r: Vec::new(),
            state: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            region: Vec::new(),
            bstack: MaxPq::new(),
            bqueue: MaxPq::new(),
            heap: MaxPq::new(),
        }
    }

    fn begin_round(&mut self, n: usize) {
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.r.len() < n {
            self.r.resize(n, 0);
            self.state.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.region.clear();
    }
}

/// A driver-owned pool of per-worker state, reused across rounds.
#[derive(Default)]
pub struct ParWorkerPool {
    workers: Vec<ParWorkerState>,
}

impl ParWorkerPool {
    pub fn new() -> Self {
        ParWorkerPool {
            workers: Vec::new(),
        }
    }
}

/// Runs Algorithm 1 with `threads` workers pulling their state from
/// `pool` (grown on demand, reused across rounds). `lambda_hat` is the
/// current upper bound; the queue kind dispatches per round, falling back
/// to the heap when the bound exceeds the bucket range.
pub fn parallel_capforest_pooled(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    threads: usize,
    seed: u64,
    pq: PqKind,
    pool: &mut ParWorkerPool,
) -> ParCapforestOutcome {
    let n = g.n();
    assert!(threads >= 1);
    if pool.workers.len() < threads {
        pool.workers.resize_with(threads, ParWorkerState::new);
    }
    let visited: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let cuf = ConcurrentUnionFind::new(n);
    let lambda = AtomicU64::new(lambda_hat);
    let claimed = AtomicUsize::new(0);
    // Shared restart cursor over the vertex range: when a worker's random
    // probes fail it sweeps this cursor to find an unclaimed start, which
    // also covers "the sparse regions of the graph which might otherwise
    // not be scanned by any process".
    let cursor = AtomicUsize::new(0);
    let use_heap = lambda_hat > MAX_BUCKET_BOUND;

    // Each worker returns (best_alpha, witness_region_prefix, pq_ops).
    let worker_best: Vec<(EdgeWeight, Option<Vec<NodeId>>, PqCounters)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = pool
                .workers
                .iter_mut()
                .take(threads)
                .enumerate()
                .map(|(tid, ws)| {
                    let visited = &visited;
                    let cuf = &cuf;
                    let lambda = &lambda;
                    let claimed = &claimed;
                    let cursor = &cursor;
                    let wseed = seed
                        .wrapping_add(tid as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    scope.spawn(move || {
                        // Per-worker span pinned to a named track: the
                        // scoped threads are fresh every round, so
                        // per-OS-thread tracks would multiply by round
                        // count; one stable lane per logical worker
                        // keeps the exported trace readable.
                        let mut _wsp = mincut_obs::span("parcut/worker-scan");
                        if _wsp.is_recording() {
                            _wsp.pin_track(mincut_obs::named_track(&format!(
                                "parcut-worker-{tid}"
                            )));
                        }
                        _wsp.arg("worker", tid);
                        _wsp.arg("n", n);
                        _wsp.arg("lambda_hat", lambda_hat);
                        ws.begin_round(n);
                        // Split the borrow: queues out of the scratch view.
                        let ParWorkerState {
                            r,
                            state,
                            stamp,
                            epoch,
                            region,
                            bstack,
                            bqueue,
                            heap,
                        } = ws;
                        let mut core = WorkerCore {
                            r,
                            state,
                            stamp,
                            epoch: *epoch,
                            region,
                        };
                        let mut run = |q: &mut dyn DynPq| {
                            worker(
                                g, lambda_hat, wseed, visited, cuf, lambda, claimed, cursor, q,
                                &mut core,
                            )
                        };
                        match pq {
                            PqKind::BStack if !use_heap => run(bstack),
                            PqKind::BQueue if !use_heap => run(bqueue),
                            _ => run(heap),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

    finish_round(worker_best, &lambda, lambda_hat, cuf)
}

/// Object-safe view of [`MaxPq`]: both drivers run the worker loop
/// through `&mut dyn DynPq`, trading one virtual call per queue op for
/// not triplicating the worker driver.
trait DynPq {
    fn reset(&mut self, n: usize, max_priority: u64);
    fn push(&mut self, v: u32, prio: u64);
    fn raise(&mut self, v: u32, prio: u64);
    fn pop_max(&mut self) -> Option<(u32, u64)>;
    fn priority(&self, v: u32) -> u64;
    fn take_ops(&mut self) -> PqCounters;
}

impl<P: MaxPq> DynPq for P {
    fn reset(&mut self, n: usize, max_priority: u64) {
        MaxPq::reset(self, n, max_priority);
    }
    fn push(&mut self, v: u32, prio: u64) {
        MaxPq::push(self, v, prio);
    }
    fn raise(&mut self, v: u32, prio: u64) {
        MaxPq::raise(self, v, prio);
    }
    fn pop_max(&mut self) -> Option<(u32, u64)> {
        MaxPq::pop_max(self)
    }
    fn priority(&self, v: u32) -> u64 {
        MaxPq::priority(self, v)
    }
    fn take_ops(&mut self) -> PqCounters {
        MaxPq::take_ops(self)
    }
}

/// Borrowed view of one worker's scratch for a single round.
struct WorkerCore<'a> {
    r: &'a mut [EdgeWeight],
    state: &'a mut [u8],
    stamp: &'a mut [u32],
    epoch: u32,
    region: &'a mut Vec<NodeId>,
}

/// Runs Algorithm 1 with `threads` workers of queue type `P` on freshly
/// allocated worker state. This is the fresh-state reference that the
/// pooled driver's test and the `hotpath` bench compare
/// [`parallel_capforest_pooled`] against; ParCut's round loop uses the
/// pooled driver.
pub fn parallel_capforest<P: MaxPq + Send>(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    threads: usize,
    seed: u64,
) -> ParCapforestOutcome {
    let n = g.n();
    assert!(threads >= 1);
    let visited: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let cuf = ConcurrentUnionFind::new(n);
    let lambda = AtomicU64::new(lambda_hat);
    let claimed = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);

    let worker_best: Vec<(EdgeWeight, Option<Vec<NodeId>>, PqCounters)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let visited = &visited;
                    let cuf = &cuf;
                    let lambda = &lambda;
                    let claimed = &claimed;
                    let cursor = &cursor;
                    let wseed = seed
                        .wrapping_add(tid as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    scope.spawn(move || {
                        let mut ws = ParWorkerState::new();
                        ws.begin_round(n);
                        let mut q = P::new();
                        let mut core = WorkerCore {
                            r: &mut ws.r,
                            state: &mut ws.state,
                            stamp: &mut ws.stamp,
                            epoch: ws.epoch,
                            region: &mut ws.region,
                        };
                        worker(
                            g, lambda_hat, wseed, visited, cuf, lambda, claimed, cursor, &mut q,
                            &mut core,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

    finish_round(worker_best, &lambda, lambda_hat, cuf)
}

fn finish_round(
    worker_best: Vec<(EdgeWeight, Option<Vec<NodeId>>, PqCounters)>,
    lambda: &AtomicU64,
    lambda_hat: EdgeWeight,
    cuf: ConcurrentUnionFind,
) -> ParCapforestOutcome {
    let final_lambda = lambda.load(Ordering::Acquire);
    let mut pq_ops = PqCounters::default();
    for (_, _, c) in &worker_best {
        pq_ops.add(*c);
    }
    let mut best_prefix = None;
    if final_lambda < lambda_hat {
        for (alpha, prefix, _) in worker_best {
            if alpha == final_lambda {
                best_prefix = prefix;
                break;
            }
        }
        debug_assert!(
            best_prefix.is_some(),
            "an improved bound must have a witnessing worker"
        );
    }
    ParCapforestOutcome {
        cuf,
        lambda_hat: final_lambda,
        best_prefix,
        pq_ops,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    g: &CsrGraph,
    initial_lambda: EdgeWeight,
    seed: u64,
    visited: &[AtomicBool],
    cuf: &ConcurrentUnionFind,
    lambda: &AtomicU64,
    claimed: &AtomicUsize,
    cursor: &AtomicUsize,
    q: &mut dyn DynPq,
    ws: &mut WorkerCore<'_>,
) -> (EdgeWeight, Option<Vec<NodeId>>, PqCounters) {
    let n = g.n();
    let mut rng = SmallRng::seed_from_u64(seed);
    let epoch = ws.epoch;
    // Bucket queues need the *initial* bound: λ̂ only decreases, so every
    // capped priority fits.
    q.reset(n, initial_lambda);

    let mut alpha: i128 = 0;
    let mut best_alpha = EdgeWeight::MAX;
    let mut best_len = 0usize;

    'outer: loop {
        // Find a fresh start vertex: a few random probes, then the cursor.
        let mut start = None;
        for _ in 0..16 {
            let v = rng.gen_range(0..n as NodeId);
            if !visited[v as usize].load(Ordering::Relaxed) {
                start = Some(v);
                break;
            }
        }
        if start.is_none() {
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break 'outer;
                }
                if !visited[i].load(Ordering::Relaxed) {
                    start = Some(i as NodeId);
                    break;
                }
            }
        }
        let Some(start) = start else { break };
        if ws.stamp[start as usize] == epoch {
            continue; // we already processed it ourselves; try again
        }
        q.push(start, 0);
        ws.stamp[start as usize] = epoch;
        ws.state[start as usize] = QUEUED;
        ws.r[start as usize] = 0;

        while let Some((x, _)) = q.pop_max() {
            let xi = x as usize;
            // Claim or blacklist (Algorithm 1 lines 9–13, with an atomic
            // swap so "visited exactly once" holds without locking).
            if visited[xi].swap(true, Ordering::AcqRel) {
                ws.state[xi] = BLACKLISTED;
                continue;
            }
            ws.state[xi] = SCANNED;
            claimed.fetch_add(1, Ordering::Relaxed);
            ws.region.push(x);
            // Lines 14–15: the cut between this worker's region and the
            // rest; only proper subsets count.
            alpha += g.weighted_degree(x) as i128 - 2 * ws.r[xi] as i128;
            debug_assert!(alpha >= 0);
            if (ws.region.len() as u64) < n as u64 && (alpha as u64) < best_alpha {
                // Proper subset? The region is a subset of the claimed set;
                // it equals V only if this worker claimed everything.
                if ws.region.len() < n {
                    best_alpha = alpha as u64;
                    best_len = ws.region.len();
                    fetch_min(lambda, best_alpha);
                }
            }

            let lam_now = lambda.load(Ordering::Relaxed);
            // Same lookahead-prefetch walk as the sequential scan
            // (capforest.rs): the per-worker r/stamp lookups are the
            // latency-bound accesses; arc order — and with it the queue
            // operation stream — is unchanged.
            let (nbrs, wts) = g.arc_slices(x);
            const LOOKAHEAD: usize = 8;
            for j in 0..nbrs.len() {
                if let Some(&ahead) = nbrs.get(j + LOOKAHEAD) {
                    mincut_ds::simd::prefetch_read(ws.stamp, ahead as usize);
                    mincut_ds::simd::prefetch_read(ws.r, ahead as usize);
                }
                let (y, w) = (nbrs[j], wts[j]);
                let yi = y as usize;
                let fresh = ws.stamp[yi] != epoch;
                if !fresh && ws.state[yi] != QUEUED {
                    continue; // scanned by us or blacklisted (line 16)
                }
                let ry = if fresh { 0 } else { ws.r[yi] };
                // Line 17: the connectivity certificate crosses λ̂.
                if ry < lam_now && lam_now <= ry + w {
                    cuf.union(x, y);
                }
                ws.r[yi] = ry + w;
                let prio = (ry + w).min(lam_now).min(initial_lambda);
                if fresh {
                    q.push(y, prio);
                    ws.stamp[yi] = epoch;
                    ws.state[yi] = QUEUED;
                } else {
                    // y is still queued; keep the key monotone.
                    if prio > q.priority(y) {
                        q.raise(y, prio);
                    }
                }
            }
        }
        if claimed.load(Ordering::Relaxed) >= n {
            break;
        }
    }

    let witness = (best_alpha != EdgeWeight::MAX).then(|| ws.region[..best_len].to_vec());
    (best_alpha, witness, q.take_ops())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    fn run<P: MaxPq + Send>(g: &CsrGraph, lh: EdgeWeight, threads: usize) -> ParCapforestOutcome {
        parallel_capforest::<P>(g, lh, threads, 12345)
    }

    #[test]
    fn every_vertex_claimed_once() {
        let (g, _) = known::grid_graph(16, 16, 1);
        for threads in [1, 2, 4] {
            let out = run::<BQueuePq>(&g, g.min_weighted_degree().unwrap().1, threads);
            // The union-find exists over all vertices; claiming is internal,
            // but the observable invariant is: λ̂ never below λ = 2.
            assert!(out.lambda_hat >= 2);
        }
    }

    #[test]
    fn lambda_never_below_true_minimum() {
        let (g, lambda) = known::two_communities(12, 12, 2, 2, 1);
        for threads in [1, 2, 4] {
            for _ in 0..3 {
                let out = run::<BinaryHeapPq>(&g, g.min_weighted_degree().unwrap().1, threads);
                assert!(out.lambda_hat >= lambda);
                if let Some(prefix) = &out.best_prefix {
                    let mut side = vec![false; g.n()];
                    for &v in prefix {
                        side[v as usize] = true;
                    }
                    assert_eq!(g.cut_value(&side), out.lambda_hat, "witness must be exact");
                }
            }
        }
    }

    #[test]
    fn marked_edges_have_high_connectivity() {
        // On two dense cliques joined weakly, no cross edge may be marked.
        let (g, _) = known::two_communities(10, 10, 2, 4, 1);
        for threads in [1, 2, 4] {
            let out = run::<BStackPq>(&g, g.min_weighted_degree().unwrap().1, threads);
            for u in 0..10u32 {
                for v in 10..20u32 {
                    assert!(
                        !out.cuf.same(u, v),
                        "cross-clique pair ({u},{v}) must not be united ({threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn single_thread_claims_whole_connected_graph() {
        let (g, _) = known::cycle_graph(64, 1);
        let out = run::<BinaryHeapPq>(&g, 2, 1);
        // λ̂ = 2 is the true minimum; prefix cuts cannot beat it.
        assert_eq!(out.lambda_hat, 2);
    }

    #[test]
    fn disconnected_graph_reports_zero_bound() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 3), (1, 2, 3), (3, 4, 3), (4, 5, 3)]);
        let out = run::<BinaryHeapPq>(&g, 100, 2);
        // Some worker's region closes at a full component: a zero cut.
        assert_eq!(out.lambda_hat, 0);
        let prefix = out.best_prefix.expect("witness for the improvement");
        let mut side = vec![false; g.n()];
        for &v in prefix.iter() {
            side[v as usize] = true;
        }
        assert_eq!(g.cut_value(&side), 0);
    }

    #[test]
    fn pooled_rounds_match_fresh_state_at_one_thread() {
        // With one worker the round is deterministic, so a pooled pool
        // re-run must be op-for-op identical to fresh per-call state —
        // across several rounds and queue kinds, proving no state leaks
        // between epochs.
        let mut pool = ParWorkerPool::new();
        let graphs = [
            known::grid_graph(9, 9, 2).0,
            known::two_communities(12, 13, 2, 3, 1).0,
            known::cycle_graph(50, 4).0,
        ];
        for round in 0..3 {
            for g in &graphs {
                let bound = g.min_weighted_degree().unwrap().1;
                for pq in PqKind::ALL {
                    let pooled = parallel_capforest_pooled(g, bound, 1, 777, pq, &mut pool);
                    let fresh = match pq {
                        PqKind::BStack => {
                            parallel_capforest::<CountingPq<BStackPq>>(g, bound, 1, 777)
                        }
                        PqKind::BQueue => {
                            parallel_capforest::<CountingPq<BQueuePq>>(g, bound, 1, 777)
                        }
                        PqKind::Heap => {
                            parallel_capforest::<CountingPq<BinaryHeapPq>>(g, bound, 1, 777)
                        }
                    };
                    assert_eq!(pooled.lambda_hat, fresh.lambda_hat, "round {round}");
                    assert_eq!(pooled.best_prefix, fresh.best_prefix);
                    assert_eq!(pooled.pq_ops, fresh.pq_ops);
                    assert_eq!(pooled.cuf.count(), fresh.cuf.count());
                }
            }
        }
    }
}
