//! The CAPFOREST scan of Nagamochi, Ono and Ibaraki, with the paper's
//! λ̂-bounded priority queue optimisation (§3.1.2, Lemma 3.1).
//!
//! One pass scans the whole graph in maximum-adjacency-like order: it
//! repeatedly pops the vertex `x` most strongly connected (`r(x)`) to the
//! already-scanned set and raises `r(y)` by `c(x, y)` for every unscanned
//! neighbour `y`. While scanning the edge `(x, y)` the lower bound
//! `q(x, y) = r(y)` certifies `q(e) ≤ λ(G, x, y)`, so any edge whose `r`
//! value crosses the current upper bound λ̂ (`r(y) < λ̂ ≤ r(y) + c(e)`)
//! connects two vertices with connectivity ≥ λ̂ and is *marked contractible*
//! in a union-find structure (the graph itself is untouched; collapsing
//! happens in a postprocessing step, §3.2).
//!
//! The pass simultaneously tracks `α`, the value of the cut between the
//! scanned prefix and the rest, and lowers λ̂ whenever a prefix cut beats
//! it (lines 14–15 of Algorithm 1) — for the first scanned vertex this is
//! exactly the trivial degree cut. The fixed-bound mode
//! ([`capforest_fixed`]) skips that step, so its marks certify
//! connectivity at least a bound the caller chose: at λ + 1 they name
//! edges in no minimum cut, which the cactus contracts before it
//! enumerates.
//!
//! With the bound enabled, queue priorities are capped at λ̂
//! (`Q(y) ← min(r(y), λ̂)`): vertices whose priority already reached λ̂ stop
//! paying queue updates. Lemma 3.1 of the paper shows the marked edges are
//! still safely contractible.
//!
//! # Hot-path layout
//!
//! The scan is the dominant cost of every NOI-family solver, so its state
//! lives in a persistent [`ScanScratch`] (SoA: `r` values, visited stamps,
//! the tight-edge marks folded into the union-find, the scan order) that
//! drivers pool across contraction rounds and solver calls through a
//! `ScanWorkspace`. Per-pass "clearing" is an epoch bump for the stamped
//! arrays and an O(1) queue [`MaxPq::reset`]; after the first pass at a
//! given size the scan performs **no heap allocation at all**
//! (`crates/core/tests/scan_alloc.rs` proves this with a counting global
//! allocator).

use mincut_ds::{MaxPq, PqCounters, UnionFind};
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};

/// Outcome of one standalone CAPFOREST pass (the owning variant returned
/// by [`capforest`]; pooled drivers use [`capforest_with`] + the scratch).
pub struct CapforestOutcome {
    /// Union-find over the current graph's vertices; non-singleton blocks
    /// are the marked contractions.
    pub uf: UnionFind,
    /// Number of successful unions (0 means the pass found nothing; the
    /// caller falls back to a Stoer–Wagner phase for guaranteed progress).
    pub unions: usize,
    /// Possibly improved upper bound λ̂ (minimum over the input bound and
    /// all proper prefix cuts α seen during the scan).
    pub lambda_hat: EdgeWeight,
    /// Scan order of the pass (vertices in the order they were scanned).
    pub scan_order: Vec<NodeId>,
    /// If the pass improved λ̂, the length of the prefix of `scan_order`
    /// that witnesses the best cut.
    pub best_prefix_len: Option<usize>,
    /// Queue operation tallies of the pass (zero unless `P` counts).
    pub pq_ops: PqCounters,
}

impl CapforestOutcome {
    /// The witness side of the improved bound, if any: the scanned prefix.
    pub fn best_prefix(&self) -> Option<&[NodeId]> {
        self.best_prefix_len.map(|l| &self.scan_order[..l])
    }
}

/// Plain-old-data result of a pooled pass; the heavy state (union-find,
/// scan order) stays in the [`ScanScratch`].
#[derive(Clone, Copy, Debug)]
pub struct ScanInfo {
    /// Successful unions of the pass (see [`CapforestOutcome::unions`]).
    pub unions: usize,
    /// Possibly improved upper bound λ̂.
    pub lambda_hat: EdgeWeight,
    /// Witnessing prefix length of `scratch.order()` if λ̂ improved.
    pub best_prefix_len: Option<usize>,
}

/// Persistent per-thread scan state, pooled across contraction rounds and
/// solver calls. All arrays grow to the high-water mark of the graphs
/// scanned and are never shrunk or re-zeroed: validity is tracked by an
/// epoch stamp per vertex (`SEEN` = has an `r` value, `DONE` = scanned),
/// exactly like the intrusive queues' membership stamps.
pub struct ScanScratch {
    /// Tight-edge marks of the last pass: endpoints united whenever an
    /// edge's `r` crossing certified connectivity ≥ λ̂.
    uf: UnionFind,
    /// `r(v)`: total weight from v into the scanned region. Valid iff
    /// `stamp[v] >= epoch` (0 otherwise).
    r: Vec<EdgeWeight>,
    /// `epoch` = SEEN (frontier, `r` valid), `epoch + 1` = DONE (scanned).
    stamp: Vec<u32>,
    /// Advances by 2 per pass.
    epoch: u32,
    /// Scan order of the last pass.
    order: Vec<NodeId>,
}

impl Default for ScanScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanScratch {
    pub fn new() -> Self {
        ScanScratch {
            uf: UnionFind::new(0),
            r: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            order: Vec::new(),
        }
    }

    /// Prepares for a pass over `n` vertices: bumps the epoch, grows the
    /// arrays if `n` is a new high-water mark, resets the union-find.
    fn begin_pass(&mut self, n: usize) {
        if self.epoch >= u32::MAX - 3 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 2;
        if self.r.len() < n {
            self.r.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.order.clear();
        self.uf.reset(n);
    }

    /// Scan order of the last pass.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Tight-edge marks of the last pass.
    pub fn uf_mut(&mut self) -> &mut UnionFind {
        &mut self.uf
    }
}

/// Runs one CAPFOREST pass over `g` starting from `start`, using the
/// caller's queue and scratch (both reused across passes; see the module
/// docs). Results land in `scratch` (`order`, `uf`); the returned
/// [`ScanInfo`] carries the scalars.
///
/// * `lambda_hat` — current upper bound on the minimum cut (the trivial
///   minimum-degree bound, a VieCut result, or the bound carried over from
///   earlier passes).
/// * `bounded` — if true, queue priorities are capped at λ̂ (the paper's
///   NOIλ̂ variants); if false, priorities are exact `r` values (plain
///   NOI-HNSS). Bucket queues require `bounded` (their bucket count is the
///   priority range).
///
/// Works on disconnected graphs too: vertices unreachable from `start` are
/// simply never scanned (the parallel driver handles restarts; the
/// sequential driver pre-splits components).
pub fn capforest_with<P: MaxPq>(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    start: NodeId,
    bounded: bool,
    q: &mut P,
    scratch: &mut ScanScratch,
) -> ScanInfo {
    scan(g, lambda_hat, start, bounded, false, q, scratch)
}

/// The fixed-bound mode of [`capforest_with`]: the same pass with its
/// queue capped at `bound`, except that the bound never drops. A prefix
/// cut cheaper than `bound` is not taken, so every union certifies
/// λ(x, y) ≥ `bound` for the bound the caller chose. At `bound` = λ + 1
/// every united pair is more than λ-connected, so no minimum cut
/// separates it and contracting the blocks keeps every minimum cut: the
/// cactus enumeration's kernel ([`crate::cactus::enumerate`]). The
/// returned [`ScanInfo`] reports `lambda_hat == bound` and no prefix.
pub fn capforest_fixed<P: MaxPq>(
    g: &CsrGraph,
    bound: EdgeWeight,
    start: NodeId,
    q: &mut P,
    scratch: &mut ScanScratch,
) -> ScanInfo {
    scan(g, bound, start, true, true, q, scratch)
}

/// The one scan body of [`capforest_with`] and [`capforest_fixed`]
/// (`fixed`: the bound never drops).
fn scan<P: MaxPq>(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    start: NodeId,
    bounded: bool,
    fixed: bool,
    q: &mut P,
    scratch: &mut ScanScratch,
) -> ScanInfo {
    let n = g.n();
    assert!((start as usize) < n);
    // One span per pass, not per edge: the disabled path is a single
    // relaxed load, which is what keeps the warm scan allocation-free
    // (`tests/scan_alloc.rs`) and the `hotpath` bench within noise.
    let mut _sp = mincut_obs::span("capforest/scan");
    _sp.arg("n", n);
    _sp.arg("lambda_hat", lambda_hat);
    scratch.begin_pass(n);
    let seen = scratch.epoch;
    let done = scratch.epoch + 1;
    let mut unions = 0usize;
    let mut lambda = lambda_hat;
    // Bucket queues address `max_priority + 1` buckets; the priorities we
    // feed are capped at the *initial* λ̂ (λ̂ only decreases during a pass).
    q.reset(n, if bounded { lambda_hat } else { u64::MAX });

    let mut best_prefix_len: Option<usize> = None;
    let mut alpha: i128 = 0;

    q.push(start, 0);
    scratch.stamp[start as usize] = seen;
    scratch.r[start as usize] = 0;
    while let Some((x, _)) = q.pop_max() {
        let xi = x as usize;
        scratch.stamp[xi] = done;
        scratch.order.push(x);
        // α tracks c(scanned, unscanned): scanning x adds its edges to the
        // outside and removes the (doubled) edges into the prefix.
        alpha += g.weighted_degree(x) as i128 - 2 * scratch.r[xi] as i128;
        debug_assert!(alpha >= 0);
        // A proper prefix (not all of V) is a real cut; compare to λ̂.
        if !fixed && scratch.order.len() < n && (alpha as u64) < lambda {
            lambda = alpha as u64;
            best_prefix_len = Some(scratch.order.len());
        }
        // Indexed arc-slice walk instead of the zip iterator so the
        // r/stamp entries of upcoming neighbours can be prefetched a few
        // arcs ahead — those are the random, latency-bound accesses of
        // the scan (the arc stream itself is sequential and the hardware
        // prefetcher covers it). Arc order is unchanged, so the queue
        // operation stream is bit-identical to the plain loop.
        let (nbrs, wts) = g.arc_slices(x);
        const LOOKAHEAD: usize = 8;
        for j in 0..nbrs.len() {
            if let Some(&ahead) = nbrs.get(j + LOOKAHEAD) {
                mincut_ds::simd::prefetch_read(&scratch.stamp, ahead as usize);
                mincut_ds::simd::prefetch_read(&scratch.r, ahead as usize);
            }
            let (y, w) = (nbrs[j], wts[j]);
            let yi = y as usize;
            let ystamp = scratch.stamp[yi];
            if ystamp == done {
                continue;
            }
            let fresh = ystamp != seen;
            let ry = if fresh { 0 } else { scratch.r[yi] };
            // Line 17: the scanned edge certifies connectivity ≥ λ̂ exactly
            // when r(y) crosses the bound.
            if ry < lambda && lambda <= ry + w && scratch.uf.union(x, y) {
                unions += 1;
            }
            scratch.r[yi] = ry + w;
            scratch.stamp[yi] = seen;
            let prio = if bounded {
                (ry + w).min(lambda)
            } else {
                ry + w
            };
            if fresh {
                q.push(y, prio);
            } else {
                // λ̂ may have dropped below the priority stored earlier in
                // the pass; keys are kept monotone (never lowered), which
                // only affects tie-breaking among vertices that already
                // reached the bound (see Lemma 3.1 — any such vertex is a
                // valid next scan).
                if prio > q.priority(y) {
                    q.raise(y, prio);
                }
            }
        }
    }

    ScanInfo {
        unions,
        lambda_hat: lambda,
        best_prefix_len,
    }
}

/// Standalone variant of [`capforest_with`]: allocates a fresh queue and
/// scratch per call and returns an owning [`CapforestOutcome`]. Handy for
/// tests and one-shot callers; round loops should hold a
/// `ScanWorkspace` instead.
pub fn capforest<P: MaxPq>(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    start: NodeId,
    bounded: bool,
) -> CapforestOutcome {
    let mut q = P::new();
    let mut scratch = ScanScratch::new();
    let info = capforest_with(g, lambda_hat, start, bounded, &mut q, &mut scratch);
    CapforestOutcome {
        uf: scratch.uf,
        unions: info.unions,
        lambda_hat: info.lambda_hat,
        scan_order: scratch.order,
        best_prefix_len: info.best_prefix_len,
        pq_ops: q.take_ops(),
    }
}

/// Largest bound the bucket queues accept: they address Θ(bound) bucket
/// slots, so passes with a larger bound fall back to the binary heap.
pub(crate) const MAX_BUCKET_BOUND: EdgeWeight = 1 << 26;

/// One solver's worth of pooled scan state: the [`ScanScratch`] plus one
/// instrumented instance of each queue implementation, so the bound-capped
/// per-pass dispatch (bucket queues only under [`MAX_BUCKET_BOUND`],
/// unbounded passes on the heap) can switch queues without dropping warm
/// allocations. Every sequential driver (NOI, the ParCut rescue path)
/// holds one workspace for the lifetime of its solve, and the cactus
/// kernel one for its fixed-bound passes.
pub(crate) struct ScanWorkspace {
    scratch: ScanScratch,
    bstack: mincut_ds::CountingPq<mincut_ds::BStackPq>,
    bqueue: mincut_ds::CountingPq<mincut_ds::BQueuePq>,
    heap: mincut_ds::CountingPq<mincut_ds::BinaryHeapPq>,
}

impl ScanWorkspace {
    pub fn new() -> Self {
        ScanWorkspace {
            scratch: ScanScratch::new(),
            bstack: MaxPq::new(),
            bqueue: MaxPq::new(),
            heap: MaxPq::new(),
        }
    }

    /// One scan pass with the requested queue kind, sharing the
    /// bound-capped dispatch between every driver. Unbounded passes
    /// (`bounded == false`) require the heap.
    pub fn scan(
        &mut self,
        g: &CsrGraph,
        bound: EdgeWeight,
        start: NodeId,
        pq: mincut_ds::PqKind,
        bounded: bool,
    ) -> ScanInfo {
        use mincut_ds::PqKind;
        let s = &mut self.scratch;
        if !bounded {
            return capforest_with(g, bound, start, false, &mut self.heap, s);
        }
        match pq {
            PqKind::BStack if bound <= MAX_BUCKET_BOUND => {
                capforest_with(g, bound, start, true, &mut self.bstack, s)
            }
            PqKind::BQueue if bound <= MAX_BUCKET_BOUND => {
                capforest_with(g, bound, start, true, &mut self.bqueue, s)
            }
            // Heap, or a bound too large for bucket arrays.
            _ => capforest_with(g, bound, start, true, &mut self.heap, s),
        }
    }

    /// A fixed-bound pass ([`capforest_fixed`]) on the bucket stack, or on
    /// the heap when the bound is too large for bucket arrays.
    pub fn scan_fixed(&mut self, g: &CsrGraph, bound: EdgeWeight, start: NodeId) -> ScanInfo {
        let s = &mut self.scratch;
        if bound <= MAX_BUCKET_BOUND {
            capforest_fixed(g, bound, start, &mut self.bstack, s)
        } else {
            capforest_fixed(g, bound, start, &mut self.heap, s)
        }
    }

    /// Queue-operation tallies since the last take, summed over the three
    /// queues; drivers feed this into `SolverStats` after each pass.
    pub fn take_ops(&mut self) -> PqCounters {
        let mut ops = self.bstack.take_ops();
        ops.add(self.bqueue.take_ops());
        ops.add(self.heap.take_ops());
        ops
    }

    /// Scan order of the last pass.
    pub fn order(&self) -> &[NodeId] {
        self.scratch.order()
    }

    /// Tight-edge marks of the last pass.
    pub fn uf_mut(&mut self) -> &mut UnionFind {
        self.scratch.uf_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_ds::{BQueuePq, BStackPq, BinaryHeapPq};
    use mincut_graph::generators::known;

    fn run_all_queues(g: &CsrGraph, lambda_hat: EdgeWeight) -> Vec<CapforestOutcome> {
        vec![
            capforest::<BStackPq>(g, lambda_hat, 0, true),
            capforest::<BQueuePq>(g, lambda_hat, 0, true),
            capforest::<BinaryHeapPq>(g, lambda_hat, 0, true),
            capforest::<BinaryHeapPq>(g, lambda_hat, 0, false),
        ]
    }

    #[test]
    fn scans_every_vertex_of_connected_graph() {
        let (g, _) = known::grid_graph(4, 5, 1);
        for out in run_all_queues(&g, g.min_weighted_degree().unwrap().1) {
            assert_eq!(out.scan_order.len(), g.n());
        }
    }

    #[test]
    fn first_prefix_cut_is_start_degree() {
        let (g, _) = known::star_graph(6, 3);
        // Start at a leaf: its degree 3 is a prefix cut; λ̂ = 100 improves.
        let out = capforest::<BinaryHeapPq>(&g, 100, 1, true);
        assert!(out.lambda_hat <= 3);
        let side_len = out.best_prefix_len.unwrap();
        let side = &out.scan_order[..side_len];
        let mut bits = vec![false; g.n()];
        for &v in side {
            bits[v as usize] = true;
        }
        assert_eq!(g.cut_value(&bits), out.lambda_hat);
    }

    #[test]
    fn prefix_cuts_never_beat_minimum_cut() {
        // λ̂ can never drop below λ because every α is a real cut.
        let (g, lambda) = known::two_communities(5, 5, 2, 2, 1);
        for out in run_all_queues(&g, g.min_weighted_degree().unwrap().1) {
            assert!(out.lambda_hat >= lambda);
        }
    }

    #[test]
    fn marked_edges_have_connectivity_at_least_lambda_hat() {
        // Exhaustively verify the certificate on a small weighted graph:
        // every marked pair (u, v) must have min s-t cut ≥ λ̂ at marking
        // time ≥ final λ̂... we check against the *initial* λ̂ lowered to
        // the final one, the weakest sound claim, using max-flow.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 4),
                (1, 2, 4),
                (2, 0, 4),
                (3, 4, 4),
                (4, 5, 4),
                (5, 3, 4),
                (0, 3, 1),
                (1, 4, 1),
            ],
        );
        let delta = g.min_weighted_degree().unwrap().1;
        for out in run_all_queues(&g, delta) {
            let mut uf = out.uf.clone();
            for u in 0..g.n() as NodeId {
                for v in 0..u {
                    if uf.same(u, v) {
                        let cut = mincut_flow::max_flow(&g, u, v).value;
                        assert!(
                            cut >= out.lambda_hat,
                            "marked pair ({u},{v}) has connectivity {cut} < λ̂ {}",
                            out.lambda_hat
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_bound_never_drops_and_unites_only_pairs_above_it() {
        // Two weight-3 triangles joined by a unit bridge, λ = 1: from any
        // start the scan finishes one triangle first, a prefix cut of
        // value λ. The lowering scan takes it; the fixed-bound scan at
        // λ + 1 keeps its bound, so every pair it unites is more than
        // λ-connected.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1, 3),
                (1, 2, 3),
                (2, 0, 3),
                (3, 4, 3),
                (4, 5, 3),
                (5, 3, 3),
                (2, 3, 1),
            ],
        );
        let lambda = 1;
        for start in 0..g.n() as NodeId {
            let lowering = capforest::<BinaryHeapPq>(&g, lambda + 1, start, true);
            assert_eq!(lowering.lambda_hat, lambda, "start {start}");
            assert_fixed_certifies::<BStackPq>(&g, lambda, start);
            assert_fixed_certifies::<BQueuePq>(&g, lambda, start);
            assert_fixed_certifies::<BinaryHeapPq>(&g, lambda, start);
        }
    }

    fn assert_fixed_certifies<P: MaxPq>(g: &CsrGraph, lambda: EdgeWeight, start: NodeId) {
        let (mut q, mut scratch) = (P::new(), ScanScratch::new());
        let info = capforest_fixed(g, lambda + 1, start, &mut q, &mut scratch);
        assert_eq!(
            info.lambda_hat,
            lambda + 1,
            "start {start}: the bound moved"
        );
        assert_eq!(info.best_prefix_len, None);
        assert!(
            info.unions > 0,
            "start {start}: the triangles are 6-connected"
        );
        for u in 0..g.n() as NodeId {
            for v in 0..u {
                if scratch.uf.same(u, v) {
                    let flow = mincut_flow::max_flow(g, u, v).value;
                    assert!(flow > lambda, "united ({u},{v}) is only {flow}-connected");
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_scans_one_component() {
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 1), (3, 4, 1)]);
        let out = capforest::<BinaryHeapPq>(&g, 10, 0, true);
        assert_eq!(out.scan_order.len(), 3);
        // The full scanned component is a proper prefix with cut 0.
        assert_eq!(out.lambda_hat, 0);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_edges(1, &[]);
        let out = capforest::<BinaryHeapPq>(&g, 5, 0, true);
        assert_eq!(out.scan_order, vec![0]);
        assert_eq!(out.lambda_hat, 5); // no proper prefix exists
        assert_eq!(out.unions, 0);
    }

    #[test]
    fn unbounded_and_bounded_agree_on_lambda_when_no_capping() {
        // With λ̂ far above all priorities, bounded == unbounded behaviour.
        let (g, _) = known::grid_graph(5, 5, 2);
        let a = capforest::<BinaryHeapPq>(&g, 1_000_000, 0, true);
        let b = capforest::<BinaryHeapPq>(&g, 1_000_000, 0, false);
        assert_eq!(a.lambda_hat, b.lambda_hat);
        assert_eq!(a.scan_order, b.scan_order);
        assert_eq!(a.unions, b.unions);
    }

    #[test]
    fn reused_workspace_matches_fresh_passes() {
        // One workspace across many graphs and queue kinds must be
        // pass-for-pass identical to throwaway state.
        let graphs = [
            known::grid_graph(6, 7, 2).0,
            known::two_communities(8, 9, 2, 3, 1).0,
            known::ring_of_cliques(4, 5, 2, 1).0,
        ];
        let mut ws = ScanWorkspace::new();
        for round in 0..3 {
            for g in &graphs {
                let bound = g.min_weighted_degree().unwrap().1;
                for pq in mincut_ds::PqKind::ALL {
                    let info = ws.scan(g, bound, 0, pq, true);
                    let fresh = counting_capforest(g, bound, 0, pq, true);
                    assert_eq!(info.lambda_hat, fresh.lambda_hat, "round {round}");
                    assert_eq!(info.unions, fresh.unions);
                    assert_eq!(info.best_prefix_len, fresh.best_prefix_len);
                    assert_eq!(ws.order(), &fresh.scan_order[..]);
                    assert_eq!(ws.take_ops(), fresh.pq_ops);
                }
            }
        }
    }

    // Fresh-state reference for the workspace test: the same dispatch,
    // throwaway instrumented queues.
    fn counting_capforest(
        g: &CsrGraph,
        bound: EdgeWeight,
        start: NodeId,
        pq: mincut_ds::PqKind,
        bounded: bool,
    ) -> CapforestOutcome {
        use mincut_ds::{CountingPq, PqKind};
        if !bounded {
            return capforest::<CountingPq<BinaryHeapPq>>(g, bound, start, false);
        }
        match pq {
            PqKind::BStack if bound <= MAX_BUCKET_BOUND => {
                capforest::<CountingPq<BStackPq>>(g, bound, start, true)
            }
            PqKind::BQueue if bound <= MAX_BUCKET_BOUND => {
                capforest::<CountingPq<BQueuePq>>(g, bound, start, true)
            }
            _ => capforest::<CountingPq<BinaryHeapPq>>(g, bound, start, true),
        }
    }
}
