//! Shared-memory parallel label propagation (Raghavan et al.), the
//! clustering engine inside VieCut (§2.4).
//!
//! Every vertex starts in its own cluster; in each iteration every vertex
//! adopts the label with the largest incident edge-weight sum among its
//! neighbours. Vertices are processed in a random order, in parallel
//! chunks; label reads are intentionally unsynchronised (the algorithm is
//! a heuristic — racy reads only change which near-optimal clustering is
//! found, mirroring the asynchronous implementation the paper builds on).

use std::sync::atomic::{AtomicU32, Ordering};

use mincut_ds::hash::FxHashMap;
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Runs `iterations` rounds of label propagation; returns dense cluster
/// labels in `[0, count)` and the cluster count.
///
/// Above this vertex count the per-chunk flat tally (two O(n) arrays per
/// chunk task) would dominate the arc work, so large graphs keep the
/// degree-bounded hash tally instead. Both tallies choose identical
/// labels (the running best depends only on arc order), so the switch is
/// invisible to callers.
const FLAT_TALLY_MAX_N: usize = 1 << 16;

/// Below this many arcs the chunked parallel machinery loses outright:
/// the shim spawns scoped threads per `par_chunks` call and the shared
/// label array ping-pongs between cores, which measures ~5× slower than
/// a plain sequential pass at a few thousand vertices on a 2-core box.
/// Such graphs take [`label_propagation_sequential`] instead — same
/// visit order, same tally, no atomics — which is also the path the SIMD
/// label gather needs (a plain `&[u32]` table; gathering through
/// `AtomicU32`s that other workers may be storing to would be UB).
const PAR_LP_MIN_ARCS: usize = 1 << 20;

/// The per-vertex tally is a flat epoch-stamped array indexed by label —
/// one L1-friendly indexed add per arc instead of the hash probe the
/// previous implementation paid (labels converge to a handful of hot
/// slots after the first iteration, so the accesses stay cache-resident).
/// The flat array is sized O(n) per chunk task, so graphs past
/// `FLAT_TALLY_MAX_N` use the hash tally. The running best is evaluated
/// incrementally in arc order either way, exactly what the old
/// implementation did, so the chosen labels are bit-identical
/// (`flat_tally_matches_hash_tally` pins this against the frozen baseline
/// [`label_propagation_hash_tally`]).
///
/// Graphs under `PAR_LP_MIN_ARCS` run the sequential SIMD path; at one
/// rayon worker it is bit-identical to the chunked path (chunks run
/// inline in order there, so both are the same sequential visit order).
pub fn label_propagation(g: &CsrGraph, iterations: usize, seed: u64) -> (Vec<NodeId>, usize) {
    let n = g.n();
    if n == 0 {
        return (Vec::new(), 0);
    }
    if n <= FLAT_TALLY_MAX_N
        && (g.num_arcs() < PAR_LP_MIN_ARCS || rayon::current_num_threads() == 1)
    {
        return label_propagation_sequential(g, iterations, seed);
    }
    let labels: Vec<AtomicU32> = (0..n as NodeId).map(AtomicU32::new).collect();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for _ in 0..iterations {
        // New shuffle each round, as in the reference implementation.
        order = mincut_graph::generators::random_permutation(n, &mut rng)
            .into_iter()
            .map(|p| order[p as usize])
            .collect();
        const CHUNK: usize = 1 << 10;
        if n <= FLAT_TALLY_MAX_N {
            order.par_chunks(CHUNK).for_each(|chunk| {
                // Per-chunk scratch: `tally[l]` is valid iff `stamp[l]`
                // holds the current vertex's epoch, so no clearing
                // between vertices. One allocation per chunk, amortised
                // over up to CHUNK vertices' arcs.
                let mut tally: Vec<EdgeWeight> = vec![0; n];
                let mut stamp: Vec<u32> = vec![0; n];
                let mut epoch = 0u32;
                for (i, &v) in chunk.iter().enumerate() {
                    // Pull the next vertex's arc stream into cache while
                    // this one's tally runs.
                    if let Some(&next) = chunk.get(i + 1) {
                        g.prefetch_arcs(next);
                    }
                    epoch += 1;
                    let mut best_label = labels[v as usize].load(Ordering::Relaxed);
                    let mut best_weight = 0;
                    for (u, w) in g.arcs(v) {
                        let lu = labels[u as usize].load(Ordering::Relaxed);
                        let li = lu as usize;
                        let e = if stamp[li] == epoch { tally[li] + w } else { w };
                        tally[li] = e;
                        stamp[li] = epoch;
                        if e > best_weight || (e == best_weight && lu < best_label) {
                            best_weight = e;
                            best_label = lu;
                        }
                    }
                    if best_weight > 0 {
                        labels[v as usize].store(best_label, Ordering::Relaxed);
                    }
                }
            });
        } else {
            order.par_chunks(CHUNK).for_each(|chunk| {
                let mut tally: FxHashMap<NodeId, EdgeWeight> = FxHashMap::default();
                for &v in chunk {
                    tally.clear();
                    let mut best_label = labels[v as usize].load(Ordering::Relaxed);
                    let mut best_weight = 0;
                    for (u, w) in g.arcs(v) {
                        let lu = labels[u as usize].load(Ordering::Relaxed);
                        let e = tally.entry(lu).or_insert(0);
                        *e += w;
                        if *e > best_weight || (*e == best_weight && lu < best_label) {
                            best_weight = *e;
                            best_label = lu;
                        }
                    }
                    if best_weight > 0 {
                        labels[v as usize].store(best_label, Ordering::Relaxed);
                    }
                }
            });
        }
    }

    // Dense relabelling.
    const UNSET: NodeId = NodeId::MAX;
    let mut remap = vec![UNSET; n];
    let mut out = vec![0 as NodeId; n];
    let mut next = 0 as NodeId;
    for v in 0..n {
        let l = labels[v].load(Ordering::Relaxed) as usize;
        if remap[l] == UNSET {
            remap[l] = next;
            next += 1;
        }
        out[v] = remap[l];
    }
    (out, next as usize)
}

/// Sequential flat-tally propagation, the small-graph fast path: plain
/// `u32` labels (no atomics — nothing else writes them), one tally/stamp
/// scratch pair reused across all iterations with a continuing epoch
/// counter, the neighbour-label indirection batched through
/// [`mincut_ds::simd::gather_u32`], and the next vertex's arc stream
/// prefetched while the current tally runs.
///
/// Bit-identity with the chunked path at one worker: the chunked path
/// runs its chunks inline in order there, which is exactly this visit
/// order, and the tally updates the running best in identical arc order
/// (the gather only hoists the label loads — within one vertex's scan no
/// label can change).
fn label_propagation_sequential(
    g: &CsrGraph,
    iterations: usize,
    seed: u64,
) -> (Vec<NodeId>, usize) {
    let n = g.n();
    let mut labels: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut tally: Vec<EdgeWeight> = vec![0; n];
    let mut stamp: Vec<u32> = vec![0; n];
    let mut gathered: Vec<u32> = Vec::new();
    let mut epoch = 0u32;
    for _ in 0..iterations {
        order = mincut_graph::generators::random_permutation(n, &mut rng)
            .into_iter()
            .map(|p| order[p as usize])
            .collect();
        for (i, &v) in order.iter().enumerate() {
            if let Some(&next) = order.get(i + 1) {
                g.prefetch_arcs(next);
            }
            epoch += 1;
            let (nbrs, wts) = g.arc_slices(v);
            gathered.resize(nbrs.len(), 0);
            mincut_ds::simd::gather_u32(&labels, nbrs, &mut gathered);
            let mut best_label = labels[v as usize];
            let mut best_weight = 0;
            for (&lu, &w) in gathered.iter().zip(wts) {
                let li = lu as usize;
                let e = if stamp[li] == epoch { tally[li] + w } else { w };
                tally[li] = e;
                stamp[li] = epoch;
                if e > best_weight || (e == best_weight && lu < best_label) {
                    best_weight = e;
                    best_label = lu;
                }
            }
            if best_weight > 0 {
                labels[v as usize] = best_label;
            }
        }
    }
    const UNSET: NodeId = NodeId::MAX;
    let mut remap = vec![UNSET; n];
    let mut out = vec![0 as NodeId; n];
    let mut next = 0 as NodeId;
    for v in 0..n {
        let l = labels[v] as usize;
        if remap[l] == UNSET {
            remap[l] = next;
            next += 1;
        }
        out[v] = remap[l];
    }
    (out, next as usize)
}

/// The pre-rewrite tally loop, frozen verbatim: a hash-map probe per arc.
/// Kept (doc-hidden) so the `hotpath` bench baseline can reconstruct the
/// old VieCut seeding path; produces labels identical to
/// [`label_propagation`] (asserted by `flat_tally_matches_hash_tally`).
#[doc(hidden)]
pub fn label_propagation_hash_tally(
    g: &CsrGraph,
    iterations: usize,
    seed: u64,
) -> (Vec<NodeId>, usize) {
    let n = g.n();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let labels: Vec<AtomicU32> = (0..n as NodeId).map(AtomicU32::new).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for _ in 0..iterations {
        order = mincut_graph::generators::random_permutation(n, &mut rng)
            .into_iter()
            .map(|p| order[p as usize])
            .collect();
        const CHUNK: usize = 1 << 10;
        order.par_chunks(CHUNK).for_each(|chunk| {
            let mut tally: FxHashMap<NodeId, EdgeWeight> = FxHashMap::default();
            for &v in chunk {
                tally.clear();
                let mut best_label = labels[v as usize].load(Ordering::Relaxed);
                let mut best_weight = 0;
                for (u, w) in g.arcs(v) {
                    let lu = labels[u as usize].load(Ordering::Relaxed);
                    let e = tally.entry(lu).or_insert(0);
                    *e += w;
                    if *e > best_weight || (*e == best_weight && lu < best_label) {
                        best_weight = *e;
                        best_label = lu;
                    }
                }
                if best_weight > 0 {
                    labels[v as usize].store(best_label, Ordering::Relaxed);
                }
            }
        });
    }
    const UNSET: NodeId = NodeId::MAX;
    let mut remap = vec![UNSET; n];
    let mut out = vec![0 as NodeId; n];
    let mut next = 0 as NodeId;
    for v in 0..n {
        let l = labels[v].load(Ordering::Relaxed) as usize;
        if remap[l] == UNSET {
            remap[l] = next;
            next += 1;
        }
        out[v] = remap[l];
    }
    (out, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    #[test]
    fn two_cliques_become_two_clusters() {
        let (g, _) = known::two_communities(10, 10, 1, 4, 1);
        let (labels, count) = label_propagation(&g, 3, 7);
        // The two cliques must be internally uniform.
        for c in 0..2 {
            let base = labels[c * 10];
            for (v, &l) in labels.iter().enumerate().skip(c * 10).take(10) {
                assert_eq!(l, base, "clique {c} split by LP at vertex {v}");
            }
        }
        assert!(count <= 2, "at most the two cliques remain, got {count}");
    }

    #[test]
    fn labels_are_dense() {
        let (g, _) = known::grid_graph(8, 8, 1);
        let (labels, count) = label_propagation(&g, 2, 3);
        assert!(count >= 1);
        let mut seen = vec![false; count];
        for &l in &labels {
            assert!((l as usize) < count);
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every cluster id must be used");
    }

    #[test]
    fn zero_iterations_is_identity_clustering() {
        let (g, _) = known::cycle_graph(6, 1);
        let (labels, count) = label_propagation(&g, 0, 0);
        assert_eq!(count, 6);
        assert_eq!(labels, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn flat_tally_matches_hash_tally() {
        // The flat epoch-stamped array tally must produce labels
        // bit-identical to the frozen hash-tally baseline: the running
        // best depends only on arc order, which both share. All graphs
        // here fit in a single LP chunk (≤ 1024 vertices), so the whole
        // propagation is deterministic at any rayon schedule and the
        // full label vectors must agree.
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(99);
        let mut graphs = vec![
            known::two_communities(20, 24, 2, 3, 1).0,
            known::grid_graph(9, 11, 2).0,
            known::cycle_graph(64, 5).0,
        ];
        // A hub vertex with many distinct neighbour labels stresses the
        // first-iteration worst case of both tallies.
        let mut edges: Vec<(NodeId, NodeId, u64)> = (1..120)
            .map(|v| (0 as NodeId, v as NodeId, rng.gen_range(1..5)))
            .collect();
        for v in 1..119 {
            edges.push((v as NodeId, v as NodeId + 1, 1));
        }
        graphs.push(CsrGraph::from_edges(120, &edges));
        for (i, g) in graphs.iter().enumerate() {
            for iters in [1usize, 3] {
                let (a, ca) = label_propagation(g, iters, 1234 + i as u64);
                let (b, cb) = label_propagation_hash_tally(g, iters, 1234 + i as u64);
                assert_eq!(ca, cb, "graph {i}, {iters} iterations");
                assert_eq!(a, b, "graph {i}, {iters} iterations");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        let (labels, count) = label_propagation(&g, 2, 0);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
