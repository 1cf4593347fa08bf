//! Shared-memory parallel label propagation (Raghavan et al.), the
//! clustering engine inside VieCut (§2.4).
//!
//! Every vertex starts in its own cluster; in each iteration every vertex
//! adopts the label with the largest incident edge-weight sum among its
//! neighbours. Vertices are processed in a random order, which the
//! workers split into one contiguous share each; label reads are
//! intentionally unsynchronised (the algorithm is a heuristic — racy
//! reads only change which near-optimal clustering is found, mirroring
//! the asynchronous implementation the paper builds on).
//!
//! One loop serves every graph. Each [`par::map_each`] worker owns a flat
//! epoch-stamped tally (two size-n arrays, allocated once per call) over
//! the shared `AtomicU32` labels. The width follows the workspace's one
//! rule, [`par::width`]: one worker below [`par::MIN_PARALLEL_ARCS`]
//! arcs, `threads` workers above.

use std::sync::atomic::{AtomicU32, Ordering};

use mincut_ds::par;
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs `iterations` rounds of label propagation on up to `threads`
/// workers; returns dense cluster labels in `[0, count)` and the cluster
/// count.
///
/// The per-vertex tally is one L1-friendly indexed add per arc instead
/// of a hash probe (labels converge to a handful of hot slots after the
/// first iteration, so the accesses stay cache-resident). The running
/// best is evaluated incrementally in arc order, so the chosen labels
/// are those of a plain hash-tally loop. At one worker the visit order
/// is the shuffled order itself, so the labels equal the sequential
/// hash-tally reference exactly (`flat_tally_matches_hash_tally`,
/// `single_worker_matches_reference`).
pub fn label_propagation(
    g: &CsrGraph,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> (Vec<NodeId>, usize) {
    let n = g.n();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let workers = par::width(g.num_arcs(), threads).min(n);
    let share = n.div_ceil(workers);
    let labels: Vec<AtomicU32> = (0..n as NodeId).map(AtomicU32::new).collect();
    // One `(tally, stamp)` pair per worker: `tally[l]` is the current
    // vertex's arc weight toward label `l` iff `stamp[l]` holds the
    // vertex's epoch, so nothing is cleared between vertices.
    let mut tallies: Vec<(Vec<EdgeWeight>, Vec<u32>)> =
        (0..workers).map(|_| (vec![0; n], vec![0; n])).collect();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for _ in 0..iterations {
        // New shuffle each round, as in the reference implementation.
        order = mincut_graph::generators::random_permutation(n, &mut rng)
            .into_iter()
            .map(|p| order[p as usize])
            .collect();
        par::map_each(&mut tallies, |w, (tally, stamp)| {
            let (tally, stamp) = (&mut tally[..], &mut stamp[..]);
            // A vertex's epoch is its position in this iteration's share
            // plus one, so clearing the stamps once per iteration keeps
            // every stale stamp below the current epoch.
            stamp.fill(0);
            let mine = &order[(w * share).min(n)..((w + 1) * share).min(n)];
            for (i, &v) in mine.iter().enumerate() {
                // Pull the next vertex's arc stream into cache while
                // this one's tally runs.
                if let Some(&next) = mine.get(i + 1) {
                    g.prefetch_arcs(next);
                }
                let epoch = i as u32 + 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_ds::hash::FxHashMap;
    use mincut_graph::generators::known;

    /// Reference for `flat_tally_matches_hash_tally`: the textbook loop —
    /// same shuffle sequence, sequential visit order, one hash-map tally
    /// per vertex, labels densified in vertex order.
    fn hash_tally_reference(g: &CsrGraph, iterations: usize, seed: u64) -> (Vec<NodeId>, usize) {
        let n = g.n();
        let mut labels: Vec<NodeId> = (0..n as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        let mut tally: FxHashMap<NodeId, EdgeWeight> = FxHashMap::default();
        for _ in 0..iterations {
            order = mincut_graph::generators::random_permutation(n, &mut rng)
                .into_iter()
                .map(|p| order[p as usize])
                .collect();
            for &v in &order {
                tally.clear();
                let mut best_label = labels[v as usize];
                let mut best_weight = 0;
                for (u, w) in g.arcs(v) {
                    let lu = labels[u as usize];
                    let e = tally.entry(lu).or_insert(0);
                    *e += w;
                    if *e > best_weight || (*e == best_weight && lu < best_label) {
                        best_weight = *e;
                        best_label = lu;
                    }
                }
                if best_weight > 0 {
                    labels[v as usize] = best_label;
                }
            }
        }
        let mut dense: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let out = labels
            .iter()
            .map(|&l| {
                let next = dense.len() as NodeId;
                *dense.entry(l).or_insert(next)
            })
            .collect();
        (out, dense.len())
    }

    #[test]
    fn two_cliques_become_two_clusters() {
        let (g, _) = known::two_communities(10, 10, 1, 4, 1);
        let (labels, count) = label_propagation(&g, 3, 7, 2);
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
        let (labels, count) = label_propagation(&g, 2, 3, 2);
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
        let (labels, count) = label_propagation(&g, 0, 0, 2);
        assert_eq!(count, 6);
        assert_eq!(labels, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn flat_tally_matches_hash_tally() {
        // The flat epoch-stamped array tally must produce labels
        // bit-identical to the hash-tally reference: the running best
        // depends only on arc order, which both share. All graphs here
        // sit far below `par::MIN_PARALLEL_ARCS`, so one worker runs them
        // at any width and the full label vectors must agree.
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
                let (a, ca) = label_propagation(g, iters, 1234 + i as u64, 2);
                let (b, cb) = hash_tally_reference(g, iters, 1234 + i as u64);
                assert_eq!(ca, cb, "graph {i}, {iters} iterations");
                assert_eq!(a, b, "graph {i}, {iters} iterations");
            }
        }
    }

    #[test]
    fn single_worker_matches_reference() {
        // One worker visits the shuffled order itself, so the labels must
        // equal the sequential reference exactly at any graph size. This
        // graph is large (n > 2^16) but has fewer than
        // `par::MIN_PARALLEL_ARCS` arcs, so one worker runs it at two
        // threads too. Random chords and weights make racy schedules
        // visibly change the partition.
        use rand::Rng;
        let n = (1 << 16) + 4000;
        let mut rng = SmallRng::seed_from_u64(2019);
        let mut edges = Vec::with_capacity(3 * n);
        for v in 0..n as NodeId {
            edges.push((v, (v + 1) % n as NodeId, rng.gen_range(1..10)));
            for _ in 0..2 {
                edges.push((v, rng.gen_range(0..n as NodeId), rng.gen_range(1..10)));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        for threads in [1, 2] {
            let got = label_propagation(&g, 2, 77, threads);
            assert_eq!(got, hash_tally_reference(&g, 2, 77), "{threads} threads");
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        let (labels, count) = label_propagation(&g, 2, 0, 2);
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
