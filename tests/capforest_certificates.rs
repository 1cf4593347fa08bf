//! The theoretical backbone of the paper, checked empirically: CAPFOREST
//! `q(e)` values are connectivity lower bounds, so every pair of vertices
//! it unions has min s-t cut ≥ λ̂ — validated against max-flow (an
//! entirely independent subsystem). Covers the bounded queues of
//! Lemma 3.1 and the blacklisting of parallel workers (Lemma 3.2).

use proptest::prelude::*;
use sm_mincut::algorithms::capforest::capforest;
use sm_mincut::algorithms::parallel::{parallel_capforest, ParWorkerPool};
use sm_mincut::ds::{BQueuePq, BStackPq, BinaryHeapPq, PqKind};
use sm_mincut::flow::max_flow;
use sm_mincut::{CsrGraph, NodeId};

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (3usize..12).prop_flat_map(|n| {
        let tree_w = proptest::collection::vec(1u64..6, n - 1);
        let extra =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..6), 0..(n * 2));
        (Just(n), tree_w, extra).prop_map(|(n, tree_w, extra)| {
            let mut edges = Vec::new();
            for (v, w) in (1..n as NodeId).zip(tree_w) {
                edges.push((v - 1, v, w)); // path backbone: connected
            }
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            CsrGraph::from_edges(n, &edges)
        })
    })
}

/// Every union produced by a (sequential, bounded) scan certifies
/// pairwise connectivity ≥ the final λ̂ of the pass.
fn assert_certificates(g: &CsrGraph, uf: &mut sm_mincut::ds::UnionFind, lambda_hat: u64) {
    for u in 0..g.n() as NodeId {
        for v in 0..u {
            if uf.same(u, v) {
                let cut = max_flow(g, u, v).value;
                assert!(
                    cut >= lambda_hat,
                    "pair ({u},{v}): connectivity {cut} < λ̂ {lambda_hat}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sequential_marks_are_sound(g in graph_strategy(), start_mod in 0u32..64) {
        let delta = g.min_weighted_degree().unwrap().1;
        let start = start_mod % g.n() as u32;
        let mut out = capforest::<BStackPq>(&g, delta, start, true);
        assert_certificates(&g, &mut out.uf, out.lambda_hat);
        let mut out = capforest::<BQueuePq>(&g, delta, start, true);
        assert_certificates(&g, &mut out.uf, out.lambda_hat);
        let mut out = capforest::<BinaryHeapPq>(&g, delta, start, false);
        assert_certificates(&g, &mut out.uf, out.lambda_hat);
    }

    #[test]
    fn parallel_marks_are_sound(g in graph_strategy(), seed in 0u64..512) {
        let delta = g.min_weighted_degree().unwrap().1;
        for threads in [1usize, 2, 4] {
            let mut pool = ParWorkerPool::new();
            let out = parallel_capforest(&g, delta, threads, seed, PqKind::BQueue, &mut pool);
            let (labels, _) = out.cuf.dense_labels();
            for u in 0..g.n() as NodeId {
                for v in 0..u {
                    if labels[u as usize] == labels[v as usize] {
                        let cut = max_flow(&g, u, v).value;
                        prop_assert!(
                            cut >= out.lambda_hat,
                            "threads {}: pair ({u},{v}) connectivity {cut} < λ̂ {}",
                            threads, out.lambda_hat
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_cut_witnesses_are_exact(g in graph_strategy()) {
        let out = capforest::<BinaryHeapPq>(&g, u64::MAX >> 1, 0, false);
        if let Some(prefix) = out.best_prefix() {
            let mut side = vec![false; g.n()];
            for &v in prefix {
                side[v as usize] = true;
            }
            prop_assert!(g.is_proper_cut(&side));
            prop_assert_eq!(g.cut_value(&side), out.lambda_hat);
        }
    }
}
