//! Property tests for the contraction substrate (§3.2): a recycled
//! engine builds the graph a fresh one builds, renaming the blocks
//! renames the result, single-edge rounds equal block contractions,
//! cut values of cluster-respecting cuts are preserved, total boundary
//! weight is conserved, and the membership tracker composes correctly
//! over multiple rounds.

use proptest::prelude::*;
use sm_mincut::algorithms::{Membership, SolveContext};
use sm_mincut::graph::contract::ContractionEngine;
use sm_mincut::{
    CsrGraph, EdgeWeight, NodeId, ReductionPipeline, Reductions, Session, SolveOptions, SolverStats,
};

/// λ(g) by Stoer–Wagner on `g` itself (no kernelization).
fn sw_lambda(g: &CsrGraph) -> EdgeWeight {
    Session::new(g)
        .options(SolveOptions::new().reductions(Reductions::None))
        .run("stoer-wagner")
        .unwrap()
        .cut
        .value
}

fn graph_and_labels() -> impl Strategy<Value = (CsrGraph, Vec<NodeId>, usize)> {
    (4usize..40).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..9), n..(3 * n));
        let blocks = 2usize..=n.min(8);
        (Just(n), edges, blocks).prop_flat_map(|(n, edges, blocks)| {
            proptest::collection::vec(0..blocks as NodeId, n).prop_map(move |mut raw| {
                // Force every block id in [0, blocks) to appear so the
                // labelling is dense.
                let len = raw.len();
                for b in 0..blocks {
                    raw[b % len] = b as NodeId;
                }
                let g = CsrGraph::from_edges(
                    n,
                    &edges
                        .iter()
                        .copied()
                        .filter(|&(u, v, _)| u != v)
                        .collect::<Vec<_>>(),
                );
                (g, raw, blocks)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_respecting_cuts_preserved((g, labels, blocks) in graph_and_labels()) {
        let c = ContractionEngine::new().contract(&g, &labels, blocks);
        // Any bipartition of the blocks lifts to a cut of g with the same
        // value; check a handful of deterministic bipartitions.
        for mask in 1u32..(1u32 << (blocks - 1)).min(16) {
            let block_side: Vec<bool> = (0..blocks).map(|b| (mask >> b) & 1 == 1).collect();
            let lifted: Vec<bool> = labels.iter().map(|&l| block_side[l as usize]).collect();
            prop_assert_eq!(c.cut_value(&block_side), g.cut_value(&lifted));
        }
    }

    #[test]
    fn contraction_conserves_cross_block_weight((g, labels, blocks) in graph_and_labels()) {
        let c = ContractionEngine::new().contract(&g, &labels, blocks);
        let cross: u64 = g
            .edges()
            .filter(|&(u, v, _)| labels[u as usize] != labels[v as usize])
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(c.total_edge_weight(), cross);
        prop_assert_eq!(c.n(), blocks);
    }

    /// The engine's reused-scratch output is bit-identical to a fresh
    /// engine's, including across recycled rounds, and both equal the
    /// builder's graph over the relabelled edges.
    #[test]
    fn engine_bit_identical_to_free_functions((g, labels, blocks) in graph_and_labels()) {
        let mut engine = ContractionEngine::new();
        let s = ContractionEngine::new().contract(&g, &labels, blocks);
        let relabelled: Vec<_> = g
            .edges()
            .map(|(u, v, w)| (labels[u as usize], labels[v as usize], w))
            .collect();
        let built = CsrGraph::from_edges(blocks, &relabelled);
        prop_assert_eq!(s.fingerprint(), built.fingerprint());
        prop_assert_eq!(&s, &built);
        let es = engine.contract(&g, &labels, blocks);
        prop_assert_eq!(s.fingerprint(), es.fingerprint());
        prop_assert_eq!(&s, &es);
        let eh = engine.contract(&g, &labels, blocks);
        prop_assert_eq!(&s, &eh);
        // A second, recycled round over the contracted graph: the warm
        // buffers must not leak state between rounds.
        engine.recycle(eh);
        let labels2: Vec<NodeId> = (0..blocks as NodeId).map(|v| v % 2).collect();
        let s2 = ContractionEngine::new().contract(&es, &labels2, 2);
        let e2 = engine.contract(&es, &labels2, 2);
        prop_assert_eq!(s2, e2);
    }

    /// Renaming the blocks renames the contracted graph: contracting with
    /// the block ids reversed gives the first contraction with its
    /// vertices reversed. Random labels make many rows come out of the
    /// member scan unsorted, so this also drives the engine's row sort.
    #[test]
    fn contraction_commutes_with_renaming_the_blocks((g, labels, blocks) in graph_and_labels()) {
        let rev = |b: NodeId| blocks as NodeId - 1 - b;
        let reversed: Vec<NodeId> = labels.iter().map(|&b| rev(b)).collect();
        let perm: Vec<NodeId> = (0..blocks as NodeId).map(rev).collect();
        let mut engine = ContractionEngine::new();
        let c = engine.contract(&g, &labels, blocks);
        let r = engine.contract(&g, &reversed, blocks);
        let expected = c.permuted(&perm);
        prop_assert_eq!(r.fingerprint(), expected.fingerprint());
        prop_assert_eq!(&r, &expected);
    }

    /// Single-edge rounds on one recycled engine, as Stoer–Wagner and the
    /// cactus enumeration run them: each round equals a fresh block
    /// contraction that merges the edge's endpoints, and the membership
    /// the round folds in maps each vertex of the contracted graph to a
    /// cut of `g` with the same value.
    #[test]
    fn single_edge_rounds_match_block_contraction((g, _, _) in graph_and_labels()) {
        let mut engine = ContractionEngine::new();
        let mut membership = Membership::identity(g.n());
        let mut current = g.clone();
        let mut round = 0;
        while current.n() > 2 {
            let n = current.n() as NodeId;
            let start = round % n;
            let Some(a) = (start..n).chain(0..start).find(|&v| current.degree(v) > 0) else {
                break;
            };
            let b = current.neighbors(a)[0];
            let (lo, hi) = (a.min(b), a.max(b));
            let labels: Vec<NodeId> = (0..n)
                .map(|v| if v == hi { lo } else if v > hi { v - 1 } else { v })
                .collect();
            let fresh = ContractionEngine::new().contract(&current, &labels, n as usize - 1);
            let next = engine.contract_edge_tracked(&current, a, b, &mut membership);
            prop_assert_eq!(next.fingerprint(), fresh.fingerprint());
            prop_assert_eq!(&next, &fresh);
            for v in 0..next.n() {
                let side: Vec<bool> = (0..next.n()).map(|u| u == v).collect();
                prop_assert_eq!(
                    g.cut_value(&membership.side_of_bitmap(&side)),
                    next.cut_value(&side)
                );
            }
            engine.recycle(std::mem::replace(&mut current, next));
            round += 1;
        }
    }

    /// The kernelization pipeline preserves λ: min(λ̂, λ(kernel)) equals
    /// λ(G), and λ̂ is backed by a real witness. Both λ values come from
    /// Stoer–Wagner on the raw graphs, a path independent of the pipeline
    /// (and itself checked against brute force in `cross_algorithm.rs`).
    #[test]
    fn reduction_pipeline_preserves_lambda((g, _, _) in graph_and_labels()) {
        let lambda = sw_lambda(&g);
        let mut stats = SolverStats::new("reduce".into(), g.n(), g.m());
        let mut ctx = SolveContext::new(&mut stats);
        let red = ReductionPipeline::standard().run(&g, None, &mut ctx).unwrap();
        let side = red.side.as_ref().expect("pipeline tracks witnesses");
        prop_assert!(g.is_proper_cut(side));
        prop_assert_eq!(g.cut_value(side), red.lambda_hat);
        let kernel_lambda = if red.kernel.n() >= 2 {
            sw_lambda(&red.kernel)
        } else {
            u64::MAX
        };
        prop_assert_eq!(red.lambda_hat.min(kernel_lambda), lambda);
    }

    #[test]
    fn membership_composes((g, labels, blocks) in graph_and_labels()) {
        let mut m = Membership::identity(g.n());
        m.contract(&labels, blocks);
        // Every original vertex appears in exactly one block list.
        let mut seen = vec![0usize; g.n()];
        for b in 0..blocks as NodeId {
            for &orig in m.members(b) {
                seen[orig as usize] += 1;
                prop_assert_eq!(labels[orig as usize], b);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // A second round: merge everything into one block.
        m.contract(&vec![0; blocks], 1);
        prop_assert_eq!(m.members(0).len(), g.n());
    }
}
