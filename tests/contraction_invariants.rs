//! Property tests for the contraction substrate (§3.2): sequential and
//! parallel contraction agree, cut values of cluster-respecting cuts are
//! preserved, total boundary weight is conserved, and the membership
//! tracker composes correctly over multiple rounds.

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
    fn sequential_equals_parallel((g, labels, blocks) in graph_and_labels()) {
        let s = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
        let p = ContractionEngine::new().contract_parallel(&g, &labels, blocks);
        prop_assert_eq!(s, p);
    }

    #[test]
    fn block_respecting_cuts_preserved((g, labels, blocks) in graph_and_labels()) {
        let c = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
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
        let c = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
        let cross: u64 = g
            .edges()
            .filter(|&(u, v, _)| labels[u as usize] != labels[v as usize])
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(c.total_edge_weight(), cross);
        prop_assert_eq!(c.n(), blocks);
    }

    /// All four accumulation paths — hash, radix-sort, flat-matrix and
    /// sharded-parallel — must produce fingerprint-identical `CsrGraph`s
    /// on random multigraphs, warm buffers included: the density
    /// heuristic may switch paths between rounds, so any divergence
    /// would break bit-determinism of every solver.
    #[test]
    fn sort_matrix_and_hash_paths_are_fingerprint_identical((g, labels, blocks) in graph_and_labels()) {
        let mut engine = ContractionEngine::new();
        let h = engine.contract_sequential(&g, &labels, blocks);
        let s = engine.contract_sorted(&g, &labels, blocks);
        prop_assert_eq!(h.fingerprint(), s.fingerprint());
        prop_assert_eq!(&h, &s);
        let m = engine.contract_matrix(&g, &labels, blocks);
        prop_assert_eq!(h.fingerprint(), m.fingerprint());
        prop_assert_eq!(&h, &m);
        let p = engine.contract_parallel(&g, &labels, blocks);
        prop_assert_eq!(h.fingerprint(), p.fingerprint());
        // A second sorted round over the contracted graph reuses the warm
        // radix scratch; it must still match a fresh hash contraction.
        if blocks >= 2 {
            let labels2: Vec<NodeId> = (0..blocks as NodeId).map(|v| v % 2).collect();
            let s2 = engine.contract_sorted(&h, &labels2, 2);
            let m2 = engine.contract_matrix(&h, &labels2, 2);
            let h2 = ContractionEngine::new().contract_sequential(&h, &labels2, 2);
            prop_assert_eq!(h2.fingerprint(), s2.fingerprint());
            prop_assert_eq!(h2.fingerprint(), m2.fingerprint());
        }
    }

    /// The engine's reused-scratch output is bit-identical to a fresh
    /// engine's, including across recycled rounds.
    #[test]
    fn engine_bit_identical_to_free_functions((g, labels, blocks) in graph_and_labels()) {
        let mut engine = ContractionEngine::new();
        let s = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
        let es = engine.contract_sequential(&g, &labels, blocks);
        prop_assert_eq!(&s, &es);
        let p = ContractionEngine::new().contract_parallel(&g, &labels, blocks);
        let ep = engine.contract_parallel(&g, &labels, blocks);
        prop_assert_eq!(&p, &ep);
        prop_assert_eq!(&s, &p);
        // A second, recycled round over the contracted graph: the warm
        // buffers must not leak state between rounds.
        engine.recycle(ep);
        if blocks >= 2 {
            let labels2: Vec<NodeId> = (0..blocks as NodeId).map(|v| v % 2).collect();
            let s2 = ContractionEngine::new().contract_sequential(&es, &labels2, 2);
            let e2 = engine.contract(&es, &labels2, 2);
            prop_assert_eq!(s2, e2);
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
