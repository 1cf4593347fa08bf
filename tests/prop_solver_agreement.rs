//! Property tests (vendored proptest shim): on random small weighted
//! multigraphs,
//!
//! * every exact solver instance in the registry — the full
//!   (family × queue) matrix — agrees with the Stoer–Wagner reference;
//! * inexact solvers return the value of a real cut ≥ λ;
//! * contracting any set of edges that does not cross a minimum cut
//!   preserves λ (the invariant behind every CAPFOREST contraction of
//!   the paper: λ(G/F) = λ(G) when F stays inside the blocks);
//! * the cactus of all minimum cuts is a bijection: every cut it
//!   enumerates has value exactly λ, the count matches the brute-force
//!   all-min-cuts oracle, and `min_cut_separating(u, v)` agrees with
//!   the enumeration for every vertex pair.
//!
//! The generated edge lists are multigraphs — duplicate pairs and
//! self-loops included — exercising the builder's normalisation too.

use proptest::prelude::*;

use sm_mincut::ds::UnionFind;
use sm_mincut::graph::contract::ContractionEngine;
use sm_mincut::graph::generators::known::brute_force_all_min_cuts;
use sm_mincut::{CactusBuilder, CsrGraph, Session, SolveOptions, SolverRegistry};

/// Builds a graph on `n` vertices from raw (multigraph) edge records.
fn build(n: usize, raw: &[(u32, u32, u64)]) -> CsrGraph {
    let edges: Vec<(u32, u32, u64)> = raw
        .iter()
        .map(|&(u, v, w)| (u % n as u32, v % n as u32, w))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// Stoer–Wagner is the ground-truth oracle (itself validated against
/// brute force in `tests/naive_references.rs`).
fn reference(g: &CsrGraph) -> (u64, Vec<bool>) {
    let out = Session::new(g).run("stoer-wagner").expect("reference run");
    let side = out.cut.side.clone().expect("witness on by default");
    (out.cut.value, side)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn every_registry_instance_agrees_with_stoer_wagner(
        n in 2usize..9,
        raw in prop::collection::vec((0u32..16, 0u32..16, 1u64..8), 1..24),
    ) {
        let g = build(n, &raw);
        let (lambda, _) = reference(&g);
        let opts = SolveOptions::new().seed(0xFEED).threads(2);
        for solver in SolverRegistry::global().instances() {
            let name = solver.instance_name(&opts);
            let out = solver
                .solve(&g, &opts)
                .unwrap_or_else(|e| panic!("{name} on n={n} {raw:?}: {e}"));
            if solver.capabilities().guarantee.is_exact() {
                prop_assert_eq!(
                    out.cut.value, lambda,
                    "{} disagrees on n={} edges={:?}", name, n, &raw
                );
            } else {
                prop_assert!(
                    out.cut.value >= lambda,
                    "{} went below lambda on n={} edges={:?}", name, n, &raw
                );
            }
            prop_assert!(
                out.cut.verify(&g),
                "{} returned a bad witness on n={} edges={:?}", name, n, &raw
            );
        }
    }

    #[test]
    fn contracting_non_cut_crossing_edges_preserves_lambda(
        n in 2usize..9,
        raw in prop::collection::vec((0u32..16, 0u32..16, 1u64..8), 1..24),
        mask in any::<u64>(),
    ) {
        let g = build(n, &raw);
        let (lambda, side) = reference(&g);

        // Contract a pseudo-random subset of the edges that do not cross
        // the witness cut. Blocks never span both sides, so the witness
        // survives contraction and λ cannot change: contraction never
        // creates cuts (λ can only grow) yet this cut keeps its value.
        let mut uf = UnionFind::new(g.n());
        for (i, (u, v, _)) in g.edges().enumerate() {
            let crossing = side[u as usize] != side[v as usize];
            if !crossing && (mask >> (i % 64)) & 1 == 1 {
                uf.union(u, v);
            }
        }
        let (labels, blocks) = uf.dense_labels();
        prop_assert!(blocks >= 2, "both sides must survive");
        let c = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
        let (contracted_lambda, _) = reference(&c);
        prop_assert_eq!(
            contracted_lambda, lambda,
            "contraction changed λ on n={} edges={:?} mask={:#x}", n, &raw, mask
        );
    }

    #[test]
    fn cactus_is_a_bijection_onto_all_minimum_cuts(
        n in 2usize..9,
        raw in prop::collection::vec((0u32..16, 0u32..16, 1u64..8), 1..24),
    ) {
        let g = build(n, &raw);
        let (lambda, all) = brute_force_all_min_cuts(&g);
        let cactus = CactusBuilder::new()
            .options(SolveOptions::new().seed(0xFEED))
            .build(&g)
            .unwrap_or_else(|e| panic!("n={n} edges={raw:?}: {e}"));
        prop_assert_eq!(cactus.lambda(), lambda, "λ on n={} edges={:?}", n, &raw);

        // Count and family match the oracle exactly...
        prop_assert_eq!(
            cactus.count_min_cuts(), all.len() as u128,
            "count on n={} edges={:?}", n, &raw
        );
        let enumerated = cactus.enumerate_min_cuts(usize::MAX);
        prop_assert_eq!(
            &enumerated, &all,
            "family on n={} edges={:?}", n, &raw
        );
        // ...and every enumerated side costs exactly λ on the graph.
        for side in &enumerated {
            prop_assert_eq!(
                g.cut_value(side), lambda,
                "a cut off λ on n={} edges={:?}", n, &raw
            );
        }

        // The separating oracle agrees with the enumeration pairwise:
        // a cut splitting {u, v} exists iff some enumerated side does,
        // and the returned side really separates them at value λ.
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let split = enumerated
                    .iter()
                    .any(|s| s[u as usize] != s[v as usize]);
                match cactus.min_cut_separating(u, v) {
                    Some(side) => {
                        prop_assert!(split, "spurious separator for ({}, {})", u, v);
                        prop_assert!(side[u as usize] != side[v as usize]);
                        prop_assert_eq!(g.cut_value(&side), lambda);
                    }
                    None => prop_assert!(!split, "missed separator for ({}, {})", u, v),
                }
            }
        }
    }
}
