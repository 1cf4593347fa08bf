//! Integration tests for the instance-preparation pipeline and IO:
//! generator determinism, k-core/LCC invariants (Appendix A.2), METIS
//! round-trips through the full solver, and relabelling robustness
//! (minimum cuts are isomorphism-invariant).

use proptest::prelude::*;
use sm_mincut::graph::components::{connected_components, is_connected};
use sm_mincut::graph::generators::{
    connected_gnm, random_permutation, randomize_weights, rmat, RmatParams,
};
use sm_mincut::graph::io::{read_metis, write_metis};
use sm_mincut::graph::kcore::{core_numbers, k_core_lcc};
use sm_mincut::{CsrGraph, MinCutResult, Session, SolveOptions};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Solves `g` with the registry solver `name` under `opts`.
fn cut(g: &CsrGraph, name: &str, opts: SolveOptions) -> MinCutResult {
    Session::new(g).options(opts).run(name).unwrap().cut
}

#[test]
fn kcore_lcc_invariants_on_rmat() {
    let mut rng = SmallRng::seed_from_u64(1);
    let g = rmat(11, 8192, RmatParams::default(), &mut rng);
    let cores = core_numbers(&g);
    for k in [2u32, 4, 8] {
        let (sub, orig) = k_core_lcc(&g, k);
        if sub.n() == 0 {
            continue;
        }
        // Min degree ≥ k, connected, and ids map back into the k-core.
        assert!(sub.min_degree().unwrap() >= k as usize, "k={k}");
        assert!(is_connected(&sub), "k={k}");
        for (new, &old) in orig.iter().enumerate() {
            assert!(cores[old as usize] >= k);
            assert!(sub.degree(new as u32) > 0);
        }
    }
}

#[test]
fn solver_invariant_under_relabelling() {
    let mut rng = SmallRng::seed_from_u64(9);
    let g = connected_gnm(120, 480, &mut rng);
    let g = randomize_weights(&g, 6, &mut rng);
    let base = cut(&g, "noi-viecut", SolveOptions::new()).value;
    for seed in 0..5 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let perm = random_permutation(g.n(), &mut rng);
        let h = g.permuted(&perm);
        let r = cut(&h, "noi-viecut", SolveOptions::new());
        assert_eq!(r.value, base, "λ must be isomorphism-invariant");
        assert!(r.verify(&h));
    }
}

#[test]
fn metis_roundtrip_through_solver() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = connected_gnm(80, 300, &mut rng);
    let g = randomize_weights(&g, 9, &mut rng);
    let mut buf = Vec::new();
    write_metis(&g, &mut buf).unwrap();
    let h = read_metis(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(g, h);
    assert_eq!(
        cut(&g, "noi-viecut", SolveOptions::new()).value,
        cut(&h, "NOIλ̂-BQueue", SolveOptions::new()).value
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn connected_gnm_always_connected(n in 2usize..120, extra in 0usize..200) {
        let mut rng = SmallRng::seed_from_u64((n + extra) as u64);
        let g = connected_gnm(n, n - 1 + extra.min(n * (n - 1) / 2 - (n - 1)), &mut rng);
        prop_assert!(is_connected(&g));
        let (_, k) = connected_components(&g);
        prop_assert_eq!(k, 1);
    }

    #[test]
    fn lambda_zero_iff_disconnected(n in 2usize..30, edges in proptest::collection::vec((0u32..30, 0u32..30, 1u64..5), 1..60)) {
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|&(u, v, _)| u != v && (u as usize) < n && (v as usize) < n)
            .collect();
        prop_assume!(!edges.is_empty());
        let g = CsrGraph::from_edges(n, &edges);
        let r = cut(&g, "NOIλ̂-Heap", SolveOptions::new().seed(1));
        prop_assert_eq!(r.value == 0, !is_connected(&g));
        prop_assert!(r.verify(&g));
    }
}
