//! Graph instance generators.
//!
//! The paper's evaluation uses (a) random hyperbolic graphs with power-law
//! exponent 5 ([`rhg`], Appendix A.1), (b) k-cores of large web and social
//! networks — substituted here by structurally similar synthetic proxies
//! ([`rmat`](mod@rmat), [`ba`]) as documented in DESIGN.md — and (c) RMAT graphs in
//! the comparison against Gianinazzi et al. The [`known`] module provides
//! deterministic families with provable minimum cuts, used throughout the
//! test suites to validate every solver against ground truth.

pub mod ba;
pub mod gnm;
pub mod known;
pub mod rhg;
pub mod rmat;
pub mod sbm;

pub use ba::barabasi_albert;
pub use gnm::{connected_gnm, gnm};
pub use known::brute_force_mincut;
pub use rhg::{random_hyperbolic_graph, RhgParams};
pub use rmat::{rmat, RmatParams};
pub use sbm::{planted_partition, watts_strogatz};

use rand::Rng;

use crate::{CsrGraph, EdgeWeight, GraphBuilder, NodeId};

/// Replaces every edge weight with a uniform random integer in
/// `[1, max_weight]`. Used to derive weighted test instances from
/// unweighted generators (contracted graphs in the paper are weighted even
/// though the inputs are not).
pub fn randomize_weights<R: Rng>(g: &CsrGraph, max_weight: EdgeWeight, rng: &mut R) -> CsrGraph {
    assert!(max_weight >= 1);
    let mut b = GraphBuilder::with_capacity(g.n(), g.m());
    for (u, v, _) in g.edges() {
        b.add_edge(u, v, rng.gen_range(1..=max_weight));
    }
    b.build()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates), for relabelling
/// robustness tests.
pub fn random_permutation<R: Rng>(n: usize, rng: &mut R) -> Vec<NodeId> {
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn randomize_weights_in_range() {
        let g = known::cycle_graph(10, 1).0;
        let mut rng = SmallRng::seed_from_u64(7);
        let w = randomize_weights(&g, 5, &mut rng);
        assert_eq!(w.m(), g.m());
        for (_, _, wt) in w.edges() {
            assert!((1..=5).contains(&wt));
        }
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let p = random_permutation(100, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
