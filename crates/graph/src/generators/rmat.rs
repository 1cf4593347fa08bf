//! RMAT (recursive matrix) graphs, Chakrabarti & Faloutsos.
//!
//! The paper cross-references RMAT instances when dismissing the MPI
//! Karger–Stein implementation of Gianinazzi et al. (§4.1) and we also use
//! them, like the web-graph k-cores, as proxies for the skewed real-world
//! instances.

use mincut_ds::hash::FxHashSet;
use mincut_ds::pack_edge;
use rand::Rng;

use crate::{CsrGraph, GraphBuilder, NodeId};

/// RMAT quadrant probabilities. Defaults to the Graph500 values
/// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
    /// Per-level multiplicative noise on the probabilities, as in the
    /// Graph500 reference implementation; 0.0 disables it.
    pub noise: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            noise: 0.1,
        }
    }
}

/// Generates an undirected RMAT graph with `2^scale` vertices and `m`
/// distinct edges (self-loops and duplicates rejected and resampled).
pub fn rmat<R: Rng>(scale: u32, m: usize, params: RmatParams, rng: &mut R) -> CsrGraph {
    let n = 1usize << scale;
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "RMAT probabilities must sum to 1 (got {sum})"
    );
    let max = n * (n - 1) / 2;
    assert!(m <= max / 2, "RMAT rejection sampling needs m ≤ pairs/4");
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.reserve(m);
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut guard = 0usize;
    while seen.len() < m {
        guard += 1;
        assert!(
            guard < 100 * m + 10_000,
            "RMAT rejection sampling not converging"
        );
        let (u, v) = sample_cell(scale, params, rng);
        if u == v {
            continue;
        }
        if seen.insert(pack_edge(u, v)) {
            b.add_edge(u, v, 1);
        }
    }
    b.build()
}

fn sample_cell<R: Rng>(scale: u32, p: RmatParams, rng: &mut R) -> (NodeId, NodeId) {
    let mut u = 0 as NodeId;
    let mut v = 0 as NodeId;
    for _ in 0..scale {
        // Multiplicative noise keeps the expected quadrant masses but
        // de-correlates levels, avoiding the rigid self-similar artifacts.
        let (mut a, mut b_, mut c, mut d) = (p.a, p.b, p.c, p.d);
        if p.noise > 0.0 {
            let jitter =
                |x: f64, rng: &mut R| x * (1.0 - p.noise + 2.0 * p.noise * rng.gen::<f64>());
            a = jitter(a, rng);
            b_ = jitter(b_, rng);
            c = jitter(c, rng);
            d = jitter(d, rng);
            let s = a + b_ + c + d;
            a /= s;
            b_ /= s;
            c /= s;
            // d is implied by the final else branch.
        }
        let r: f64 = rng.gen();
        u <<= 1;
        v <<= 1;
        if r < a {
            // top-left quadrant
        } else if r < a + b_ {
            v |= 1;
        } else if r < a + b_ + c {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rmat_shape() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = rmat(10, 4096, RmatParams::default(), &mut rng);
        assert_eq!(g.n(), 1024);
        assert_eq!(g.m(), 4096);
        assert!(g.edges().all(|(u, v, w)| u != v && w == 1));
    }

    #[test]
    fn rmat_is_skewed() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = rmat(12, 16384, RmatParams::default(), &mut rng);
        let max_deg = (0..g.n() as NodeId).map(|v| g.degree(v)).max().unwrap();
        assert!(
            max_deg as f64 > 8.0 * g.avg_degree(),
            "RMAT should produce hubs: max {max_deg}, avg {}",
            g.avg_degree()
        );
    }

    #[test]
    fn rmat_deterministic_under_seed() {
        let p = RmatParams::default();
        let a = rmat(8, 512, p, &mut SmallRng::seed_from_u64(3));
        let b = rmat(8, 512, p, &mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_probabilities() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = rmat(
            4,
            8,
            RmatParams {
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
                noise: 0.0,
            },
            &mut rng,
        );
    }
}
