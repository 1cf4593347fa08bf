//! Benchmark instance families, mirroring the paper's evaluation set
//! (§4.1, Appendix A) at laptop scale.
//!
//! The paper uses random hyperbolic graphs with n = 2^20–2^25 and k-cores
//! of web/social graphs with up to 3.3 billion edges on a 24-thread
//! 1.5 TB machine. This harness regenerates the same *experiment shapes*
//! at sizes controlled by `SMC_SCALE`:
//!
//! * `SMC_SCALE=tiny`  — smoke-test sizes (CI);
//! * `SMC_SCALE=small` — default: minutes on a laptop core;
//! * `SMC_SCALE=full`  — the largest sizes this machine's memory allows.

use mincut_core::dynamic::TraceOp;
use mincut_ds::hash::FxHashSet;
use mincut_graph::generators::{
    barabasi_albert, gnm, random_hyperbolic_graph, rmat, RhgParams, RmatParams,
};
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, GraphBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Social-network proxy (stands in for hollywood-2011 / com-orkut /
/// twitter-2010): preferential attachment
/// for the power-law hubs, overlaid with an Erdős–Rényi layer so the core
/// decomposition has the shallow-but-nonempty hierarchy of real social
/// graphs (BA alone has degeneracy exactly its attach parameter), plus
/// weakly-attached dense satellite cliques. The satellites are what makes
/// the paper's benchmark cores interesting: a k-core keeps every clique
/// larger than k while the handful of attachment edges caps λ far below
/// the minimum degree δ = k (compare Table 1, where λ ∈ {1, …, 77} while
/// δ = k up to 1000).
pub fn social_proxy(n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ba = barabasi_albert(n, 4, &mut rng);
    let overlay = gnm(n, 4 * n, &mut rng);
    // Satellites: (clique size, number of attachment edges). A clique of
    // size s survives exactly the k-cores with k ≤ s − 1, so deeper cores
    // retain fewer satellites and the minimum cut grows with k.
    let satellites: &[(usize, usize)] = &[(8, 2), (10, 3), (12, 4), (16, 5)];
    let extra: usize = satellites.iter().map(|&(s, _)| s).sum();
    let total = n + extra;
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut b = GraphBuilder::with_capacity(total, ba.m() + overlay.m() + 256);
    for (u, v, _) in ba.edges().chain(overlay.edges()) {
        if seen.insert((u, v)) {
            b.add_edge(u, v, 1);
        }
    }
    let mut base = n as u32;
    for &(s, attach) in satellites {
        for i in 0..s as u32 {
            for j in i + 1..s as u32 {
                b.add_edge(base + i, base + j, 1);
            }
        }
        for a in 0..attach as u32 {
            // Attach to early BA vertices — the high-degree hubs.
            b.add_edge(base + a, a, 1);
        }
        base += s as u32;
    }
    b.build()
}

/// Size preset read from `SMC_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Small,
    Full,
}

impl Scale {
    pub fn from_env() -> Scale {
        // Warn-once on typos (shared `env_knob` contract): a typo'd
        // SMC_SCALE silently running `small` wastes a bench session.
        mincut_ds::env_knob(
            "SMC_SCALE",
            "tiny|small|full",
            "small",
            Scale::Small,
            |v| match v {
                "tiny" => Some(Scale::Tiny),
                "small" => Some(Scale::Small),
                "full" => Some(Scale::Full),
                _ => None,
            },
        )
    }

    /// Repetitions per (instance, algorithm) measurement; the paper uses 5.
    pub fn repetitions(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 3,
            Scale::Full => 5,
        }
    }
}

/// A named benchmark instance.
pub struct Instance {
    pub name: String,
    pub graph: CsrGraph,
}

impl Instance {
    fn new(name: impl Into<String>, graph: CsrGraph) -> Self {
        Instance {
            name: name.into(),
            graph,
        }
    }
}

/// Web-graph proxy (stands in for uk-2002 / gsh-2015-host / uk-2007-05):
/// RMAT with Graph500 parameters — a deep core hierarchy, degeneracy in
/// the dozens — plus two large satellite cliques each attached by a
/// *single* edge. Every core that keeps a satellite has λ = 1, exactly
/// the pattern of the paper's web cores (Table 1: λ = 1 on all uk-* and
/// gsh-* cores).
pub fn web_proxy(scale_exp: u32, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 1usize << scale_exp;
    let g = rmat(scale_exp, n * 8, RmatParams::default(), &mut rng);
    let satellites: &[usize] = &[20, 34];
    let extra: usize = satellites.iter().sum();
    let mut b = GraphBuilder::with_capacity(n + extra, g.m() + 700);
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w);
    }
    let mut base = n as u32;
    for &s in satellites {
        for i in 0..s as u32 {
            for j in i + 1..s as u32 {
                b.add_edge(base + i, base + j, 1);
            }
        }
        // One attachment edge to a (likely high-core) low-id vertex.
        b.add_edge(base, 0, 1);
        base += s as u32;
    }
    b.build()
}

/// Figure 2 grid: RHG graphs over (log2 n, log2 avg-degree).
/// Paper: n = 2^20–2^25, degree 2^5–2^8.
pub fn fig2_grid(scale: Scale) -> Vec<(u32, u32, Instance)> {
    let (n_exps, d_exps): (Vec<u32>, Vec<u32>) = match scale {
        Scale::Tiny => (vec![10, 11], vec![4, 5]),
        Scale::Small => (vec![11, 12, 13], vec![5, 6, 7]),
        Scale::Full => (vec![12, 13, 14, 15], vec![5, 6, 7, 8]),
    };
    let mut out = Vec::new();
    for &ne in &n_exps {
        for &de in &d_exps {
            if de + 3 > ne {
                continue; // degree too close to n
            }
            let mut rng = SmallRng::seed_from_u64(1000 + (ne * 31 + de) as u64);
            let params = RhgParams::paper(1 << ne, (1u64 << de) as f64);
            let g = random_hyperbolic_graph(&params, &mut rng);
            out.push((ne, de, Instance::new(format!("rhg_2^{ne}_deg2^{de}"), g)));
        }
    }
    out
}

/// "Real-world" proxy instances: k-cores of skewed synthetic graphs
/// ([`social_proxy`] and [`web_proxy`] document which paper graphs they
/// stand in for), prepared exactly like the paper's Table 1 (k-core, then
/// largest connected component).
pub fn realworld_proxies(scale: Scale) -> Vec<Instance> {
    let (ba_n, rmat_scale) = match scale {
        Scale::Tiny => (1 << 10, 10),
        Scale::Small => (1 << 13, 13),
        Scale::Full => (1 << 15, 15),
    };
    let mut out = Vec::new();

    // Social-network proxy, several cores (shallow hierarchy).
    let ba = social_proxy(ba_n, 42);
    for k in [6, 8, 10] {
        let (core, _) = k_core_lcc(&ba, k);
        if core.n() > 64 {
            out.push(Instance::new(format!("social_{ba_n}_k{k}"), core));
        }
    }

    // Web-graph proxy: RMAT with Graph500 parameters (deep hierarchy).
    let g = web_proxy(rmat_scale, 43);
    for k in [6, 10, 16] {
        let (core, _) = k_core_lcc(&g, k);
        if core.n() > 64 {
            out.push(Instance::new(format!("web_2^{rmat_scale}_k{k}"), core));
        }
    }
    out
}

/// The five scaling instances of Figure 5: two RHG graphs and three
/// proxy k-cores.
pub fn fig5_instances(scale: Scale) -> Vec<Instance> {
    let (rhg_exp, ba_n, rmat_scale) = match scale {
        Scale::Tiny => (10u32, 1 << 10, 10u32),
        Scale::Small => (13, 1 << 13, 13),
        Scale::Full => (15, 1 << 15, 15),
    };
    let mut out = Vec::new();
    for (i, de) in [5u32, 6].iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(777 + i as u64);
        let params = RhgParams::paper(1 << rhg_exp, (1u64 << *de) as f64);
        out.push(Instance::new(
            format!("rhg_2^{rhg_exp}_deg2^{de}_{}", i + 1),
            random_hyperbolic_graph(&params, &mut rng),
        ));
    }
    let ba = social_proxy(ba_n, 42);
    let (core, _) = k_core_lcc(&ba, 8);
    out.push(Instance::new(format!("social_{ba_n}_k8"), core));
    let g = web_proxy(rmat_scale, 43);
    for k in [8u32, 16] {
        let (core, _) = k_core_lcc(&g, k);
        out.push(Instance::new(format!("web_2^{rmat_scale}_k{k}"), core));
    }
    out.retain(|i| i.graph.n() > 64);
    out
}

/// The batch-serving corpus: 64 instances mixing every generator family
/// at sizes set by `SMC_SCALE`, the workload of the `batch_throughput`
/// bench and the service's differential tests (batch vs. serial Session
/// loop). Deterministic: instance `i` is always the same graph.
pub fn batch_corpus(scale: Scale) -> Vec<Instance> {
    use mincut_graph::generators::known;
    let unit = match scale {
        Scale::Tiny => 1usize,
        Scale::Small => 4,
        Scale::Full => 16,
    };
    let mut out = Vec::with_capacity(64);
    for i in 0..64usize {
        let v = i / 4; // variant within the family, 0..16
        let (name, graph) = match i % 4 {
            0 => {
                let (a, b) = (6 + v * unit, 7 + v * unit);
                let (g, _) = known::two_communities(a, b, 2, (2 + v % 3) as u64, 1);
                (format!("two_communities_{a}_{b}"), g)
            }
            1 => {
                let (k, s) = (4 + v % 5, (4 + v) * unit.min(4));
                let (g, _) = known::ring_of_cliques(k.max(3), s.max(3), 2, 1);
                (format!("ring_of_cliques_{k}_{s}"), g)
            }
            2 => {
                let (r, c) = (3 + v, 4 + v * unit);
                let (g, _) = known::grid_graph(r, c, 1 + (v % 2) as u64);
                (format!("grid_{r}x{c}"), g)
            }
            _ => {
                let n = (24 + 8 * v) * unit;
                let mut rng = SmallRng::seed_from_u64(9000 + i as u64);
                (format!("gnm_{n}"), gnm(n, 3 * n, &mut rng))
            }
        };
        out.push(Instance::new(format!("{i:02}_{name}"), graph));
    }
    out
}

/// Thread counts exercised by the scaling figure. The paper uses
/// 1, 2, 4, 8, 12, 24 on a 12-core machine; we keep the list but cap it
/// at 2× the available parallelism (oversubscription column, like the
/// paper's 24-on-12).
pub fn fig5_thread_counts() -> Vec<usize> {
    let hw = mincut_ds::par::hardware_threads();
    [1usize, 2, 4, 8, 12, 24]
        .into_iter()
        .filter(|&t| t <= (2 * hw).max(2))
        .collect()
}

/// Deterministic mixed update trace of `updates` operations over the
/// whole vertex range of `g`: an insert of weight 1..4 between two random
/// distinct vertices with probability `insert_p` (always, once no edge is
/// live), else a delete of a random live edge.
pub fn make_trace(g: &CsrGraph, updates: usize, insert_p: f64, seed: u64) -> Vec<TraceOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut shadow = DeltaGraph::new(g.clone());
    let n = g.n() as NodeId;
    let mut ops = Vec::with_capacity(updates);
    while ops.len() < updates {
        if shadow.m() == 0 || rng.gen_bool(insert_p) {
            let (mut u, mut v) = (0, 0);
            while u == v {
                u = rng.gen_range(0..n);
                v = rng.gen_range(0..n);
            }
            let w: EdgeWeight = rng.gen_range(1..4);
            shadow.insert_edge(u, v, w);
            ops.push(TraceOp::Insert { u, v, w });
        } else {
            let live: Vec<_> = shadow.edges().collect();
            let (u, v, _) = live[rng.gen_range(0..live.len())];
            shadow.delete_edge(u, v).expect("live edge");
            ops.push(TraceOp::Delete { u, v });
        }
    }
    ops
}
