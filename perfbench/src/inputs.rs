//! Seeded benchmark inputs: the paper-shaped graphs and the update trace
//! of each workload, written once as `.smcpack` + trace files.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use mincut_bench::instances::social_proxy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sm_mincut::graph::generators::{random_hyperbolic_graph, random_permutation, RhgParams};
use sm_mincut::graph::kcore::k_core_lcc;
use sm_mincut::{CactusBuilder, CsrGraph, EdgeWeight, NodeId, Session, SolveOptions, TraceOp};

/// The three workloads; `perfbench/README.md` says why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RhgSolve,
    SocialParcut,
    RhgStream,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "rhg_solve" => Some(Workload::RhgSolve),
            "social_parcut" => Some(Workload::SocialParcut),
            "rhg_stream" => Some(Workload::RhgStream),
            _ => None,
        }
    }

    /// The registry solver one request of this workload runs.
    pub fn solver(self) -> &'static str {
        match self {
            Workload::SocialParcut => "parcut",
            Workload::RhgSolve | Workload::RhgStream => "noi-viecut",
        }
    }
}

/// `full` is the measured size; `tiny` only exercises the code paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// Salts keep the random streams of one seed apart.
const GRAPH_SALT: u64 = 0x6772_6170_6800_0000;
const LABEL_SALT: u64 = 0x6c61_6265_6c00_0000;
const TRACE_SALT: u64 = 0x7472_6163_6500_0000;

/// Generator seed of every workload's graph. The structure is fixed;
/// the benchmark seed relabels the vertices (see [`graph`]).
const GRAPH_SEED: u64 = 1;

/// Options of every request: the CLI defaults with two threads.
pub fn request_options() -> SolveOptions {
    SolveOptions::new().seed(42).threads(2)
}

fn rhg(log_n: u32, avg_degree: f64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(GRAPH_SEED ^ GRAPH_SALT);
    random_hyperbolic_graph(&RhgParams::paper(1 << log_n, avg_degree), &mut rng)
}

/// The workload's graph for `seed`: one generated structure per
/// workload, with a seeded random vertex order.
///
/// The seed does not drive the generators themselves: across generator
/// seeds the RHG's Monte-Carlo radius calibration moves m by ±30 % (one
/// seed in five came out disconnected, λ = 0, solved in 0.1 s) and the
/// social core's kernelization fixpoint takes 3 to 5 rounds, so solve
/// time moved by ±45 % between seeds and no per-seed timing was
/// comparable. A new vertex order still changes the memory layout, the
/// scan and tie-break order and every byte of the pack.
pub fn graph(w: Workload, size: Size, seed: u64) -> CsrGraph {
    let base = match (w, size) {
        (Workload::RhgSolve, Size::Full) => rhg(18, 32.0),
        (Workload::RhgSolve, Size::Tiny) => rhg(10, 16.0),
        (Workload::SocialParcut, Size::Full) => k_core_lcc(&social_proxy(1 << 18, GRAPH_SEED), 8).0,
        (Workload::SocialParcut, Size::Tiny) => k_core_lcc(&social_proxy(1 << 10, GRAPH_SEED), 6).0,
        (Workload::RhgStream, Size::Full) => rhg(11, 32.0),
        (Workload::RhgStream, Size::Tiny) => rhg(8, 16.0),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ LABEL_SALT);
    base.permuted(&random_permutation(base.n(), &mut rng))
}

/// Number of trace operations after the leading `q`.
pub fn trace_len(size: Size) -> usize {
    match size {
        Size::Full => 1000,
        Size::Tiny => 100,
    }
}

/// The update trace of `rhg_stream`: one leading `q`, then `ops` ops in
/// a seeded order — exactly 55 % inserts (weight 1–3), 30 % deletes of a
/// live edge, and 15 % reads split evenly over `q`, `qc` and `qs u v`.
///
/// Writes touch only the bulk of the graph: vertices of the largest
/// cactus node (no minimum cut separates any two of them) whose weighted
/// degree stays at least λ + 4. So no write crosses a minimum cut or
/// lowers a trivial cut to λ, λ stays put, and every seed replays the
/// same mix of absorbed inserts and repaired deletes instead of a
/// seed-dependent number of multi-second fallback rebuilds. Reads pick
/// any pair.
pub fn stream_trace(
    g: &CsrGraph,
    lambda: EdgeWeight,
    ops: usize,
    seed: u64,
) -> Result<Vec<TraceOp>, String> {
    let cactus = CactusBuilder::new()
        .options(request_options())
        .build_with_lambda(g, lambda)
        .map_err(|e| format!("cactus of the stream graph: {e}"))?;
    let n = g.n() as NodeId;
    let mut size = vec![0usize; cactus.num_nodes()];
    for v in 0..n {
        size[cactus.node_of(v) as usize] += 1;
    }
    let bulk = (0..size.len()).max_by_key(|&i| size[i]).expect("n >= 2") as u32;
    let floor = lambda + 4;
    let mut degree: Vec<EdgeWeight> = (0..n).map(|v| g.weighted_degree(v)).collect();
    let writable =
        |v: NodeId, degree: &[EdgeWeight]| cactus.node_of(v) == bulk && degree[v as usize] >= floor;
    let mut live: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| key(u, v)).collect();
    let mut weight: HashMap<(NodeId, NodeId), (EdgeWeight, usize)> = g
        .edges()
        .enumerate()
        .map(|(i, (u, v, w))| (key(u, v), (w, i)))
        .collect();

    // Exact op counts in a seeded order, so every seed has the same mix.
    let (inserts, deletes) = (ops * 55 / 100, ops * 30 / 100);
    let mut kinds: Vec<u8> = (0..ops)
        .map(|i| match i {
            i if i < inserts => b'i',
            i if i < inserts + deletes => b'd',
            i => [b'q', b'c', b's'][i % 3],
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ TRACE_SALT);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }
    let pair = |rng: &mut SmallRng| loop {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            return (u, v);
        }
    };
    let mut out = Vec::with_capacity(ops + 1);
    out.push(TraceOp::Query);
    let mut tries = 0u64;
    let mut give_up = || {
        tries += 1;
        tries > 100 * ops as u64 + 1_000_000
    };
    for kind in kinds {
        out.push(match kind {
            b'i' => loop {
                let (u, v) = pair(&mut rng);
                if give_up() {
                    return Err("too few writable vertices for the trace".into());
                }
                if !writable(u, &degree) || !writable(v, &degree) {
                    continue;
                }
                let w: EdgeWeight = rng.gen_range(1..4);
                let e = key(u, v);
                match weight.get_mut(&e) {
                    Some(slot) => slot.0 += w,
                    None => {
                        weight.insert(e, (w, live.len()));
                        live.push(e);
                    }
                }
                degree[u as usize] += w;
                degree[v as usize] += w;
                break TraceOp::Insert { u, v, w };
            },
            b'd' => loop {
                let (u, v) = live[rng.gen_range(0..live.len())];
                let w = weight[&(u, v)].0;
                let keeps = |x: NodeId| writable(x, &degree) && degree[x as usize] - w > lambda;
                if give_up() {
                    return Err("too few deletable edges for the trace".into());
                }
                if !keeps(u) || !keeps(v) {
                    continue;
                }
                let (_, i) = weight.remove(&(u, v)).expect("live edge");
                live.swap_remove(i);
                if let Some(&moved) = live.get(i) {
                    weight.get_mut(&moved).expect("live edge").1 = i;
                }
                degree[u as usize] -= w;
                degree[v as usize] -= w;
                break TraceOp::Delete { u, v };
            },
            b'q' => TraceOp::Query,
            b'c' => TraceOp::QueryCount,
            _ => {
                let (u, v) = pair(&mut rng);
                TraceOp::QuerySeparating { u, v }
            }
        });
    }
    Ok(out)
}

fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

/// Writes `ops` in the `mincut --stream` trace syntax.
pub fn write_trace(ops: &[TraceOp], path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for op in ops {
        match *op {
            TraceOp::Insert { u, v, w } => writeln!(f, "i {u} {v} {w}")?,
            TraceOp::Delete { u, v } => writeln!(f, "d {u} {v}")?,
            TraceOp::Query => writeln!(f, "q")?,
            TraceOp::QueryCount => writeln!(f, "qc")?,
            TraceOp::QuerySeparating { u, v } => writeln!(f, "qs {u} {v}")?,
        }
    }
    f.flush()
}

/// λ by a path no request takes: plain NOI without kernelization.
pub fn reference_lambda(g: &CsrGraph) -> Result<EdgeWeight, String> {
    Session::new(g)
        .options(request_options().no_reductions())
        .run("noi")
        .map(|o| o.cut.value)
        .map_err(|e| format!("reference solve failed: {e}"))
}
