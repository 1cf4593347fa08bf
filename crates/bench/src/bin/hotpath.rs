//! Hot-path bench: the CAPFOREST scan, contraction accumulation, and the
//! end-to-end solvers built on them, on the clustered instances where
//! bound-driven contraction does many rounds.
//!
//! Three measurements, every one exactness-checked before it is timed:
//!
//! 1. **Scan micro** — one λ̂-bounded sequential CAPFOREST pass per
//!    bucket queue on warm pooled state (a [`ScanScratch`] and a reused
//!    queue). The warm passes must equal a fresh
//!    `capforest::<CountingPq<_>>` pass: λ̂, unions, witness length, scan
//!    order and PQ-operation tallies.
//! 2. **Contraction micro** — the engine's one accumulator, warm and
//!    recycled, on the three shapes of round the solvers produce: a
//!    near-identity labelling (n − n/1000 blocks from merging the
//!    endpoints of random edges, like a reduction round that removes a
//!    handful of vertices), a coarse one (n/24 blocks) and a few-block
//!    one (min(n/24, 128) blocks). Each output must equal
//!    `CsrGraph::from_edges` over the relabelled edges, by value and by
//!    fingerprint.
//! 3. **End-to-end** — `noi-viecut` at 1 thread and ParCut at 1/2/4
//!    workers through `Session`; every row of an instance must report the
//!    same λ.
//!
//! Results are persisted as `results/BENCH_<name>.json`
//! (`hotpath <name>`, default `hotpath`). The baseline is a committed
//! BENCH file or a run of an older commit; `bench-diff` joins the two,
//! fails on λ drift and warns on 1-thread PQ-op drift — see ROADMAP.md
//! "Performance" for the protocol.

use mincut_bench::instances::{social_proxy, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::runner::time_reps;
use mincut_bench::table::Table;
use mincut_core::capforest::{capforest, capforest_with, ScanInfo, ScanScratch};
use mincut_core::{Session, SolveOptions};
use mincut_ds::{BQueuePq, BStackPq, CountingPq, MaxPq, PqCounters, PqKind, UnionFind};
use mincut_graph::generators::known;
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::{ContractionEngine, CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xbeef;

/// End-to-end rows report the best single run out of
/// `E2E_BATCHES × reps`: on a throttled shared box the minimum is the
/// stable statistic, and this count keeps the rows comparable with the
/// committed baselines (timed as 12 best-of-reps batches).
const E2E_BATCHES: usize = 12;

struct Case {
    name: String,
    graph: CsrGraph,
}

/// Clustered instances (the families where bound-driven contraction does
/// many rounds, i.e. where the scan/contract loop dominates).
fn cases(scale: Scale) -> Vec<Case> {
    let unit = match scale {
        Scale::Tiny => 1usize,
        Scale::Small => 6,
        Scale::Full => 16,
    };
    let mut out = Vec::new();
    let (g, _) = known::two_communities(40 * unit, 44 * unit, 2, 3, 1);
    out.push(Case {
        name: format!("two_communities_{}", g.n()),
        graph: g,
    });
    let (g, _) = known::ring_of_cliques(8 + unit, 10 * unit, 2, 1);
    out.push(Case {
        name: format!("ring_of_cliques_{}", g.n()),
        graph: g,
    });
    let ba = social_proxy(384 * unit, 42);
    let (core, _) = k_core_lcc(&ba, 5);
    if core.n() > 48 {
        out.push(Case {
            name: format!("social_k5_{}", core.n()),
            graph: core,
        });
    }
    out
}

/// `v mod blocks`: a labelling onto `blocks` blocks that spreads every
/// cluster over all of them.
fn modulo_labels(n: usize, blocks: usize) -> (Vec<NodeId>, usize) {
    (
        (0..n as NodeId).map(|v| v % blocks as NodeId).collect(),
        blocks,
    )
}

/// A near-identity labelling: the endpoints of random edges merged until
/// n/1000 vertices (at least one) are gone, numbered densely.
fn near_identity_labels(g: &CsrGraph, seed: u64) -> (Vec<NodeId>, usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut uf = UnionFind::new(g.n());
    let target = g.n() - (g.n() / 1000).max(1);
    while uf.count() > target {
        let u = rng.gen_range(0..g.n() as NodeId);
        let nbrs = g.neighbors(u);
        if !nbrs.is_empty() {
            uf.union(u, nbrs[rng.gen_range(0..nbrs.len())]);
        }
    }
    uf.dense_labels()
}

/// Times `reps` warm pooled scan passes with queue `P` from vertex 0 and
/// checks them against one fresh `capforest` pass: the last pass's λ̂,
/// unions, witness length and scan order, and the tallies of all passes.
/// Returns the pass info, the per-pass PQ-operation tallies and the best
/// pass time.
fn scan_micro<P: MaxPq>(
    name: &str,
    g: &CsrGraph,
    bound: u64,
    reps: usize,
) -> (ScanInfo, PqCounters, f64) {
    let fresh = capforest::<CountingPq<P>>(g, bound, 0, true);
    let mut scratch = ScanScratch::new();
    let mut q: CountingPq<P> = MaxPq::new();
    // Warm-up pass, then timed passes on warm state.
    capforest_with(g, bound, 0, true, &mut q, &mut scratch);
    q.take_ops();
    let (info, wall) = time_reps(reps, || {
        capforest_with(g, bound, 0, true, &mut q, &mut scratch)
    });
    assert_eq!(info.lambda_hat, fresh.lambda_hat, "{name}: λ̂");
    assert_eq!(info.unions, fresh.unions, "{name}: unions");
    assert_eq!(info.best_prefix_len, fresh.best_prefix_len, "{name}");
    assert_eq!(scratch.order(), &fresh.scan_order[..], "{name}: scan order");
    let ops = q.take_ops();
    let r = reps as u64;
    assert_eq!(
        (ops.pushes, ops.raises, ops.pops),
        (
            fresh.pq_ops.pushes * r,
            fresh.pq_ops.raises * r,
            fresh.pq_ops.pops * r
        ),
        "{name}: warm passes diverged from the fresh pass's PQ ops"
    );
    (info, fresh.pq_ops, wall)
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "hotpath".into());
    let scale = Scale::from_env();
    let reps = (scale.repetitions() * 2).max(2);
    let mut report = BenchReport::new(name, scale);
    println!("== Hot path: CAPFOREST scan, contraction, end to end (scale {scale:?}) ==\n");

    let mut scan_table = Table::new(&["instance", "queue", "wall_s", "pq_total"]);
    let mut contract_table = Table::new(&["instance", "shape", "blocks", "wall_s"]);
    let mut e2e_table = Table::new(&[
        "instance", "solver", "threads", "wall_s", "lambda", "pq_total",
    ]);

    for case in cases(scale) {
        let g = &case.graph;
        let delta = g.min_weighted_degree().unwrap().1;

        // ---- 1. scan micro: one λ̂-bounded pass per bucket queue. Past
        // the bucket range the shipped scans dispatch to the heap, and
        // driving a bucket queue here would allocate Θ(bound) heads.
        assert!(
            delta <= 1 << 26,
            "{}: instance bound exceeds the bucket range",
            case.name
        );
        for qname in ["bqueue", "bstack"] {
            let (info, ops, wall) = if qname == "bstack" {
                scan_micro::<BStackPq>(&case.name, g, delta, reps)
            } else {
                scan_micro::<BQueuePq>(&case.name, g, delta, reps)
            };
            scan_table.row(vec![
                case.name.clone(),
                qname.into(),
                format!("{wall:.6}"),
                ops.total().to_string(),
            ]);
            let mut entry =
                BenchEntry::named(&case.name, &format!("scan/{qname}"), 1, g.n(), g.m());
            entry.lambda = info.lambda_hat;
            entry.wall_s = wall;
            entry.reps = reps;
            entry.pq_pushes = ops.pushes;
            entry.pq_raises = ops.raises;
            entry.pq_pops = ops.pops;
            report.push(entry);
        }

        // ---- 2. contraction micro: one warm, recycled engine on the
        // near-identity, coarse and few-block shapes. ----
        let mut engine = ContractionEngine::new();
        let coarse = (g.n() / 24).max(2);
        for (shape, (labels, blocks)) in [
            ("near-identity", near_identity_labels(g, SEED)),
            ("coarse", modulo_labels(g.n(), coarse)),
            ("few", modulo_labels(g.n(), coarse.min(128))),
        ] {
            let edges: Vec<_> = g
                .edges()
                .map(|(u, v, w)| (labels[u as usize], labels[v as usize], w))
                .collect();
            let expected = CsrGraph::from_edges(blocks, &edges);
            let warm = engine.contract(g, &labels, blocks);
            engine.recycle(warm);
            let mut last: Option<CsrGraph> = None;
            let ((), wall) = time_reps(reps, || {
                let c = engine.contract(g, &labels, blocks);
                if let Some(old) = last.replace(c) {
                    engine.recycle(old);
                }
            });
            let c = last.expect("at least one rep");
            assert_eq!(c, expected, "{}: {shape} contraction diverged", case.name);
            assert_eq!(c.fingerprint(), expected.fingerprint());
            engine.recycle(c);
            contract_table.row(vec![
                case.name.clone(),
                shape.into(),
                blocks.to_string(),
                format!("{wall:.6}"),
            ]);
            let mut entry = BenchEntry::named(
                &format!("{}/b{blocks}", case.name),
                &format!("contract/{shape}"),
                1,
                g.n(),
                g.m(),
            );
            entry.wall_s = wall;
            entry.reps = reps;
            report.push(entry);
        }

        // ---- 3. end-to-end: noi-viecut and parcut. ----
        let opts = SolveOptions::new()
            .seed(SEED)
            .pq(PqKind::BQueue)
            .witness(false)
            .no_reductions();
        let mut lambdas = Vec::new();
        for (solver, threads_list) in [("noi-viecut", &[1usize][..]), ("parcut", &[1, 2, 4])] {
            for &threads in threads_list {
                let run_opts = opts.clone().threads(threads);
                let (outcome, wall) = time_reps(E2E_BATCHES * reps, || {
                    Session::new(g)
                        .options(run_opts.clone())
                        .run(solver)
                        .unwrap_or_else(|e| panic!("{solver}: {e}"))
                });
                lambdas.push((solver, threads, outcome.cut.value));
                e2e_table.row(vec![
                    case.name.clone(),
                    solver.into(),
                    threads.to_string(),
                    format!("{wall:.5}"),
                    outcome.cut.value.to_string(),
                    outcome.stats.pq_ops.total().to_string(),
                ]);
                let mut entry = BenchEntry::named(&case.name, solver, threads, g.n(), g.m());
                entry.absorb_outcome(&outcome);
                entry.wall_s = wall;
                entry.reps = reps;
                report.push(entry);
            }
        }
        assert!(
            lambdas.iter().all(|&(_, _, l)| l == lambdas[0].2),
            "{}: end-to-end rows disagree on λ: {lambdas:?}",
            case.name
        );
    }

    println!("-- CAPFOREST scan: one bounded pass on warm state (≡ a fresh pass) --");
    scan_table.emit("hotpath_scan");
    println!("\n-- contraction: near-identity, coarse and few-block rounds (≡ the builder) --");
    contract_table.emit("hotpath_contract");
    println!("\n-- end-to-end: shipped solvers (λ identical per instance) --");
    e2e_table.emit("hotpath_e2e");

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncould not write BENCH json: {e}"),
    }
    println!("warm scans ≡ fresh passes, contractions ≡ the builder, λ identical per instance ✓");
}
