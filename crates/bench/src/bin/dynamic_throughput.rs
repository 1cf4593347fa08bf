//! Dynamic-update throughput: `DynamicMinCut` maintenance vs. a full
//! cold re-solve after every update, at 1/2/4 threads.
//!
//! For every clustered instance the bin generates a deterministic mixed
//! insert/delete trace, replays it through (a) the incremental
//! maintainer and (b) a baseline that materialises the mutated graph and
//! runs a cold `Session` solve after each update, and checks the two λ
//! sequences are identical. The maintainer's amortized per-update cost
//! must beat one full cold solve per update on the clustered families —
//! that assertion makes this bin the CI smoke test of the dynamic
//! subsystem (`SMC_SCALE=tiny`), mirroring `reduction_impact`. Both
//! sides are millisecond-scale, so each is timed as the best of
//! [`GATE_REPLAYS`](mincut_bench::runner::GATE_REPLAYS) replays, every
//! one of them checked.
//!
//! Sizes follow `SMC_SCALE` (tiny/small/full) like every other bench bin.

use mincut_bench::instances::{make_trace, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::runner::best_replay;
use mincut_bench::table::Table;
use mincut_core::dynamic::{materialize, DynamicMinCut, TraceOp};
use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::known;
use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight};

struct Case {
    name: String,
    graph: CsrGraph,
    /// Clustered instances must amortize below one cold solve/update.
    clustered: bool,
}

fn cases(scale: Scale) -> Vec<Case> {
    let unit = match scale {
        Scale::Tiny => 1usize,
        Scale::Small => 3,
        Scale::Full => 8,
    };
    let mut out = Vec::new();
    let (g, _) = known::two_communities(24 * unit, 26 * unit, 2, 3, 1);
    out.push(Case {
        name: format!("two_communities_{}", g.n()),
        graph: g,
        clustered: true,
    });
    let (g, _) = known::ring_of_cliques(5 + unit, 6 * unit, 2, 1);
    out.push(Case {
        name: format!("ring_of_cliques_{}", g.n()),
        graph: g,
        clustered: true,
    });
    // Control: grids re-solve often (witnesses are local), shrink little.
    let (g, _) = known::grid_graph(6 * unit, 7 * unit, 2);
    out.push(Case {
        name: format!("grid_{}", g.n()),
        graph: g,
        clustered: false,
    });
    out
}

fn main() {
    let scale = Scale::from_env();
    let updates = match scale {
        Scale::Tiny => 40usize,
        Scale::Small => 160,
        Scale::Full => 640,
    };
    println!("== Dynamic-update throughput (scale {scale:?}, {updates} updates) ==\n");

    let mut report = BenchReport::new("dynamic", scale);
    let mut table = Table::new(&[
        "instance",
        "threads",
        "updates",
        "resolves",
        "dyn_s",
        "full_s",
        "full/dyn",
        "dyn_upd/s",
    ]);

    for case in cases(scale) {
        let trace = make_trace(&case.graph, updates, 0.7, 0xD11A);
        for threads in [1usize, 2, 4] {
            let opts = SolveOptions::new().seed(11).threads(threads);

            // Incremental path: one maintainer across the whole trace.
            let tag = format!("{} (p={threads})", case.name);
            let mut resolves = 0;
            let (dyn_lambdas, dyn_s) = best_replay(&format!("{tag} maintained"), || {
                let mut dm = DynamicMinCut::new(case.graph.clone(), "parcut", opts.clone())
                    .unwrap_or_else(|e| panic!("{}: {e}", case.name));
                let lambdas: Vec<EdgeWeight> = trace
                    .iter()
                    .map(|op| dm.apply(op).expect("valid trace").lambda)
                    .collect();
                resolves = dm.stats().resolves;
                lambdas
            });

            // Baseline: cold solve on the materialised graph per update.
            let (full_lambdas, full_s) = best_replay(&format!("{tag} cold"), || {
                let mut shadow = DeltaGraph::new(case.graph.clone());
                let mut lambdas = Vec::with_capacity(trace.len());
                for op in &trace {
                    match *op {
                        TraceOp::Insert { u, v, w } => shadow.insert_edge(u, v, w),
                        TraceOp::Delete { u, v } => {
                            shadow.delete_edge(u, v).expect("valid trace");
                        }
                        // Queries (plain or cactus) leave the graph alone.
                        TraceOp::Query | TraceOp::QueryCount | TraceOp::QuerySeparating { .. } => {}
                    }
                    let g = materialize(&shadow);
                    let out = Session::new(&g)
                        .options(opts.clone())
                        .run("parcut")
                        .unwrap_or_else(|e| panic!("{}: baseline: {e}", case.name));
                    lambdas.push(out.cut.value);
                }
                lambdas
            });

            assert_eq!(
                dyn_lambdas, full_lambdas,
                "{}: maintained λ diverged from cold re-solves (p={threads})",
                case.name
            );
            if case.clustered {
                assert!(
                    dyn_s < full_s,
                    "{}: amortized update cost ({:.6}s/{} updates) must beat one \
                     full cold solve per update ({:.6}s) (p={threads})",
                    case.name,
                    dyn_s,
                    trace.len(),
                    full_s
                );
            }
            table.row(vec![
                case.name.clone(),
                threads.to_string(),
                trace.len().to_string(),
                resolves.to_string(),
                format!("{dyn_s:.5}"),
                format!("{full_s:.5}"),
                format!("{:.2}", full_s / dyn_s.max(1e-9)),
                format!("{:.0}", trace.len() as f64 / dyn_s.max(1e-9)),
            ]);
            // Baseline rows: the maintainer (rounds = re-solves) and the
            // per-update cold-solve control.
            let (n, m) = (case.graph.n(), case.graph.m());
            let mut e = BenchEntry::named(&case.name, "dynamic-maintain", threads, n, m);
            e.lambda = *dyn_lambdas.last().expect("non-empty trace");
            e.wall_s = dyn_s;
            e.reps = trace.len();
            e.rounds = resolves;
            report.push(e);
            let mut e = BenchEntry::named(&case.name, "dynamic-cold-solve", threads, n, m);
            e.lambda = *full_lambdas.last().expect("non-empty trace");
            e.wall_s = full_s;
            e.reps = trace.len();
            report.push(e);
        }
    }

    table.emit("dynamic_throughput");
    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write baseline: {e}"),
    }
    println!("\nmaintained λ identical to a cold re-solve after every update ✓");
}
