//! Kernelization impact: kernel size and wall time with the reduction
//! pipeline on vs. off, at 1/2/4 threads.
//!
//! For every instance the bin (1) runs the standalone
//! [`ReductionPipeline`] and reports the kernel, with one `reduce/<pass>`
//! row per pass in the report, (2) times the solvers with reductions on
//! and off and checks the λ values agree exactly.
//! On the clustered generator families (`two_communities`,
//! `ring_of_cliques`, the social-proxy k-core) the kernel must be
//! *strictly* smaller — that assertion makes this bin double as the CI
//! smoke test of the whole kernelization path (`SMC_SCALE=tiny`).
//!
//! Sizes follow `SMC_SCALE` (tiny/small/full) like every other bench bin.

use std::time::Instant;

use mincut_bench::instances::{social_proxy, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::table::Table;
use mincut_core::{ReductionPipeline, Session, SolveContext, SolveOptions, SolverStats};
use mincut_graph::generators::known;
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::CsrGraph;

struct Case {
    name: String,
    graph: CsrGraph,
    /// Clustered instances must produce a strictly smaller kernel.
    clustered: bool,
}

fn cases(scale: Scale) -> Vec<Case> {
    let unit = match scale {
        Scale::Tiny => 1usize,
        Scale::Small => 4,
        Scale::Full => 12,
    };
    let mut out = Vec::new();
    let (g, _) = known::two_communities(30 * unit, 34 * unit, 2, 3, 1);
    out.push(Case {
        name: format!("two_communities_{}", g.n()),
        graph: g,
        clustered: true,
    });
    let (g, _) = known::ring_of_cliques(6 + unit, 8 * unit, 2, 1);
    out.push(Case {
        name: format!("ring_of_cliques_{}", g.n()),
        graph: g,
        clustered: true,
    });
    let ba = social_proxy(256 * unit, 42);
    let (core, _) = k_core_lcc(&ba, 5);
    if core.n() > 32 {
        out.push(Case {
            name: format!("social_k5_{}", core.n()),
            graph: core,
            clustered: true,
        });
    }
    // Control: grids have no community structure to exploit; reductions
    // must stay correct, shrinkage is not required.
    let (g, _) = known::grid_graph(8 * unit, 9 * unit, 2);
    out.push(Case {
        name: format!("grid_{}", g.n()),
        graph: g,
        clustered: false,
    });
    out
}

fn time_solver(g: &CsrGraph, solver: &str, opts: &SolveOptions, reps: usize) -> (u64, f64) {
    let mut value = 0;
    let t0 = Instant::now();
    for _ in 0..reps.max(1) {
        value = Session::new(g)
            .options(opts.clone())
            .run(solver)
            .unwrap_or_else(|e| panic!("{solver}: {e}"))
            .cut
            .value;
    }
    (value, t0.elapsed().as_secs_f64() / reps.max(1) as f64)
}

fn main() {
    let scale = Scale::from_env();
    let reps = scale.repetitions();
    println!("== Kernelization impact (scale {scale:?}) ==\n");

    let mut report = BenchReport::new("reduction", scale);
    let mut kernel_table =
        Table::new(&["instance", "n", "m", "kernel_n", "kernel_m", "lambda_hat"]);
    let mut time_table = Table::new(&[
        "instance", "solver", "threads", "on_s", "off_s", "off/on", "lambda",
    ]);

    for case in cases(scale) {
        let g = &case.graph;
        // Standalone pipeline run: the kernel itself.
        let mut scratch = SolverStats::new("reduce".into(), g.n(), g.m());
        let mut ctx = SolveContext::new(&mut scratch);
        let red = ReductionPipeline::standard()
            .run(g, None, &mut ctx)
            .expect("no budget");
        kernel_table.row(vec![
            case.name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            red.kernel.n().to_string(),
            red.kernel.m().to_string(),
            red.lambda_hat.to_string(),
        ]);
        assert!(
            red.kernel.n() <= g.n(),
            "{}: kernel larger than the input?",
            case.name
        );
        if case.clustered {
            assert!(
                red.kernel.n() < g.n(),
                "{}: reductions must strictly shrink clustered instances",
                case.name
            );
        }
        // One row per pass (`reduce/<pass>`, sequential, so 1 thread):
        // its seconds and rounds, with the pipeline's λ̂ and kernel, so
        // `bench-diff` diffs each kernelization layer.
        for pass in &red.passes {
            let solver = format!("reduce/{}", pass.name);
            let mut e = BenchEntry::named(&case.name, &solver, 1, g.n(), g.m());
            e.lambda = red.lambda_hat;
            e.wall_s = pass.seconds;
            e.rounds = pass.rounds;
            e.kernel_n = red.kernel.n();
            e.kernel_m = red.kernel.m();
            report.push(e);
        }

        // Wall time with reductions on vs. off; λ must agree exactly.
        for (solver, threads) in [
            ("noi-viecut", 1usize),
            ("parcut", 1),
            ("parcut", 2),
            ("parcut", 4),
        ] {
            let base = SolveOptions::new().seed(7).witness(false).threads(threads);
            let (v_on, t_on) = time_solver(g, solver, &base, reps);
            let (v_off, t_off) = time_solver(g, solver, &base.clone().no_reductions(), reps);
            assert_eq!(
                v_on, v_off,
                "{}: λ must be identical with reductions on and off ({solver}, p={threads})",
                case.name
            );
            time_table.row(vec![
                case.name.clone(),
                solver.into(),
                threads.to_string(),
                format!("{t_on:.5}"),
                format!("{t_off:.5}"),
                format!("{:.2}", t_off / t_on.max(1e-9)),
                v_on.to_string(),
            ]);
            // Baseline rows: the reductions-on run carries the kernel
            // size, its `/no-reduce` control the full-graph solve.
            let mut e = BenchEntry::named(&case.name, solver, threads, g.n(), g.m());
            e.lambda = v_on;
            e.wall_s = t_on;
            e.reps = reps;
            e.kernel_n = red.kernel.n();
            e.kernel_m = red.kernel.m();
            report.push(e);
            let solver_off = format!("{solver}/no-reduce");
            let mut e = BenchEntry::named(&case.name, &solver_off, threads, g.n(), g.m());
            e.lambda = v_off;
            e.wall_s = t_off;
            e.reps = reps;
            report.push(e);
        }
    }

    println!("-- kernel sizes (reductions on) --");
    kernel_table.emit("reduction_impact_kernels");
    println!("\n-- wall time, reductions on vs off --");
    time_table.emit("reduction_impact_times");
    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write baseline: {e}"),
    }
    println!("\nall λ values identical with reductions on and off ✓");
}
