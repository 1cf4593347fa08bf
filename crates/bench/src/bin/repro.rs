//! Regenerates the paper's evaluation: Figures 2–5 and Table 1 of §4, and
//! the §3.1.2 priority-queue ablation.
//!
//! ```text
//! repro fig2|fig3|fig4|fig5|table1|ablation|all
//! ```
//!
//! Each experiment prints its table and writes it to `results/<name>.csv`,
//! and its rows to `results/BENCH_<name>.json` for `bench-diff`; `<name>`
//! is given in parentheses below. `all` runs the six in this order, each
//! in a process of its own. Sizes come from `SMC_SCALE` ([`Scale`]).
//! Every solve runs with reductions off, as the paper's do: on these
//! families the kernelization pipeline alone would collapse the graph,
//! and the figures would time it instead of the algorithms they name.
//!
//! * `fig2` (`fig2_rhg`), **Figure 2**: nanoseconds per edge on random
//!   hyperbolic graphs, one series per algorithm, over a grid of (number
//!   of vertices × average degree). Paper shape to check (§4.2): HO-CGKLS
//!   is slowest everywhere; the NOI variants are within a small factor of
//!   each other on RHG (priorities rarely exceed λ̂, so bounding saves
//!   little); the VieCut-seeded variants win on the *denser* grids, losing
//!   only on very sparse ones where plain NOI is already near-linear.
//! * `fig3` (`fig3_realworld`), **Figure 3**: running time on the
//!   "real-world" proxies, normalised by that of NOIλ̂-Heap-VieCut, against
//!   the number of edges and the average degree. Also prints the §4.2
//!   headline statistics: geometric-mean speedups of NOIλ̂-Heap over
//!   NOI-HNSS, NOIλ̂-BStack over NOIλ̂-Heap, and the VieCut variant over the
//!   non-VieCut one.
//! * `fig4` (`fig4_profile`), **Figure 4**: the performance profile over
//!   the instances of `fig2` and `fig3`. For each algorithm, its
//!   per-instance ratios `t_best / t_algorithm` in increasing order; a
//!   curve that dominates another outperforms it, and 1 means fastest on
//!   that instance. Paper shape: NOIλ̂-Heap-VieCut is at or near 1 on all
//!   but the sparsest instances; HO-CGKLS and NOI-CGKLS are dominated
//!   everywhere.
//! * `fig5` (`fig5_scaling`), **Figure 5**: strong scaling of ParCutλ̂ on
//!   five instances, per queue, at p ∈ {1, 2, 4, 8, 12, 24} up to twice the
//!   hardware threads: the self-relative scalability `t(ParCut, 1) /
//!   t(ParCut, p)` (the paper's top row) and the speedup over the faster of
//!   NOIλ̂-Heap and NOIλ̂-BStack (its bottom row, where it reports 12.9×).
//!   On a machine with few hardware threads the speedups stay far below the
//!   paper's; every row still checks that its solver returns the
//!   sequential λ.
//! * `table1` (`table1_instances`), **Table 1**: instance statistics:
//!   original size, k, core size, minimum cut λ and minimum degree δ. The
//!   web and social graphs are replaced by synthetic proxies
//!   ([`social_proxy`], [`web_proxy`]); the preparation (k-core, then
//!   largest connected component) and the columns are the paper's.
//! * `ablation` (`ablation_pq_ops`), **§3.1.2**: how many priority-queue
//!   operations the λ̂ cap saves. One CAPFOREST pass per instance with a
//!   counting queue: unbounded, bounded by the minimum degree δ, and
//!   bounded by VieCut's cut. The paper finds the savings small on RHG
//!   ("usually, less than 5% of edges do not incur an update") and large
//!   on skewed real-world graphs ("NOI-HNSS often reaches priority values
//!   of much higher than λ̂").

use std::process::{Command, ExitCode};

use mincut_bench::instances::{
    fig2_grid, fig5_instances, fig5_thread_counts, realworld_proxies, social_proxy, web_proxy,
    Instance, Scale,
};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::runner::{
    fig2_algorithms, fig5_parallel, fig5_sequential, sweep, ABLATION_BOUND_SOLVER, TABLE1_SOLVER,
};
use mincut_bench::table::{geometric_mean, Table};
use mincut_core::capforest::capforest;
use mincut_core::{PqKind, Session, SolveOptions};
use mincut_ds::{BinaryHeapPq, CountingPq};
use mincut_graph::generators::{random_hyperbolic_graph, RhgParams};
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Regenerates one table or figure at the given scale.
type Experiment = fn(Scale);

/// Each experiment's subcommand, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 6] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("table1", table1),
    ("ablation", ablation),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [sub] = args.as_slice() else {
        return usage();
    };
    if sub == "all" {
        return run_all();
    }
    let Some(&(_, run)) = EXPERIMENTS.iter().find(|(name, _)| name == sub) else {
        return usage();
    };
    run(Scale::from_env());
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: repro fig2|fig3|fig4|fig5|table1|ablation|all");
    ExitCode::from(2)
}

/// Runs each experiment in a child process of its own: a report's
/// `peak_rss_kb` is its process's peak, which must be that experiment's
/// alone.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("the path of the running binary");
    for (name, _) in EXPERIMENTS {
        match Command::new(&exe).arg(name).status() {
            Ok(status) if status.success() => continue,
            Ok(status) => eprintln!("repro {name}: {status}"),
            Err(e) => eprintln!("repro {name}: {e}"),
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints `table`, then writes it to `results/<name>.csv` and `report`
/// (created under the same name) to `results/BENCH_<name>.json`.
fn emit(name: &str, table: &Table, report: &BenchReport) {
    table.emit(name);
    match report.write() {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write report: {e}"),
    }
}

fn announce(inst: &Instance) {
    let g = &inst.graph;
    eprintln!("[instance {} : n={} m={}]", inst.name, g.n(), g.m());
}

fn fig2(scale: Scale) {
    let reps = scale.repetitions();
    let mut report = BenchReport::new("fig2_rhg", scale);
    println!("== Figure 2: ns/edge on RHG graphs (scale {scale:?}, {reps} reps) ==\n");
    let mut table = Table::new(&[
        "log2_n",
        "log2_deg",
        "n",
        "m",
        "algorithm",
        "lambda",
        "ns_per_edge",
    ]);
    let algorithms = fig2_algorithms();
    for (ne, de, inst) in fig2_grid(scale) {
        announce(&inst);
        let (lambda, secs) = sweep(&mut report, &inst, &algorithms, reps, 7);
        let (n, m) = (inst.graph.n(), inst.graph.m());
        for (algo, s) in algorithms.iter().zip(secs) {
            table.row(vec![
                ne.to_string(),
                de.to_string(),
                n.to_string(),
                m.to_string(),
                algo.to_string(),
                lambda.to_string(),
                format!("{:.1}", s * 1e9 / m as f64),
            ]);
        }
    }
    emit("fig2_rhg", &table, &report);
}

fn fig3(scale: Scale) {
    let reps = scale.repetitions();
    let mut report = BenchReport::new("fig3_realworld", scale);
    println!("== Figure 3: slowdown vs NOIλ̂-Heap-VieCut on real-world proxies ==");
    println!("   (scale {scale:?}, {reps} reps)\n");
    let algorithms = fig2_algorithms();
    let at = |name: &str| {
        algorithms
            .iter()
            .position(|a| a.solver == name)
            .expect("a Figure 2 algorithm")
    };
    let (hnss, heap, bstack, heap_viecut) = (
        at("NOI-HNSS"),
        at("NOIλ̂-Heap"),
        at("NOIλ̂-BStack"),
        at("NOIλ̂-Heap-VieCut"),
    );
    let mut table = Table::new(&[
        "graph",
        "m",
        "avg_deg",
        "algorithm",
        "lambda",
        "seconds",
        "slowdown",
    ]);
    let mut speedup_bounded = Vec::new(); // NOI-HNSS / NOIλ̂-Heap
    let mut speedup_bstack = Vec::new(); // NOIλ̂-Heap / NOIλ̂-BStack
    let mut speedup_viecut = Vec::new(); // NOIλ̂-Heap / NOIλ̂-Heap-VieCut
    for inst in realworld_proxies(scale) {
        announce(&inst);
        let (lambda, t) = sweep(&mut report, &inst, &algorithms, reps, 11);
        let g = &inst.graph;
        for (algo, secs) in algorithms.iter().zip(&t) {
            table.row(vec![
                inst.name.clone(),
                g.m().to_string(),
                format!("{:.1}", g.avg_degree()),
                algo.to_string(),
                lambda.to_string(),
                format!("{secs:.4}"),
                format!("{:.2}", secs / t[heap_viecut]),
            ]);
        }
        speedup_bounded.push(t[hnss] / t[heap]);
        speedup_bstack.push(t[heap] / t[bstack]);
        speedup_viecut.push(t[heap] / t[heap_viecut]);
    }
    emit("fig3_realworld", &table, &report);

    println!("\n== §4.2 headline statistics (geometric means) ==");
    println!(
        "NOIλ̂-Heap vs NOI-HNSS speedup:        {:.2}x   (paper: 1.35x, up to 1.83x)",
        geometric_mean(&speedup_bounded)
    );
    println!(
        "NOIλ̂-BStack vs NOIλ̂-Heap speedup:     {:.2}x   (paper: 1.22x on real-world)",
        geometric_mean(&speedup_bstack)
    );
    println!(
        "NOIλ̂-Heap-VieCut vs NOIλ̂-Heap:        {:.2}x   (paper: 1.34x over all graphs)",
        geometric_mean(&speedup_viecut)
    );
}

fn fig4(scale: Scale) {
    let reps = scale.repetitions();
    println!("== Figure 4: performance profile t_best/t_algo (scale {scale:?}) ==\n");
    let algorithms = fig2_algorithms();
    let mut report = BenchReport::new("fig4_profile", scale);
    // All instances: the RHG grid plus the real-world proxies.
    // times[i][a] = seconds of algorithm a on instance i.
    let times: Vec<Vec<f64>> = fig2_grid(scale)
        .into_iter()
        .map(|(_, _, inst)| inst)
        .chain(realworld_proxies(scale))
        .map(|inst| {
            announce(&inst);
            sweep(&mut report, &inst, &algorithms, reps, 13).1
        })
        .collect();
    let n_inst = times.len();
    let best: Vec<f64> = times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();

    let mut table = Table::new(&["algorithm", "instance_rank", "ratio_best_over_algo"]);
    for (ai, algo) in algorithms.iter().enumerate() {
        let mut ratios: Vec<f64> = times.iter().zip(&best).map(|(t, b)| b / t[ai]).collect();
        // The paper sorts each algorithm's ratios in increasing order.
        ratios.sort_by(f64::total_cmp);
        for (rank, r) in ratios.iter().enumerate() {
            table.row(vec![
                algo.to_string(),
                (rank + 1).to_string(),
                format!("{r:.3}"),
            ]);
        }
        let fastest_on = ratios.iter().filter(|&&r| r > 0.999).count();
        println!(
            "{:<22} fastest on {fastest_on}/{n_inst} instances, median ratio {:.3}",
            algo.to_string(),
            ratios[n_inst / 2]
        );
    }
    println!();
    emit("fig4_profile", &table, &report);
}

fn fig5(scale: Scale) {
    let reps = scale.repetitions();
    let threads = fig5_thread_counts();
    let mut report = BenchReport::new("fig5_scaling", scale);
    println!("== Figure 5: scaling of ParCutλ̂ (scale {scale:?}, threads {threads:?}) ==\n");
    let mut table = Table::new(&[
        "graph",
        "pq",
        "threads",
        "lambda",
        "seconds",
        "scalability",
        "speedup_vs_best_seq",
    ]);
    let (sequential, parallel) = (fig5_sequential(), fig5_parallel(&threads));
    for inst in fig5_instances(scale) {
        announce(&inst);
        let (lambda, seq) = sweep(&mut report, &inst, &sequential, reps, 3);
        let (par_lambda, par) = sweep(&mut report, &inst, &parallel, reps, 5);
        assert_eq!(
            par_lambda, lambda,
            "parallel result must match sequential on {}",
            inst.name
        );
        let best_seq = seq.iter().copied().fold(f64::INFINITY, f64::min);
        // `fig5_parallel` is queue-major in `PqKind::ALL` order.
        for (pq, secs) in PqKind::ALL.iter().zip(par.chunks(threads.len())) {
            for (p, s) in threads.iter().zip(secs) {
                table.row(vec![
                    inst.name.clone(),
                    pq.to_string(),
                    p.to_string(),
                    lambda.to_string(),
                    format!("{s:.4}"),
                    format!("{:.2}", secs[0] / s),
                    format!("{:.2}", best_seq / s),
                ]);
            }
        }
    }
    emit("fig5_scaling", &table, &report);
    println!("\nPaper reference points: ParCutλ̂-BQueue reaches speedup 12.9x at");
    println!("24 threads on twitter-2010 k=50; sequential-dominant instances");
    println!("(low minimum degree) only break even at several threads.");
}

fn table1(scale: Scale) {
    let mut report = BenchReport::new("table1_instances", scale);
    println!("== Table 1: instance statistics (scale {scale:?}) ==");
    println!("   paper columns: graph | n | m | k | core n | core m | λ | δ\n");
    let mut table = Table::new(&[
        "graph", "n", "m", "k", "core_n", "core_m", "lambda", "delta",
    ]);

    let (ba_n, rmat_scale) = match scale {
        Scale::Tiny => (1usize << 10, 10u32),
        Scale::Small => (1 << 13, 13),
        Scale::Full => (1 << 15, 15),
    };

    // Social-network proxy (stands in for hollywood-2011 / com-orkut /
    // twitter-2010) with four cores, like the paper's per-graph core sets.
    let ba = social_proxy(ba_n, 42);
    add_cores(&mut table, &mut report, "social-proxy", &ba, &[5, 6, 8, 10]);

    // Web-graph proxy (stands in for uk-2002 / gsh-2015-host / uk-2007-05).
    let g = web_proxy(rmat_scale, 43);
    add_cores(&mut table, &mut report, "web-proxy", &g, &[4, 8, 16, 30]);

    emit("table1_instances", &table, &report);
    println!("\nShape check vs paper: λ is far below δ on most cores (the");
    println!("cores are chosen so the minimum cut is not the trivial one).");
}

fn add_cores(table: &mut Table, report: &mut BenchReport, name: &str, g: &CsrGraph, ks: &[u32]) {
    for &k in ks {
        let (core, _) = k_core_lcc(g, k);
        if core.n() < 8 {
            continue;
        }
        let t0 = std::time::Instant::now();
        let lambda = Session::new(&core)
            .options(SolveOptions::new().witness(false).no_reductions())
            .run(TABLE1_SOLVER)
            .expect("cores have n >= 8")
            .cut
            .value;
        let mut entry = BenchEntry::named(
            &format!("{name}/k{k}"),
            "table1/noi-core-lambda",
            1,
            core.n(),
            core.m(),
        );
        entry.lambda = lambda;
        entry.wall_s = t0.elapsed().as_secs_f64();
        report.push(entry);
        let delta = (0..core.n() as NodeId)
            .map(|v| core.weighted_degree(v))
            .min()
            .expect("cores have n >= 8");
        table.row(vec![
            name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            k.to_string(),
            core.n().to_string(),
            core.m().to_string(),
            lambda.to_string(),
            delta.to_string(),
        ]);
    }
}

fn ablation(scale: Scale) {
    let mut report = BenchReport::new("ablation_pq_ops", scale);
    println!("== Ablation (§3.1.2): priority-queue operations in one CAPFOREST pass ==\n");
    let mut table = Table::new(&[
        "graph",
        "m",
        "variant",
        "bound",
        "pushes",
        "raises",
        "pops",
        "total",
        "saved_vs_unbounded",
    ]);

    let rhg_n = match scale {
        Scale::Tiny => 1 << 10,
        Scale::Small => 1 << 13,
        Scale::Full => 1 << 15,
    };
    let mut rng = SmallRng::seed_from_u64(3);
    let mut instances = vec![(
        "rhg_deg2^5".to_string(),
        random_hyperbolic_graph(&RhgParams::paper(rhg_n, 32.0), &mut rng),
    )];
    for inst in realworld_proxies(scale) {
        instances.push((inst.name, inst.graph));
    }

    for (name, g) in instances {
        let delta = g.min_weighted_degree().expect("instances have n >= 2").1;
        let vc = Session::new(&g)
            .options(SolveOptions::new().witness(false).no_reductions())
            .run(ABLATION_BOUND_SOLVER)
            .expect("instances have n >= 2")
            .cut
            .value;

        let mut baseline_total = None;
        for (variant, slug, bounded, bound) in [
            ("unbounded (NOI-HNSS)", "ablation/unbounded", false, delta),
            ("bounded δ (NOIλ̂)", "ablation/bounded-delta", true, delta),
            (
                "bounded VieCut (NOIλ̂-VieCut)",
                "ablation/bounded-viecut",
                true,
                vc,
            ),
        ] {
            let t0 = std::time::Instant::now();
            let out = capforest::<CountingPq<BinaryHeapPq>>(&g, bound, 0, bounded);
            let scan_s = t0.elapsed().as_secs_f64();
            let c = out.pq_ops;
            let base = *baseline_total.get_or_insert(c.total());
            let mut entry = BenchEntry::named(&name, slug, 1, g.n(), g.m());
            entry.lambda = out.lambda_hat;
            entry.wall_s = scan_s;
            entry.pq_pushes = c.pushes;
            entry.pq_raises = c.raises;
            entry.pq_pops = c.pops;
            report.push(entry);
            table.row(vec![
                name.clone(),
                g.m().to_string(),
                variant.to_string(),
                bound.to_string(),
                c.pushes.to_string(),
                c.raises.to_string(),
                c.pops.to_string(),
                c.total().to_string(),
                format!("{:.1}%", 100.0 * (1.0 - c.total() as f64 / base as f64)),
            ]);
        }
    }
    emit("ablation_pq_ops", &table, &report);
    println!("\nShape check vs paper: savings near zero on RHG, substantial on");
    println!("the skewed (hub-heavy) proxies, larger still with the VieCut bound.");
}
