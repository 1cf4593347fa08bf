//! Regenerates **Table 1** of the paper: statistics of the benchmark
//! instances — original size, k, core size, minimum cut λ and minimum
//! degree δ. The web/social graphs are replaced by synthetic proxies
//! (DESIGN.md substitution table); the preparation pipeline (k-core →
//! largest connected component) and the reported columns are identical.

use mincut_bench::instances::{social_proxy, web_proxy, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::table::Table;
use mincut_core::{Session, SolveOptions};
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::{CsrGraph, NodeId};

fn main() {
    let scale = Scale::from_env();
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
    emit_cores(&mut table, &mut report, "social-proxy", &ba, &[5, 6, 8, 10]);

    // Web-graph proxy (stands in for uk-2002 / gsh-2015-host / uk-2007-05).
    let g = web_proxy(rmat_scale, 43);
    emit_cores(&mut table, &mut report, "web-proxy", &g, &[4, 8, 16, 30]);

    table.emit("table1_instances");
    match report.write() {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write report: {e}"),
    }
    println!("\nShape check vs paper: λ is far below δ on most cores (the");
    println!("cores are chosen so the minimum cut is not the trivial one).");
}

fn emit_cores(table: &mut Table, report: &mut BenchReport, name: &str, g: &CsrGraph, ks: &[u32]) {
    for &k in ks {
        let (core, _) = k_core_lcc(g, k);
        if core.n() < 8 {
            continue;
        }
        let t0 = std::time::Instant::now();
        let lambda = Session::new(&core)
            .options(SolveOptions::new().witness(false).no_reductions())
            .run("NOIλ̂-Heap")
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
            .unwrap();
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
