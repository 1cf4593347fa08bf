//! Ablation for §3.1.2 of the paper: how many priority-queue operations
//! does the λ̂ cap save?
//!
//! The paper: "In practice, many vertices reach priority values much
//! higher than λ̂ and perform many priority increases until they reach
//! their final value. We limit the values in the priority queue by λ̂ …
//! This allows us to considerably lower the amount of priority queue
//! operations per vertex", and §4.2 observes the savings are small on RHG
//! (few vertices exceed λ̂: "usually, less than 5% of edges do not incur
//! an update") and large on skewed real-world graphs ("NOI-HNSS often
//! reaches priority values of much higher than λ̂").
//!
//! This binary runs a *single CAPFOREST pass* over each instance with an
//! instrumented queue, bounded vs unbounded, and with the trivial bound
//! (min degree) vs the VieCut bound, printing the exact operation counts.

use mincut_bench::instances::{realworld_proxies, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::table::Table;
use mincut_core::capforest::capforest;
use mincut_core::{Session, SolveOptions};
use mincut_ds::{BinaryHeapPq, CountingPq};
use mincut_graph::generators::{random_hyperbolic_graph, RhgParams};
use mincut_graph::CsrGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

type Instrumented = CountingPq<BinaryHeapPq>;

fn main() {
    let scale = Scale::from_env();
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

    let mut instances: Vec<(String, CsrGraph)> = Vec::new();
    let rhg_n = match scale {
        Scale::Tiny => 1 << 10,
        Scale::Small => 1 << 13,
        Scale::Full => 1 << 15,
    };
    let mut rng = SmallRng::seed_from_u64(3);
    instances.push((
        "rhg_deg2^5".into(),
        random_hyperbolic_graph(&RhgParams::paper(rhg_n, 32.0), &mut rng),
    ));
    for inst in realworld_proxies(scale) {
        instances.push((inst.name, inst.graph));
    }

    for (name, g) in instances {
        let delta = g.min_weighted_degree().unwrap().1;
        let vc = Session::new(&g)
            .options(SolveOptions::new().witness(false).no_reductions())
            .run("viecut")
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
            let out = capforest::<Instrumented>(&g, bound, 0, bounded);
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
            let _ = out;
        }
    }
    table.emit("ablation_pq_ops");
    match report.write() {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write report: {e}"),
    }
    println!("\nShape check vs paper: savings near zero on RHG, substantial on");
    println!("the skewed (hub-heavy) proxies, larger still with the VieCut bound.");
}
