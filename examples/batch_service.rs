//! Batch serving with `MinCutService`: a k-core connectivity sweep.
//!
//! The paper prepares its real-world instances as k-cores of one large
//! graph (Appendix A.2) and solves each core. This example submits the
//! whole sweep as one batch:
//!
//! * cores are solved concurrently by the service's worker pool;
//! * each core is queried under two solver configurations: the first
//!   finished cut of a core, with its witness side, seeds λ̂ for the other
//!   configuration of the *same* core (the receiving job re-costs the
//!   side on its graph, so exactness is never lost; different cores never
//!   exchange bounds);
//! * a second submission of the same sweep is served entirely from the
//!   fingerprint-keyed cut cache — no solver runs at all.
//!
//! Run with: `cargo run --release --example batch_service`

use std::sync::Arc;

use sm_mincut::graph::generators::{barabasi_albert, gnm};
use sm_mincut::graph::kcore::k_core_lcc;
use sm_mincut::{BatchJob, GraphBuilder, MinCutService, ServiceConfig, SolveOptions};

/// Social-network-like graph with weakly-attached dense satellites (the
/// structure behind λ ≪ δ cores; see the kcore_pipeline example).
fn social_graph(n: usize, seed: u64) -> sm_mincut::CsrGraph {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let ba = barabasi_albert(n, 4, &mut rng);
    let overlay = gnm(n, 4 * n, &mut rng);
    let satellites: &[(u32, u32)] = &[(8, 2), (10, 3), (12, 4), (16, 5)];
    let extra: u32 = satellites.iter().map(|&(s, _)| s).sum();
    let mut seen = std::collections::HashSet::new();
    let mut b = GraphBuilder::with_capacity(n + extra as usize, ba.m() + overlay.m() + 256);
    for (u, v, _) in ba.edges().chain(overlay.edges()) {
        if seen.insert((u, v)) {
            b.add_edge(u, v, 1);
        }
    }
    let mut base = n as u32;
    for &(s, attach) in satellites {
        for i in 0..s {
            for j in i + 1..s {
                b.add_edge(base + i, base + j, 1);
            }
        }
        for a in 0..attach {
            b.add_edge(base + a, a, 1);
        }
        base += s;
    }
    b.build()
}

fn main() {
    let g = social_graph(1 << 12, 2019);
    println!("input graph: n = {}, m = {}", g.n(), g.m());

    // Two solver configurations per k-core. The whole first pass is
    // submitted before the second, so by the time a `noi-bstack` job
    // starts, the `noi-viecut` cut of the same core is usually already
    // published as its initial λ̂ bound.
    let mut cores = Vec::new();
    for k in [4, 5, 6, 7, 8] {
        let (core, _) = k_core_lcc(&g, k);
        if core.n() < 8 {
            continue;
        }
        println!("  core k={k}: n = {}, m = {}", core.n(), core.m());
        cores.push((k, Arc::new(core)));
    }
    let mut jobs = Vec::new();
    for solver in ["noi-viecut", "noi-bstack"] {
        for (k, core) in &cores {
            jobs.push(
                BatchJob::new(core.clone(), solver)
                    .options(SolveOptions::new().seed(1))
                    .label(format!("k{k} {solver}")),
            );
        }
    }

    let service = MinCutService::new(ServiceConfig::new().concurrency(4));
    let report = service.run_batch(&jobs);
    println!(
        "\n{:<12} {:>8} {:>9} {:>7}  status",
        "job", "lambda", "seconds", "cached"
    );
    for row in &report.jobs {
        match row.status.outcome() {
            Some(o) => println!(
                "{:<12} {:>8} {:>9.4} {:>7}  ok ({})",
                row.label,
                o.cut.value,
                row.seconds,
                row.status.from_cache(),
                row.solver
            ),
            None => println!(
                "{:<12} {:>8} {:>9.4} {:>7}  {:?}",
                row.label, "-", row.seconds, "-", row.status
            ),
        }
    }
    println!("\nfirst pass:  {}", report.stats.to_json());

    // The same sweep again: served from the cut cache, zero solves.
    let report = service.run_batch(&jobs);
    println!("resubmitted: {}", report.stats.to_json());
    assert_eq!(report.stats.cache_hits, jobs.len());
    println!("cache: {:?}", service.cache_stats());
}
