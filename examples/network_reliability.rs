//! Network reliability (the paper's first motivating application, §1):
//! "assuming equal failure probability edges, the smallest edge cut in
//! the network has the highest chance to disconnect the network".
//!
//! We model a backbone network as a random hyperbolic graph (power-law
//! degrees, small diameter — like real internet topologies), find its
//! exact minimum cut in parallel, and report the critical edge set whose
//! simultaneous failure partitions the network.
//!
//! Run with: `cargo run --release --example network_reliability`

use sm_mincut::graph::generators::{random_hyperbolic_graph, RhgParams};
use sm_mincut::{PqKind, Session, SolveOptions};

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // A 4096-router topology with average degree 16, power-law exponent 5
    // (the paper's RHG configuration, which avoids trivial cuts).
    let mut rng = SmallRng::seed_from_u64(2019);
    let network = random_hyperbolic_graph(&RhgParams::paper(1 << 12, 16.0), &mut rng);
    println!(
        "backbone: {} routers, {} links, avg degree {:.1}",
        network.n(),
        network.m(),
        network.avg_degree()
    );

    let t0 = std::time::Instant::now();
    // ParCut on every hardware thread (the `SolveOptions` default).
    let cut = Session::new(&network)
        .options(SolveOptions::new().pq(PqKind::BQueue))
        .run("parcut")
        .expect("the backbone has at least two routers")
        .cut;
    println!(
        "minimum cut λ = {} (found in {:.1} ms)",
        cut.value,
        t0.elapsed().as_secs_f64() * 1e3
    );
    assert!(cut.verify(&network));

    // The critical links: every edge crossing the optimal bipartition.
    let side = cut.side.as_ref().unwrap();
    let critical: Vec<(u32, u32, u64)> = network
        .edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .collect();
    let small = side
        .iter()
        .filter(|&&s| s)
        .count()
        .min(network.n() - side.iter().filter(|&&s| s).count());
    println!(
        "{} simultaneous link failures disconnect {} routers from the rest:",
        critical.len(),
        small
    );
    for (u, v, _) in critical.iter().take(16) {
        println!("  link {u} -- {v}");
    }
    if critical.len() > 16 {
        println!("  ... and {} more", critical.len() - 16);
    }
    assert_eq!(critical.iter().map(|e| e.2).sum::<u64>(), cut.value);

    // Sanity: the trivial bound (weakest single router) is usually NOT
    // the answer for this family — the interesting case for reliability.
    let min_deg = network.min_weighted_degree().unwrap().1;
    println!("minimum degree δ = {min_deg} (trivial upper bound; λ ≤ δ always)");
}
