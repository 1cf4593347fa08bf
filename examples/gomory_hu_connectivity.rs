//! All-pairs connectivity with a Gomory–Hu cut tree — the classical
//! flow-based view of minimum cuts (§2.2 of the paper) that the
//! contraction-based solvers replaced for the *global* problem, but which
//! remains the right tool when every pairwise connectivity is needed
//! (e.g. network design: which router pairs survive k link failures?).
//!
//! Run with: `cargo run --release --example gomory_hu_connectivity`

use sm_mincut::flow::GomoryHuTree;
use sm_mincut::graph::generators::planted_partition;
use sm_mincut::{NodeId, Session};

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // A clustered network: 4 communities of 40 nodes.
    let mut rng = SmallRng::seed_from_u64(99);
    let g = planted_partition(4, 40, 0.4, 0.01, &mut rng);
    println!("network: n = {}, m = {}", g.n(), g.m());

    let t0 = std::time::Instant::now();
    let tree = GomoryHuTree::build(&g);
    println!(
        "Gomory–Hu tree built with {} max-flows in {:.1} ms",
        g.n() - 1,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // The tree answers any pairwise query in O(n) (tree path minimum).
    let same_block = tree.min_cut_between(0, 1);
    let cross_block = tree.min_cut_between(0, 41);
    println!("connectivity within community 0:  λ(0, 1)  = {same_block}");
    println!("connectivity across communities:  λ(0, 41) = {cross_block}");
    assert!(
        same_block >= cross_block,
        "intra-community pairs are at least as connected"
    );

    // Its lightest edge is the global minimum cut — cross-check against
    // the paper's solver.
    let (tree_min, _) = tree.global_min_cut();
    let exact = Session::new(&g).run("noi-viecut").expect("n >= 2").cut;
    assert_eq!(tree_min, exact.value);
    println!("global minimum cut (tree lightest edge) = {tree_min} ✓ matches NOIλ̂-Heap-VieCut");

    // Connectivity histogram over the tree edges: communities show up as
    // a bimodal distribution (heavy internal, light boundary edges).
    let mut weights: Vec<u64> = tree.edges().map(|(_, _, w)| w).collect();
    weights.sort_unstable();
    println!(
        "tree edge connectivities: min {}, median {}, max {}",
        weights[0],
        weights[weights.len() / 2],
        weights[weights.len() - 1]
    );

    // Survivability report: how many of the first community's members
    // would survive the failure of `f` arbitrary links?
    for f in [tree_min, weights[weights.len() / 2]] {
        let safe = (1..g.n() as NodeId)
            .filter(|&v| tree.min_cut_between(0, v) > f)
            .count();
        println!(
            "pairs (0, v) surviving any {f} link failures: {safe}/{}",
            g.n() - 1
        );
    }
}
