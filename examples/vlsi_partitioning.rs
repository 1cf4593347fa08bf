//! VLSI partitioning (the paper's second motivating application, §1):
//! "a minimum cut can be used to minimize the number of connections
//! between microprocessor blocks".
//!
//! We synthesise a netlist whose modules are dense clusters of cells with
//! a few inter-module wires, then split it into two blocks with the exact
//! minimum number of crossing wires, comparing several of the paper's
//! algorithm variants along the way.
//!
//! Run with: `cargo run --release --example vlsi_partitioning`

use sm_mincut::graph::GraphBuilder;
use sm_mincut::{CsrGraph, Session, SolveOptions};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A chip with `modules` functional blocks of `cells` cells each: cells
/// inside a block are densely wired; consecutive blocks share a handful
/// of signal wires; one pair of blocks shares only two.
fn synthesise_netlist(modules: usize, cells: usize, rng: &mut SmallRng) -> CsrGraph {
    let n = modules * cells;
    let mut b = GraphBuilder::new(n);
    let id = |m: usize, c: usize| (m * cells + c) as u32;
    for m in 0..modules {
        // Intra-module wiring: each cell wired to ~6 random peers.
        for c in 0..cells {
            for _ in 0..3 {
                let d = rng.gen_range(0..cells);
                if c != d {
                    b.add_edge(id(m, c), id(m, d), 1);
                }
            }
            // A local bus keeps every module connected.
            b.add_edge(id(m, c), id(m, (c + 1) % cells), 1);
        }
    }
    for m in 0..modules - 1 {
        // Inter-module buses: 6 wires... except one narrow interface.
        let wires = if m == modules / 2 { 2 } else { 6 };
        for w in 0..wires {
            b.add_edge(id(m, w), id(m + 1, w), 1);
        }
    }
    b.build()
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    let netlist = synthesise_netlist(8, 256, &mut rng);
    println!("netlist: {} cells, {} wires", netlist.n(), netlist.m());

    // The optimal bipartition cuts the narrow 2-wire interface.
    let session = Session::new(&netlist).options(SolveOptions::new().threads(4));
    let result = session.run("noi-viecut").expect("netlist has cells").cut;
    println!("minimum number of crossing wires: {}", result.value);
    assert_eq!(result.value, 2);
    assert!(result.verify(&netlist));

    let side = result.side.as_ref().unwrap();
    let block_a = side.iter().filter(|&&s| s).count();
    println!(
        "block A: {} cells, block B: {} cells",
        block_a,
        netlist.n() - block_a
    );

    // The paper's variants all find the same optimum; timings differ.
    for name in [
        "NOI-HNSS",
        "NOIλ̂-BStack",
        "NOIλ̂-Heap",
        "NOIλ̂-Heap-VieCut",
        "ParCutλ̂-BQueue",
    ] {
        let t0 = std::time::Instant::now();
        let out = session.run(name).expect("registered solver");
        println!(
            "{:<28} λ = {}  ({:.2} ms)",
            out.stats.algorithm,
            out.cut.value,
            t0.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(out.cut.value, 2);
    }
}
