//! A maintained minimum cut over a mutating graph.
//!
//! A link-monitoring scenario: a network of two dense districts joined
//! by a couple of trunk links, whose capacity λ (the minimum cut) must
//! be known after every topology change. Instead of re-solving from
//! scratch per change, a [`DynamicMinCut`] maintains `(λ, witness)`
//! across the updates:
//!
//! * changes that don't cross the current witness are absorbed in O(Δ);
//! * a deleted crossing link lowers λ exactly, **without** a solver run;
//! * any other deleted link is decided by one max flow between its
//!   endpoints: λ becomes the smaller of λ and that flow;
//! * only crossing insertions re-solve — seeded with the old cut as the
//!   `initial_bound`, through the same kernelization pipeline and solver
//!   registry as any static query.
//!
//! The same trace is then replayed through the `MinCutService` dynamic
//! API, which answers every read from the handle's own maintainer —
//! what `mincut --stream <trace>` does end to end.
//!
//! Run with: `cargo run --release --example dynamic_stream`

use sm_mincut::graph::generators::known;
use sm_mincut::{DynamicMinCut, MinCutService, ServiceConfig, SolveOptions, TraceOp};

fn main() {
    // Two 12-vertex districts (intra weight 2) joined by two unit trunks:
    // bridge edges (0,12) and (1,13), λ = 2.
    let (g, lambda) = known::two_communities(12, 12, 2, 2, 1);
    println!("base: n = {}, m = {}, λ = {lambda}", g.n(), g.m());

    // The day's topology changes.
    let trace = [
        TraceOp::Insert { u: 3, v: 5, w: 2 }, // intra-district reinforcement
        TraceOp::Insert { u: 2, v: 14, w: 1 }, // third trunk goes live
        TraceOp::Query,
        TraceOp::Delete { u: 0, v: 12 }, // trunk maintenance window
        TraceOp::Delete { u: 1, v: 13 }, // second trunk down
        TraceOp::Query,
        TraceOp::Insert { u: 0, v: 12, w: 3 }, // maintenance done, upgraded
        TraceOp::Delete { u: 3, v: 4 },        // an intra-district link fails
        TraceOp::Query,
    ];

    println!("\n-- DynamicMinCut, update by update --");
    let mut dyn_cut =
        DynamicMinCut::new(g.clone(), "noi-viecut", SolveOptions::new().seed(42)).unwrap();
    println!("initial λ = {}", dyn_cut.lambda());
    for op in &trace {
        let flows = dyn_cut.stats().flow_deletes;
        let r = dyn_cut.apply(op).unwrap();
        println!(
            "{op:?}: λ = {} ({})",
            r.lambda,
            if r.resolved {
                "bound-seeded re-solve"
            } else if dyn_cut.stats().flow_deletes > flows {
                "one u–v max flow"
            } else {
                "absorbed in O(Δ)"
            }
        );
    }
    let s = dyn_cut.stats();
    println!(
        "maintainer: {} updates, {} absorbed incrementally, {} decided by a flow, {} re-solves",
        s.insertions + s.deletions,
        s.incremental,
        s.flow_deletes,
        s.resolves
    );

    println!("\n-- the same trace through the service's dynamic API --");
    let service = MinCutService::new(ServiceConfig::new());
    let h = service
        .register_dynamic(g, "noi-viecut", SolveOptions::new().seed(42))
        .unwrap();
    for op in &trace {
        let r = service.dynamic_update(h, op).unwrap();
        println!("epoch {}: λ = {}", r.epoch, r.lambda);
    }
    let (lambda, epoch) = service.dynamic_lambda(h).unwrap();
    println!("served λ = {lambda} at epoch {epoch}");
}
