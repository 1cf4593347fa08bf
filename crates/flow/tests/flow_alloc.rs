//! Proof that a warm [`FlowEngine`] allocates nothing: once one flow
//! has grown its buffers, flows over other graphs of the same size (n
//! and m), each handed back through `recycle`, perform **zero** heap
//! allocations. That is what lets the cactus enumeration, Gomory–Hu and
//! the dynamic tier's deletes run their flows through one engine each.
//! The delete path's graph is a live `DeltaGraph`, so one of the graphs
//! here carries an overlay. This file intentionally holds a single
//! `#[test]` so no sibling test can allocate concurrently and pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mincut_flow::{max_flow, FlowEngine, FlowGraph};
use mincut_graph::generators::{gnm, randomize_weights};
use mincut_graph::{CsrGraph, DeltaGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct CountingAllocator;

// Per-thread counter: the libtest harness thread may allocate (pipe
// buffering, timers) concurrently with the test thread, so a global
// counter would flake. Const-initialised `Cell` TLS never allocates on
// access; `try_with` tolerates teardown-phase allocations.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.try_with(|c| c.get()).unwrap_or(0)
}

/// Runs a flow through the warm `engine` and asserts that it allocated
/// nothing and agrees with a fresh one-shot [`max_flow`].
fn assert_warm_flow_allocation_free<G: FlowGraph>(
    engine: &mut FlowEngine,
    g: &G,
    s: NodeId,
    t: NodeId,
    label: &str,
) {
    let before = allocations();
    let r = engine.max_flow(g, s, t);
    let value = r.value;
    engine.recycle(r);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{label}: warm flow {s}→{t} allocated {} times",
        after - before
    );
    assert_eq!(value, max_flow(g, s, t).value, "{label}: {s}→{t}");
}

#[test]
fn warm_flow_engine_allocates_nothing() {
    let (n, m) = (300usize, 1500usize);
    let mut rng = SmallRng::seed_from_u64(0xF10E);
    let graphs: Vec<CsrGraph> = (0..4)
        .map(|_| {
            let g = gnm(n, m, &mut rng);
            randomize_weights(&g, 9, &mut rng)
        })
        .collect();
    // The same size as a live overlay: one base edge deleted, one new
    // edge inserted.
    let mut delta = DeltaGraph::new(graphs[0].clone());
    let (du, dv, _) = graphs[0].edges().next().expect("edges");
    delta.delete_edge(du, dv).expect("a base edge");
    let (mut iu, mut iv) = (du, dv);
    while iu == iv || graphs[0].edge_weight(iu, iv).is_some() || (iu, iv) == (du, dv) {
        iu = rng.gen_range(0..n as NodeId);
        iv = rng.gen_range(0..n as NodeId);
    }
    delta.insert_edge(iu, iv, 4);
    assert_eq!((delta.n(), delta.m()), (n, m));

    let mut engine = FlowEngine::new();
    // Warm-up: the first flow grows every buffer to n and m.
    let warm = engine.max_flow(&graphs[0], 0, 1);
    engine.recycle(warm);
    let pairs: Vec<(NodeId, NodeId)> = (0..6)
        .map(|_| {
            let s = rng.gen_range(0..n as NodeId);
            let t = (s + rng.gen_range(1..n as NodeId)) % n as NodeId;
            (s, t)
        })
        .collect();
    for (i, g) in graphs.iter().enumerate() {
        for &(s, t) in &pairs {
            assert_warm_flow_allocation_free(&mut engine, g, s, t, &format!("gnm #{i}"));
        }
    }
    for &(s, t) in &pairs {
        assert_warm_flow_allocation_free(&mut engine, &delta, s, t, "overlay");
    }
}
