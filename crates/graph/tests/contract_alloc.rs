//! Proof that a warm `ContractionEngine` round allocates nothing.
//!
//! A counting global allocator wraps the system allocator (the protocol
//! of `pack_alloc.rs`). At width 1, after one warm-up round of each
//! shape with its output handed back through `recycle`, repeating a
//! matrix round and a hash round must perform zero heap allocations: the
//! accumulators, the staging buffers and the recycled output graph all
//! keep their capacity. The graph has more than 4096 vertices and the
//! hash round more than 128 blocks, the shape of the big rounds in the
//! solvers. This file intentionally holds a single `#[test]` so no
//! sibling test can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mincut_graph::{ContractionEngine, ContractionPath, CsrGraph, NodeId};

struct CountingAllocator;

// Per-thread counter: the libtest harness thread may allocate
// concurrently with the test thread. At width 1 the engine runs every
// loop inline on the calling thread, so this thread sees all of it.
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

/// One matrix round and one hash round, each output recycled.
fn two_rounds(
    engine: &mut ContractionEngine,
    g: &CsrGraph,
    matrix: (&[NodeId], usize),
    hash: (&[NodeId], usize),
) {
    let c = engine.contract(g, matrix.0, matrix.1);
    assert_eq!(engine.last_path(), ContractionPath::SeqMatrix);
    engine.recycle(c);
    let c = engine.contract(g, hash.0, hash.1);
    assert_eq!(engine.last_path(), ContractionPath::SeqHash);
    engine.recycle(c);
}

#[test]
fn warm_engine_rounds_allocate_nothing() {
    let n: usize = 8192;
    let mut edges = Vec::new();
    for v in 0..n as NodeId {
        edges.push((v, (v + 1) % n as NodeId, (v as u64 % 7) + 1));
        edges.push((v, (v + 31) % n as NodeId, 2));
        edges.push((v, (v * 17 + 5) % n as NodeId, 3));
    }
    let g = CsrGraph::from_edges(n, &edges);
    let matrix_labels: Vec<NodeId> = (0..n as NodeId).map(|v| v % 64).collect();
    let hash_labels: Vec<NodeId> = (0..n as NodeId).map(|v| v / 4).collect();
    let matrix = (&matrix_labels[..], 64);
    let hash = (&hash_labels[..], n / 4);

    let mut engine = ContractionEngine::new(1);
    two_rounds(&mut engine, &g, matrix, hash);

    let before = allocations();
    for _ in 0..3 {
        two_rounds(&mut engine, &g, matrix, hash);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm contraction rounds allocated"
    );
}
