//! Proof that a warm `ContractionEngine` round allocates nothing.
//!
//! A counting global allocator wraps the system allocator (the protocol
//! of `pack_alloc.rs`). After one warm-up round of each shape with its
//! output handed back through `recycle`, repeating the rounds must
//! perform zero heap allocations: the engine's scratch and the recycled
//! output graph keep their capacity. The four shapes are the ones the
//! solvers produce: a round onto a few blocks (bound-driven first
//! rounds), a round onto many blocks, a near-identity round (the
//! reduction pipeline removing a handful of vertices) and a single-edge
//! contraction (Stoer–Wagner, the cactus enumeration). This file
//! intentionally holds a single `#[test]` so no sibling test can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mincut_graph::{ContractionEngine, CsrGraph, Membership, NodeId};

struct CountingAllocator;

// Per-thread counter: the libtest harness thread may allocate
// concurrently with the test thread. The engine runs on the calling
// thread, so this thread sees all of its allocations.
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

/// One round of each labelling and one single-edge contraction, each
/// output recycled.
fn rounds(
    engine: &mut ContractionEngine,
    g: &CsrGraph,
    shapes: &[(&[NodeId], usize)],
    membership: &mut Membership,
) {
    for &(labels, blocks) in shapes {
        let c = engine.contract(g, labels, blocks);
        assert_eq!(c.n(), blocks);
        engine.recycle(c);
    }
    let c = engine.contract_edge_tracked(g, 0, 1, membership);
    assert_eq!(c.n(), g.n() - 1);
    engine.recycle(c);
}

/// A membership over `n` current vertices whose vertex 0 already holds
/// two originals, so folding the edge {0, 1} into it needs no new
/// allocation: the counter then sees only the engine.
fn roomy_membership(n: usize) -> Membership {
    let mut m = Membership::identity(n + 1);
    let labels: Vec<NodeId> = (0..=n as NodeId).map(|v| v % n as NodeId).collect();
    m.contract(&labels, n);
    m
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
    let few: Vec<NodeId> = (0..n as NodeId).map(|v| v % 64).collect();
    let many: Vec<NodeId> = (0..n as NodeId).map(|v| v / 4).collect();
    // Every 500th vertex merges into its predecessor: n − 16 blocks.
    let near_identity: Vec<NodeId> = (0..n as NodeId).map(|v| v - v / 500).collect();
    let near_blocks = *near_identity.last().unwrap() as usize + 1;
    assert_eq!(near_blocks, n - 16);
    let shapes = [
        (&few[..], 64),
        (&many[..], n / 4),
        (&near_identity[..], near_blocks),
    ];
    let mut memberships: Vec<Membership> = (0..4).map(|_| roomy_membership(n)).collect();

    let mut engine = ContractionEngine::new();
    rounds(&mut engine, &g, &shapes, &mut memberships[0]);

    let before = allocations();
    for m in &mut memberships[1..] {
        rounds(&mut engine, &g, &shapes, m);
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm contraction rounds allocated"
    );
}
