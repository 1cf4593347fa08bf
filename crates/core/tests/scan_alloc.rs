//! Proof that the CAPFOREST hot path allocates nothing once warm, and
//! that label propagation allocates per call, not per vertex chunk.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up pass per (graph, queue) pair, further passes through
//! [`capforest_with`] with the pooled [`ScanScratch`] and an epoch-reset
//! queue must perform **zero** heap allocations — the whole point of the
//! intrusive-queue + scan-scratch rewrite. A one-worker
//! [`label_propagation`] call must perform the same small number of
//! allocations at n = 2^12 and n = 2^17: each worker's tally is
//! allocated once, whatever the graph size. This file intentionally
//! holds a single `#[test]` so no sibling test can allocate concurrently
//! and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mincut_core::capforest::{capforest_with, ScanScratch};
use mincut_core::viecut::label_propagation;
use mincut_ds::{BQueuePq, BStackPq, BinaryHeapPq, CountingPq, MaxPq};
use mincut_graph::generators::known;
use mincut_graph::{CsrGraph, NodeId};
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

fn assert_scan_allocation_free<P: MaxPq>(g: &CsrGraph, bound: u64, label: &str) {
    let mut q = P::new();
    let mut scratch = ScanScratch::new();
    // Warm-up: first pass grows every buffer to its high-water mark.
    let warm = capforest_with(g, bound, 0, true, &mut q, &mut scratch);
    // Several further passes (different starts — CAPFOREST restarts from
    // a random vertex every round) must not allocate at all.
    for start in [0u32, 1, 2, 3] {
        let before = allocations();
        let info = capforest_with(g, bound, start, true, &mut q, &mut scratch);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{label}: warm scan from {start} allocated {} times",
            after - before
        );
        // The scan still does real work.
        assert_eq!(scratch.order().len(), g.n(), "{label}: scan incomplete");
        if start == 0 {
            assert_eq!(info.lambda_hat, warm.lambda_hat, "{label}: drifted");
        }
    }
}

/// A ring on `n` vertices plus two random weighted chords per vertex.
fn ring_with_chords(n: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(3 * n);
    for v in 0..n as NodeId {
        edges.push((v, (v + 1) % n as NodeId, rng.gen_range(1..10)));
        for _ in 0..2 {
            edges.push((v, rng.gen_range(0..n as NodeId), rng.gen_range(1..10)));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Allocations of one single-worker label-propagation call on `g`.
fn label_propagation_allocations(g: &CsrGraph) -> u64 {
    let before = allocations();
    let (labels, _) = label_propagation(g, 2, 5, 1);
    let after = allocations();
    assert_eq!(labels.len(), g.n());
    after - before
}

#[test]
fn warm_capforest_scan_performs_zero_allocations() {
    // The scan now opens a `capforest/scan` span unconditionally; with
    // tracing off (the default — this binary never enables it) that
    // span must cost one relaxed load and allocate nothing, or every
    // assertion below would count its events. This is the disabled-path
    // zero-overhead contract of `mincut_obs`.
    assert!(
        !mincut_obs::tracing_enabled(),
        "tracing must stay disabled in the allocation test binary"
    );
    let (g, _) = known::two_communities(40, 44, 2, 3, 1);
    let bound = g.min_weighted_degree().unwrap().1;
    assert_scan_allocation_free::<BStackPq>(&g, bound, "bstack");
    assert_scan_allocation_free::<BQueuePq>(&g, bound, "bqueue");
    assert_scan_allocation_free::<BinaryHeapPq>(&g, bound, "heap");
    assert_scan_allocation_free::<CountingPq<BQueuePq>>(&g, bound, "counting-bqueue");

    // Reuse across *smaller* graphs (the NOI round loop: the graph
    // shrinks every round) must also be allocation-free with one shared
    // scratch, since every buffer is already at its high-water mark.
    let (big, _) = known::ring_of_cliques(6, 12, 2, 1);
    let (small, _) = known::grid_graph(4, 5, 2);
    let mut q: BQueuePq = MaxPq::new();
    let mut scratch = ScanScratch::new();
    let bound_big = big.min_weighted_degree().unwrap().1;
    let bound_small = small.min_weighted_degree().unwrap().1;
    let _ = capforest_with(&big, bound_big, 0, true, &mut q, &mut scratch);
    let before = allocations();
    let _ = capforest_with(&small, bound_small, 0, true, &mut q, &mut scratch);
    let _ = capforest_with(&big, bound_big, 1, true, &mut q, &mut scratch);
    assert_eq!(
        allocations() - before,
        0,
        "shrinking-graph reuse must not allocate"
    );

    // Label propagation: the count must not grow with n.
    let small = label_propagation_allocations(&ring_with_chords(1 << 12, 3));
    let large = label_propagation_allocations(&ring_with_chords(1 << 17, 4));
    assert_eq!(small, large, "allocations grew from n = 2^12 to n = 2^17");
    assert!(small <= 16, "{small} allocations per call");
}
