//! Criterion micro-benchmarks for the building blocks — the ablations
//! DESIGN.md calls out: priority-queue implementations head to head,
//! bounded vs unbounded scans, sequential vs concurrent union-find,
//! sequential vs parallel contraction, label propagation, push-relabel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mincut_core::capforest::capforest;
use mincut_core::viecut::label_propagation;
use mincut_ds::{BQueuePq, BStackPq, BinaryHeapPq, ConcurrentUnionFind, MaxPq, UnionFind};
use mincut_graph::contract::ContractionEngine;
use mincut_graph::generators::{connected_gnm, random_hyperbolic_graph, RhgParams};
use mincut_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn test_graph() -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(2);
    random_hyperbolic_graph(&RhgParams::paper(1 << 12, 16.0), &mut rng)
}

fn bench_priority_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("pq_mixed_ops");
    let n = 1 << 12;
    let ops: Vec<(u32, u64)> = {
        let mut x = 88172645463325252u64;
        (0..4 * n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % n as u64) as u32, x % 1000)
            })
            .collect()
    };
    fn run<P: MaxPq>(n: usize, ops: &[(u32, u64)]) -> u64 {
        let mut q = P::new();
        q.reset(n, 1000);
        let mut acc = 0;
        let mut popped = vec![false; n];
        for &(v, delta) in ops {
            if popped[v as usize] {
                continue;
            }
            if q.contains(v) {
                let p = (q.priority(v) + delta).min(1000);
                q.raise(v, p);
            } else {
                q.push(v, delta.min(1000));
            }
            if delta % 7 == 0 {
                if let Some((w, p)) = q.pop_max() {
                    popped[w as usize] = true;
                    acc += p;
                }
            }
        }
        while let Some((_, p)) = q.pop_max() {
            acc += p;
        }
        acc
    }
    group.bench_function("BStack", |b| b.iter(|| run::<BStackPq>(n, &ops)));
    group.bench_function("BQueue", |b| b.iter(|| run::<BQueuePq>(n, &ops)));
    group.bench_function("Heap", |b| b.iter(|| run::<BinaryHeapPq>(n, &ops)));
    group.finish();
}

fn bench_capforest(c: &mut Criterion) {
    let g = test_graph();
    let lh = g.min_weighted_degree().unwrap().1;
    let mut group = c.benchmark_group("capforest_pass");
    group.bench_function("bounded_BStack", |b| {
        b.iter(|| capforest::<BStackPq>(&g, lh, 0, true).unions)
    });
    group.bench_function("bounded_BQueue", |b| {
        b.iter(|| capforest::<BQueuePq>(&g, lh, 0, true).unions)
    });
    group.bench_function("bounded_Heap", |b| {
        b.iter(|| capforest::<BinaryHeapPq>(&g, lh, 0, true).unions)
    });
    group.bench_function("unbounded_Heap", |b| {
        b.iter(|| capforest::<BinaryHeapPq>(&g, lh, 0, false).unions)
    });
    group.finish();
}

fn bench_union_find(c: &mut Criterion) {
    let n = 1 << 14;
    let pairs: Vec<(u32, u32)> = {
        let mut x = 123456789u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % n as u64) as u32, ((x >> 20) % n as u64) as u32)
            })
            .collect()
    };
    let mut group = c.benchmark_group("union_find");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut uf = UnionFind::new(n);
            for &(a, bb) in &pairs {
                uf.union(a, bb);
            }
            uf.count()
        })
    });
    group.bench_function("concurrent_1thread", |b| {
        b.iter(|| {
            let uf = ConcurrentUnionFind::new(n);
            for &(a, bb) in &pairs {
                uf.union(a, bb);
            }
            uf.count()
        })
    });
    group.finish();
}

fn bench_contraction(c: &mut Criterion) {
    let g = test_graph();
    let labels: Vec<NodeId> = (0..g.n() as NodeId).map(|v| v / 16).collect();
    let blocks = g.n().div_ceil(16);
    let mut group = c.benchmark_group("contraction");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            ContractionEngine::new()
                .contract_sequential(&g, &labels, blocks)
                .m()
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            ContractionEngine::new()
                .contract_parallel(&g, &labels, blocks)
                .m()
        })
    });
    // The solvers' actual hot path: one engine reused across rounds, so
    // accumulation tables and both CSR buffers stay warm.
    group.bench_function("engine_reused", |b| {
        let mut engine = ContractionEngine::new();
        b.iter(|| {
            let c = engine.contract(&g, &labels, blocks);
            let m = c.m();
            engine.recycle(c);
            m
        })
    });
    group.finish();
}

fn bench_label_propagation(c: &mut Criterion) {
    let g = test_graph();
    c.bench_function("label_propagation_2it", |b| {
        b.iter(|| label_propagation(&g, 2, 5).1)
    });
}

fn bench_push_relabel(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(9);
    let g = connected_gnm(2000, 12_000, &mut rng);
    c.bench_function("push_relabel_st", |b| {
        b.iter(|| mincut_flow::max_flow(&g, 0, (g.n() - 1) as NodeId).value)
    });
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    for exp in [10u32, 12] {
        group.bench_with_input(BenchmarkId::new("rhg", exp), &exp, |b, &exp| {
            b.iter(|| {
                let mut rng = SmallRng::seed_from_u64(1);
                random_hyperbolic_graph(&RhgParams::paper(1 << exp, 16.0), &mut rng).m()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_priority_queues, bench_capforest, bench_union_find, bench_contraction, bench_label_propagation, bench_push_relabel, bench_generators
}
criterion_main!(benches);
