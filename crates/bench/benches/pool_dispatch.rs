//! Dispatch overhead of the `edge-par` persistent pool at the shape of a
//! split product (a `parallel_for` over a handful of row blocks). This cost,
//! paid per product, is why products below `edge_tensor::PAR_THRESHOLD`
//! stay on the calling thread.
//!
//! The acceptance bar for the pooled path is < 10µs per dispatch: the pool's
//! cost is a queue push + condvar wake. On a single-core host the submitter
//! drains every chunk itself, which is the overhead floor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Worker count the dispatch benches force, so the pool machinery (queue
/// push, condvar wake, chunk claiming) is actually exercised even on a
/// single-core host, where `parallel_for` would otherwise short-circuit to
/// the serial loop.
const BENCH_WIDTH: usize = 4;

/// One trivial task per index — isolates dispatch cost from work cost.
fn dispatch_once(count: usize) -> u64 {
    let acc = AtomicU64::new(0);
    edge_par::parallel_for(count, |i| {
        acc.fetch_add(i as u64, Ordering::Relaxed);
    });
    acc.load(Ordering::Relaxed)
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_dispatch");
    // Warm the pool up front so worker spawning is not billed to the first
    // pooled sample.
    edge_par::with_max_threads(BENCH_WIDTH, || dispatch_once(64));

    // The serial fast path (width 1): the floor every dispatch pays.
    group.bench_function("serial/64", |b| {
        b.iter(|| black_box(edge_par::with_max_threads(1, || dispatch_once(64))));
    });

    for count in [8usize, 64, 512] {
        group.bench_with_input(BenchmarkId::new("pooled", count), &count, |b, &n| {
            b.iter(|| black_box(edge_par::with_max_threads(BENCH_WIDTH, || dispatch_once(n))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
