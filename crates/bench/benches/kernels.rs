//! Micro-benchmarks for the load-bearing computational kernels: dense and
//! sparse matrix products, the SGNS training step, KDE grid smoothing,
//! mixture density/mode queries, haversine batches and the attention
//! forward pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use edge_embed::{train_sgns, SgnsConfig};
use edge_geo::{BivariateGaussian, GaussianMixture, Grid, Kde2d, Point};
use edge_graph::{normalized_adjacency_triplets, EntityGraph};
use edge_tensor::tape::{ParamStore, Tape};
use edge_tensor::{CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(0);
    for n in [64usize, 256] {
        let a = Matrix::random_uniform(n, n, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [500usize, 2000] {
        // A co-occurrence-like graph: ~10 edges per node.
        let mut g = EntityGraph::new(n);
        for _ in 0..n * 5 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge_weight(a, b, 1.0);
            }
        }
        let adj = CsrMatrix::from_triplets(n, n, &normalized_adjacency_triplets(&g));
        let h = Matrix::random_uniform(n, 64, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(adj.matmul_dense(&h)));
        });
    }
    group.finish();
}

fn bench_sgns_epoch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let vocab = 500usize;
    let sentences: Vec<Vec<usize>> =
        (0..500).map(|_| (0..8).map(|_| rng.gen_range(0..vocab)).collect()).collect();
    let mut counts = vec![0u64; vocab];
    for s in &sentences {
        for &t in s {
            counts[t] += 1;
        }
    }
    let config = SgnsConfig { dim: 64, epochs: 1, subsample_t: 0.0, ..Default::default() };
    c.bench_function("sgns_epoch_500x8", |b| {
        b.iter(|| black_box(train_sgns(&sentences, &counts, &config)));
    });
}

fn bench_kde_smooth(c: &mut Criterion) {
    let grid = Grid::new(edge_geo::BBox::new(40.0, 41.0, -75.0, -74.0), 100, 100);
    let counts: Vec<f64> = (0..grid.len()).map(|i| (i % 17) as f64).collect();
    let kde = Kde2d::new(grid, 1.5);
    c.bench_function("kde2d_smooth_100x100", |b| {
        b.iter(|| black_box(kde.smooth(&counts)));
    });
}

fn mixture() -> GaussianMixture {
    GaussianMixture::new(vec![
        (0.4, BivariateGaussian::new(Point::new(40.70, -74.00), 0.02, 0.03, 0.2)),
        (0.3, BivariateGaussian::new(Point::new(40.80, -73.90), 0.05, 0.02, -0.3)),
        (0.2, BivariateGaussian::isotropic(Point::new(40.60, -74.10), 0.04)),
        (0.1, BivariateGaussian::isotropic(Point::new(40.75, -73.80), 0.08)),
    ])
}

fn bench_mixture(c: &mut Criterion) {
    let mix = mixture();
    let p = Point::new(40.72, -73.98);
    c.bench_function("mixture_pdf", |b| b.iter(|| black_box(mix.pdf(&p))));
    c.bench_function("mixture_mode_eq14", |b| b.iter(|| black_box(mix.mode())));
}

fn bench_haversine(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let pts: Vec<Point> = (0..1000)
        .map(|_| Point::new(rng.gen_range(40.0..41.0), rng.gen_range(-75.0..-74.0)))
        .collect();
    let origin = Point::new(40.7, -74.0);
    c.bench_function("haversine_1000", |b| {
        b.iter(|| {
            let total: f64 = pts.iter().map(|p| p.haversine_km(&origin)).sum();
            black_box(total)
        });
    });
}

fn bench_attention_forward_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let smoothed = Matrix::random_uniform(2000, 64, 1.0, &mut rng);
    let mut params = ParamStore::new();
    let q1 = params.add("q1", Matrix::random_uniform(64, 1, 0.5, &mut rng));
    let b1 = params.add("b1", Matrix::zeros(1, 1));
    let q2 = params.add("q2", Matrix::random_uniform(64, 24, 0.1, &mut rng));
    let b2 = params.add("b2", Matrix::zeros(1, 24));
    // 128 tweets of 1–5 entities each, in the batch layout training uses:
    // concatenated ids split by offsets.
    let mut seg_idx = Vec::new();
    let mut seg_off = vec![0];
    for _ in 0..128 {
        for _ in 0..rng.gen_range(1..6) {
            seg_idx.push(rng.gen_range(0..2000));
        }
        seg_off.push(seg_idx.len());
    }
    let targets: Vec<(f64, f64)> =
        (0..128).map(|_| (rng.gen_range(40.0..41.0), rng.gen_range(-75.0..-74.0))).collect();
    c.bench_function("attention_batch128_fwd_bwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let sn = tape.constant(smoothed.clone());
            let z = edge_core::attention::attention_batch(
                &mut tape, sn, &seg_idx, &seg_off, q1, b1, &params,
            );
            let w = tape.param(q2, &params);
            let bias = tape.param(b2, &params);
            let lin = tape.matmul(z, w);
            let theta = tape.add_row_broadcast(lin, bias);
            let nll = tape.gmm_nll(theta, &targets, 4);
            black_box(tape.backward(nll))
        });
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_spmm,
    bench_sgns_epoch,
    bench_kde_smooth,
    bench_mixture,
    bench_haversine,
    bench_attention_forward_backward
);
criterion_main!(benches);
