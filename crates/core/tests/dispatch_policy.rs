//! The pool's split rule, checked by counting dispatches rather than by
//! timing: a fast-profile training on NYMA-smoke runs every product below
//! `edge_tensor::PAR_THRESHOLD`, so at two threads it dispatches no pool job
//! at all, while one product above the threshold does split.
//!
//! `par.pool.jobs` is process-global, so this file holds a single test: no
//! other test in the binary can dispatch while it counts.

use edge_core::{EdgeConfig, EdgeModel, TrainOptions};
use edge_data::{dataset_recognizer, nyma, PresetSize};
use edge_tensor::{CsrMatrix, Matrix, PAR_THRESHOLD};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fast_profile_training_stays_off_the_pool_and_large_products_split() {
    let _metrics = edge_obs::metrics_lease();
    let jobs = edge_obs::metrics::counter("par.pool.jobs");

    // The products' shapes do not depend on the epoch count.
    let d = nyma(PresetSize::Smoke, 42);
    let (train, _) = d.paper_split();
    let cfg = EdgeConfig { epochs: 2, ..EdgeConfig::fast() };
    let before = jobs.get();
    edge_par::with_max_threads(2, || {
        EdgeModel::train(train, dataset_recognizer(&d), &d.bbox, cfg, &TrainOptions::default())
            .expect("train")
    });
    let training_jobs = jobs.get() - before;
    assert_eq!(training_jobs, 0, "fast-profile training dispatched {training_jobs} pool jobs");

    // A paper-profile GCN layer's forward product: 194 entities, d = 400.
    const DENSE: (usize, usize, usize) = (194, 400, 400);
    const _: () = assert!(DENSE.0 * DENSE.1 * DENSE.2 >= PAR_THRESHOLD);
    let (n, k, m) = DENSE;
    let mut rng = StdRng::seed_from_u64(3);
    let x = Matrix::random_uniform(n, k, 1.0, &mut rng);
    let w = Matrix::random_uniform(k, m, 1.0, &mut rng);
    let before = jobs.get();
    edge_par::with_max_threads(2, || x.matmul(&w));
    assert!(jobs.get() > before, "a {n}x{k}x{m} product ran on one thread");

    // A sparse product with `nnz·m` above the threshold: a dense 194×194
    // operator times a 194×400 state is 15M multiply-adds.
    const SPARSE_M: usize = 400;
    const _: () = assert!(194 * 194 * SPARSE_M >= PAR_THRESHOLD);
    let dense = Matrix::random_uniform(194, 194, 1.0, &mut rng);
    let triplets: Vec<(usize, usize, f32)> = (0..194)
        .flat_map(|r| (0..194).map(move |c| (r, c)))
        .map(|(r, c)| (r, c, dense.get(r, c)))
        .collect();
    let s = CsrMatrix::from_triplets(194, 194, &triplets);
    let state = Matrix::random_uniform(194, SPARSE_M, 1.0, &mut rng);
    let before = jobs.get();
    edge_par::with_max_threads(2, || s.matmul_dense(&state));
    assert!(jobs.get() > before, "an nnz·m = {} spmm ran on one thread", s.nnz() * SPARSE_M);
}
