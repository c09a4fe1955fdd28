//! The tentpole claim, measured instead of assumed: with the `alloc-stats`
//! counting allocator compiled in, a steady-state training batch performs
//! **zero heap allocations** — every buffer it needs comes from the arena
//! pools warmed by the first epoch.
//!
//! The count is process-global, so this file holds a single test (and the CI
//! perf-smoke job runs it with `--test-threads=1`); the sweep is pinned to
//! one worker because multi-thread dispatch only best-effort-reuses its job
//! allocation.
#![cfg(feature = "alloc-stats")]

use edge_core::{EdgeConfig, EdgeModel, TrainOptions};
use edge_data::{dataset_recognizer, nyma, PresetSize};

#[test]
fn steady_state_training_batch_allocates_nothing() {
    let d = nyma(PresetSize::Smoke, 11);
    let (train, _) = d.paper_split();
    let mut cfg = EdgeConfig::smoke();
    cfg.epochs = 3;

    let report = edge_par::with_max_threads(1, || {
        let (_, report) = EdgeModel::train(
            &train[..600],
            dataset_recognizer(&d),
            &d.bbox,
            cfg.clone(),
            &TrainOptions::default(),
        )
        .expect("train");
        report
    });
    let min = report.steady_batch_allocs.expect("alloc-stats is compiled in");
    assert_eq!(min, 0, "steady-state batch performed {min} heap allocations");

    // The reference mode must show the counter actually measures something:
    // fresh allocation is far from zero on every batch. A batch's tape is
    // under twenty nodes (one segment op aggregates every tweet), and each
    // node value and backward gradient is a fresh buffer: ~40 per batch.
    let fresh = edge_par::with_max_threads(1, || {
        let opts = TrainOptions { fresh_alloc: true, ..TrainOptions::default() };
        let (_, report) =
            EdgeModel::train(&train[..600], dataset_recognizer(&d), &d.bbox, cfg, &opts)
                .expect("train");
        report
    });
    let fresh_min = fresh.steady_batch_allocs.expect("alloc-stats is compiled in");
    assert!(fresh_min > 20, "fresh-alloc reference should allocate per batch, saw {fresh_min}");
}
