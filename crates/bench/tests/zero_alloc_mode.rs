//! The Eq. 14 mode search, measured instead of assumed: with the
//! `alloc-stats` counting allocator compiled in, a steady-state
//! `GaussianMixture::mode()` call on a 4-component mixture performs **zero
//! heap allocations** once the thread's reused scratch exists.
//!
//! The count is process-global, so this file holds a single test (the
//! perf-smoke script runs it with `--test-threads=1`).
#![cfg(feature = "alloc-stats")]

use std::hint::black_box;

use edge_geo::{BivariateGaussian, GaussianMixture, Point};

#[test]
fn steady_state_mode_allocates_nothing() {
    let mixtures = [
        GaussianMixture::new(vec![
            (0.4, BivariateGaussian::new(Point::new(40.70, -74.00), 0.02, 0.03, 0.2)),
            (0.3, BivariateGaussian::new(Point::new(40.80, -73.90), 0.05, 0.02, -0.3)),
            (0.2, BivariateGaussian::isotropic(Point::new(40.60, -74.10), 0.04)),
            (0.1, BivariateGaussian::isotropic(Point::new(40.75, -73.80), 0.08)),
        ]),
        // Overlapping components: the climbs take more steps.
        GaussianMixture::new(vec![
            (0.3, BivariateGaussian::new(Point::new(34.05, -118.25), 0.06, 0.04, 0.5)),
            (0.3, BivariateGaussian::new(Point::new(34.07, -118.22), 0.05, 0.07, -0.4)),
            (0.2, BivariateGaussian::isotropic(Point::new(34.02, -118.28), 0.08)),
            (0.2, BivariateGaussian::isotropic(Point::new(34.10, -118.30), 0.03)),
        ]),
    ];
    // Warm: the first call on this thread grows the reused scratch.
    let modes: Vec<Point> = mixtures.iter().map(GaussianMixture::mode).collect();

    let before = edge_obs::alloc::counts();
    let mut calls = 0usize;
    for _ in 0..500 {
        for (mix, expected) in mixtures.iter().zip(&modes) {
            let mode = black_box(mix).mode();
            assert!(mode == *expected, "mode changed between calls");
            calls += 1;
        }
    }
    let allocs = edge_obs::alloc::counts().count - before.count;
    assert_eq!(allocs, 0, "{allocs} heap allocations over {calls} steady-state mode() calls");

    // The counter is live: cloning a mixture allocates its vectors.
    let before = edge_obs::alloc::counts();
    let copy = black_box(mixtures[0].clone());
    let fresh = edge_obs::alloc::counts().count - before.count;
    assert_eq!(copy.len(), 4);
    assert!(fresh > 0, "clone() should allocate, saw {fresh}");
}
