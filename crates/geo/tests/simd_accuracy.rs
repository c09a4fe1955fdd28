//! Accuracy gates for the geographic hot path.
//!
//! * The AVX2 batched haversine replaces libm transcendentals with vector
//!   polynomials, so unlike the bit-for-bit contract of the `edge-tensor`
//!   kernels its contract is a bounded drift against the scalar reference —
//!   tight enough (≤ 1e-9 km per pair, ≤ 1e-6 km on the end-to-end
//!   `mean_km`) that evaluation numbers are unchanged at reporting
//!   precision. On hardware without AVX2 it falls back to scalar and every
//!   bound holds trivially at zero.
//! * The Eq. 14 mode search has one scalar path. Its properties are checked
//!   on `mode()` itself: a local maximum at least as dense as every start,
//!   bitwise the same under the scalar-kernel override, and finite and
//!   bounded on degenerate mixtures.

use edge_geo::{with_scalar_kernels, BivariateGaussian, DistanceReport, GaussianMixture, Point};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn arb_point() -> impl Strategy<Value = Point> {
    (-90.0f64..90.0, -180.0f64..180.0).prop_map(|(lat, lon)| Point::new(lat, lon))
}

fn arb_metro_point() -> impl Strategy<Value = Point> {
    (40.0f64..41.0, -75.0f64..-74.0).prop_map(|(lat, lon)| Point::new(lat, lon))
}

fn arb_gaussian() -> impl Strategy<Value = BivariateGaussian> {
    (arb_metro_point(), 0.005f64..0.3, 0.005f64..0.3, -0.95f64..0.95)
        .prop_map(|(mu, s1, s2, rho)| BivariateGaussian::new(mu, s1, s2, rho))
}

fn arb_mixture() -> impl Strategy<Value = GaussianMixture> {
    proptest::collection::vec((0.05f64..1.0, arb_gaussian()), 1..7).prop_map(GaussianMixture::new)
}

proptest! {
    /// Batched haversine agrees with the scalar formula to well under a
    /// millimetre over the full coordinate range (drift comes from the
    /// vector sin/cos polynomials; the bound leaves ~100x headroom).
    #[test]
    fn haversine_batch_drift_bounded(pts in proptest::collection::vec(
        (arb_point(), arb_point()), 1..40)
    ) {
        let batch = edge_geo::haversine_km_batch(&pts);
        prop_assert_eq!(batch.len(), pts.len());
        for ((p, t), fast) in pts.iter().zip(&batch) {
            let scalar = p.haversine_km(t);
            prop_assert!(
                (fast - scalar).abs() < 1e-9,
                "haversine drift {} vs {} for {:?} -> {:?}", fast, scalar, p, t
            );
        }
    }

    /// The mode is a local maximum of the density: no step of a
    /// millionth of the smallest σ along either axis climbs higher. Along
    /// a flat axis such a step changes the density by less than its own
    /// rounding, hence the 1e-14 relative slack; along the sharpest axis
    /// the slack would hide a mode off by no more than ~h/2.
    #[test]
    fn mode_is_a_local_maximum(mix in arb_mixture()) {
        let mode = mix.mode();
        let min_sigma = mix
            .components()
            .iter()
            .map(|g| g.sigma_lat.min(g.sigma_lon))
            .fold(f64::INFINITY, f64::min);
        let h = 1e-6 * min_sigma;
        let peak = mix.pdf(&mode);
        for (dlat, dlon) in [(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)] {
            let near = Point::new(mode.lat + dlat, mode.lon + dlon);
            prop_assert!(
                peak >= mix.pdf(&near) * (1.0 - 1e-14),
                "{near:?} is denser than the mode {mode:?}"
            );
        }
    }

    /// There is one search path: the scalar-kernel override changes no bit.
    #[test]
    fn mode_is_bitwise_equal_under_scalar_kernels(mix in arb_mixture()) {
        let mode = mix.mode();
        let scalar = with_scalar_kernels(|| mix.mode());
        prop_assert_eq!(mode.lat.to_bits(), scalar.lat.to_bits());
        prop_assert_eq!(mode.lon.to_bits(), scalar.lon.to_bits());
    }

    /// A lone component's mode is its mean, to 1e-12°.
    #[test]
    fn single_component_mode_is_its_mean(g in arb_gaussian()) {
        let mode = GaussianMixture::single(g).mode();
        prop_assert!((mode.lat - g.mu.lat).abs() <= 1e-12, "{mode:?} vs {:?}", g.mu);
        prop_assert!((mode.lon - g.mu.lon).abs() <= 1e-12, "{mode:?} vs {:?}", g.mu);
    }

    /// A σ = 1e-6 needle beside a σ = 0.3 component: the needle's peak
    /// density is ~10¹¹ times the wide one's, so the mode is the needle's
    /// mean to within a thousandth of its σ.
    #[test]
    fn mode_finds_a_needle_beside_a_wide_component(
        needle_at in arb_metro_point(),
        wide_at in arb_metro_point(),
        w in 0.05f64..1.0,
        rho in -0.95f64..0.95,
    ) {
        let needle = BivariateGaussian::new(needle_at, 1e-6, 1e-6, rho);
        let mix = GaussianMixture::new(vec![
            (w, needle),
            (1.0, BivariateGaussian::new(wide_at, 0.3, 0.3, -rho)),
        ]);
        let mode = mix.mode();
        prop_assert!(mode.lat.is_finite() && mode.lon.is_finite(), "{mode:?}");
        let off = (mode.lat - needle_at.lat).abs().max((mode.lon - needle_at.lon).abs());
        prop_assert!(off <= 1e-9, "mode {mode:?} is {off:e}° off the needle {needle_at:?}");
    }

    /// Components ≥ 1000σ apart, where linear-space responsibilities
    /// underflow to 0/0 at the mixture mean: the mode is the mean of the
    /// component with the highest peak `πₖ·normₖ`, to 1e-12°.
    #[test]
    fn mode_of_far_apart_components_is_the_highest_peak(
        parts in proptest::collection::vec((0.05f64..1.0, 0.005f64..0.03, 0.005f64..0.03), 2..5),
        gap in 1000.0f64..2000.0,
    ) {
        let widest = parts.iter().map(|p| p.1.max(p.2)).fold(0.0, f64::max);
        let mix = GaussianMixture::new(
            parts
                .iter()
                .enumerate()
                .map(|(k, &(w, s1, s2))| {
                    let mu = Point::new(0.0, -60.0 + k as f64 * gap * widest);
                    (w, BivariateGaussian::new(mu, s1, s2, 0.0))
                })
                .collect(),
        );
        let highest = mix
            .iter()
            .max_by(|a, b| (a.0 * a.1.pdf(&a.1.mu)).total_cmp(&(b.0 * b.1.pdf(&b.1.mu))))
            .expect("non-empty")
            .1
            .mu;
        let mode = mix.mode();
        prop_assert!((mode.lat - highest.lat).abs() <= 1e-12, "{mode:?} vs {highest:?}");
        prop_assert!((mode.lon - highest.lon).abs() <= 1e-12, "{mode:?} vs {highest:?}");
    }

    /// |ρ| = 1 − 1e-6, the constructor's clamp: a near-singular component
    /// beside a regular one. The mode stays finite, within 5σ of a
    /// component mean, and at least as dense (in log space, to 1e-9) as
    /// every start.
    #[test]
    fn mode_survives_near_singular_correlation(
        g in arb_gaussian(),
        at in arb_metro_point(),
        s1 in 0.005f64..0.3,
        s2 in 0.005f64..0.3,
        negative in any::<bool>(),
        w in 0.05f64..1.0,
    ) {
        let rho = if negative { -(1.0 - 1e-6) } else { 1.0 - 1e-6 };
        let thin = BivariateGaussian::new(at, s1, s2, rho);
        prop_assert_eq!(thin.rho.abs(), 1.0 - 1e-6);
        let mix = GaussianMixture::new(vec![(w, thin), (1.0, g)]);
        let mode = mix.mode();
        prop_assert!(mode.lat.is_finite() && mode.lon.is_finite(), "{mode:?}");
        let near_a_mean = mix.components().iter().any(|c| {
            (mode.lat - c.mu.lat).abs() <= 5.0 * c.sigma_lat
                && (mode.lon - c.mu.lon).abs() <= 5.0 * c.sigma_lon
        });
        prop_assert!(near_a_mean, "mode {mode:?} is far from every component");
        let at_mode = mix.log_pdf(&mode);
        for start in mix.components().iter().map(|c| c.mu).chain([mix.mean()]) {
            prop_assert!(at_mode >= mix.log_pdf(&start) - 1e-9, "start {start:?}");
        }
    }
}

/// End-to-end gate from the issue: the full `DistanceReport` computed with
/// the vector kernels drifts from the scalar engine by under 1e-6 km on
/// mean and median, with the threshold counts unchanged.
#[test]
fn distance_report_mean_km_drift_under_1e6() {
    let mut rng = StdRng::seed_from_u64(0x51_0D);
    let pairs: Vec<(Point, Point)> = (0..4097)
        .map(|_| {
            let truth = Point::new(rng.gen_range(40.0..41.0), rng.gen_range(-75.0..-74.0));
            let pred = Point::new(
                truth.lat + rng.gen_range(-0.2..0.2),
                truth.lon + rng.gen_range(-0.2..0.2),
            );
            (pred, truth)
        })
        .collect();
    let fast = DistanceReport::from_pairs(&pairs).unwrap();
    let scalar = with_scalar_kernels(|| DistanceReport::from_pairs(&pairs)).unwrap();
    assert!(
        (fast.mean_km - scalar.mean_km).abs() < 1e-6,
        "mean_km {} vs {}",
        fast.mean_km,
        scalar.mean_km
    );
    assert!(
        (fast.median_km - scalar.median_km).abs() < 1e-6,
        "median_km {} vs {}",
        fast.median_km,
        scalar.median_km
    );
    assert_eq!(fast.at_3km, scalar.at_3km);
    assert_eq!(fast.at_5km, scalar.at_5km);
    assert_eq!(fast.n, scalar.n);
}

/// Near-antipodal pairs: `asin`'s slope 1/√(1−x²) grows without bound as
/// its argument nears 1, so `asin(√a)` would amplify any rounding in the
/// vector sin/cos passes past the gate here; both paths take these pairs
/// through the antipode identity instead. Deterministic pairs at offsets
/// from 1° down to exactly antipodal, in batches of four so every pair
/// takes the vector path where it is active.
#[test]
fn near_antipodal_pairs_stay_within_the_drift_gate() {
    let mut pairs = Vec::new();
    for (lat, lon) in [(0.0, 0.0), (40.7, -74.0), (-33.9, 151.2), (89.5, 10.0), (12.3, 179.9)] {
        let p = Point::new(lat, lon);
        let antipode_lon = if lon > 0.0 { lon - 180.0 } else { lon + 180.0 };
        for eps in [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 0.0] {
            pairs.push((p, Point::new(-lat + eps, antipode_lon)));
            pairs.push((p, Point::new(-lat, antipode_lon - eps)));
            pairs.push((p, Point::new(-lat - eps * 0.5, antipode_lon + eps * 0.7)));
            pairs.push((Point::new(-lat, antipode_lon), Point::new(lat - eps, lon)));
        }
    }
    for ((p, t), fast) in pairs.iter().zip(edge_geo::haversine_km_batch(&pairs)) {
        let scalar = p.haversine_km(t);
        assert!((fast - scalar).abs() < 1e-9, "drift {fast} vs {scalar} for {p:?} -> {t:?}");
    }
}

/// Two million pairs uniform in latitude and longitude over the whole
/// globe, ~37% of them past the antipode-identity cut: every full group of
/// four takes the vector path where it is active, and each pair stays
/// within 1e-9 km of the scalar formula.
#[test]
fn two_million_random_pairs_stay_within_the_drift_gate() {
    let mut rng = StdRng::seed_from_u64(0x2D_1F7);
    let mut point = || Point::new(rng.gen_range(-90.0..90.0), rng.gen_range(-180.0..180.0));
    let pairs: Vec<(Point, Point)> = (0..2_000_000).map(|_| (point(), point())).collect();
    let batch = edge_geo::haversine_km_batch(&pairs);
    let (worst, at) = pairs
        .iter()
        .zip(&batch)
        .map(|((p, t), fast)| ((fast - p.haversine_km(t)).abs(), (*p, *t)))
        .fold((0.0, None), |(w, at), (d, pair)| if d > w { (d, Some(pair)) } else { (w, at) });
    assert!(worst < 1e-9, "largest drift {worst:e} km at {at:?}");
}

/// Pairs whose distance is known exactly: antipodes, pole to pole, the
/// same pole at two longitudes, and short hops across the ±180° meridian.
/// The batched kernel and the scalar formula both land within 1e-9 km of
/// the true distance.
#[test]
fn exact_antipodes_poles_and_dateline_pairs_match_the_true_distance() {
    use std::f64::consts::PI;
    let r = edge_geo::EARTH_RADIUS_KM;
    let mut cases = Vec::new();
    for (lat, lon) in [(0.0, 0.0), (40.7, -74.0), (-33.9, 151.2), (89.5, 10.0), (12.3, 179.9)] {
        let antipode_lon = if lon > 0.0 { lon - 180.0 } else { lon + 180.0 };
        cases.push((Point::new(lat, lon), Point::new(-lat, antipode_lon), PI * r));
    }
    for (lon1, lon2) in [(0.0, 0.0), (0.0, 180.0), (-120.0, 45.0), (179.0, -179.0)] {
        cases.push((Point::new(90.0, lon1), Point::new(-90.0, lon2), PI * r));
        cases.push((Point::new(-90.0, lon1), Point::new(90.0, lon2), PI * r));
        cases.push((Point::new(90.0, lon1), Point::new(90.0, lon2), 0.0));
    }
    for (lon1, lon2, degrees) in [(179.5, -179.5, 1.0), (-179.9, 179.9, 0.2), (180.0, -180.0, 0.0)]
    {
        cases.push((Point::new(0.0, lon1), Point::new(0.0, lon2), degrees * PI / 180.0 * r));
    }
    let pairs: Vec<(Point, Point)> = cases.iter().map(|&(p, t, _)| (p, t)).collect();
    for ((p, t, truth), fast) in cases.iter().zip(edge_geo::haversine_km_batch(&pairs)) {
        let scalar = p.haversine_km(t);
        assert!((fast - truth).abs() < 1e-9, "batched {fast} vs {truth} for {p:?} -> {t:?}");
        assert!((scalar - truth).abs() < 1e-9, "scalar {scalar} vs {truth} for {p:?} -> {t:?}");
    }
}

/// `with_scalar_kernels` really disables the vector path: inside the
/// closure the batch API must be the exact scalar map, bit for bit.
#[test]
fn scalar_override_is_bitwise_scalar() {
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<(Point, Point)> = (0..33)
        .map(|_| {
            (
                Point::new(rng.gen_range(-90.0..90.0), rng.gen_range(-180.0..180.0)),
                Point::new(rng.gen_range(-90.0..90.0), rng.gen_range(-180.0..180.0)),
            )
        })
        .collect();
    let batch = with_scalar_kernels(|| edge_geo::haversine_km_batch(&pairs));
    for ((p, t), b) in pairs.iter().zip(&batch) {
        assert_eq!(b.to_bits(), p.haversine_km(t).to_bits());
    }
    assert!(edge_geo::simd_available() || !edge_geo::simd_active());
}

/// The override reaches pool workers: items of a parallel region that a
/// worker thread claims run the scalar kernels too, not just the items the
/// submitting thread works itself.
#[test]
fn scalar_override_reaches_pool_workers() {
    if !edge_geo::simd_available() {
        return;
    }
    let vector_items = AtomicUsize::new(0);
    with_scalar_kernels(|| {
        edge_par::with_max_threads(4, || {
            edge_par::parallel_for(256, |_| {
                // Slow enough per item that parked workers wake and claim
                // chunks before the submitter finishes them all.
                std::thread::sleep(Duration::from_micros(200));
                if edge_geo::simd_active() {
                    vector_items.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
    });
    assert_eq!(vector_items.load(Ordering::Relaxed), 0, "items ran the vector kernels");
    assert!(edge_geo::simd_active(), "the override ends with its scope");
}
