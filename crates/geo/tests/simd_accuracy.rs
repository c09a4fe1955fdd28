//! Accuracy gates for the AVX2 geographic kernels: unlike the bit-for-bit
//! contract of the `edge-tensor` kernels, the geo kernels replace libm
//! transcendentals with vector polynomials, so the contract here is a
//! bounded drift against the scalar reference — tight enough (≤ 1e-9 per
//! quantity, ≤ 1e-6 km on the end-to-end `mean_km`) that evaluation numbers
//! are unchanged at reporting precision. On hardware without AVX2 the
//! kernels fall back to scalar and every bound holds trivially at zero.

use edge_geo::simd::MixtureEval;
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

    /// The SoA mixture evaluator reproduces the scalar density to 1e-9
    /// relative (the absolute floor covers the deep-underflow tail where
    /// the vector exp saturates a few orders before libm's subnormals).
    #[test]
    fn mixture_eval_pdf_drift_bounded(mix in arb_mixture(), p in arb_metro_point()) {
        if let Some(eval) = MixtureEval::new(&mix) {
            let fast = eval.pdf(&p);
            let scalar = mix.pdf(&p);
            prop_assert!(
                (fast - scalar).abs() <= 1e-9 * scalar.abs() + 1e-300,
                "pdf drift {fast} vs {scalar}"
            );
        }
    }

    /// Same bound for the weight-summed density gradient the mode search
    /// consumes.
    #[test]
    fn mixture_eval_grad_drift_bounded(mix in arb_mixture(), p in arb_metro_point()) {
        if let Some(eval) = MixtureEval::new(&mix) {
            let (fl, fo) = eval.grad(&p);
            let (mut sl, mut so) = (0.0, 0.0);
            for (w, g) in mix.iter() {
                let (a, b) = g.pdf_grad(&p);
                sl += w * a;
                so += w * b;
            }
            let scale = sl.abs().max(so.abs()) + 1e-300;
            prop_assert!((fl - sl).abs() <= 1e-9 * scale, "grad_lat drift {fl} vs {sl}");
            prop_assert!((fo - so).abs() <= 1e-9 * scale, "grad_lon drift {fo} vs {so}");
        }
    }

    /// The vectorized mode search lands on a point at least as dense (to
    /// 1e-6 relative, judged by the *scalar* density) as the scalar
    /// search's mode, and within a metre of it.
    #[test]
    fn mode_drift_bounded(mix in arb_mixture()) {
        let fast = mix.mode();
        let scalar_mode = with_scalar_kernels(|| mix.mode());
        let (df, ds) = with_scalar_kernels(|| (mix.pdf(&fast), mix.pdf(&scalar_mode)));
        prop_assert!(df >= ds * (1.0 - 1e-6), "mode density {df} vs {ds}");
        let km = fast.haversine_km(&scalar_mode);
        prop_assert!(km < 1e-3, "mode moved {km} km: {fast:?} vs {scalar_mode:?}");
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
