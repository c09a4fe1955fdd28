//! Property-based tests for the geographic substrate.

use edge_geo::{BBox, BivariateGaussian, GaussianMixture, Grid, Point};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-80.0f64..80.0, -179.0f64..179.0).prop_map(|(lat, lon)| Point::new(lat, lon))
}

fn arb_metro_point() -> impl Strategy<Value = Point> {
    (40.0f64..41.0, -75.0f64..-74.0).prop_map(|(lat, lon)| Point::new(lat, lon))
}

fn arb_gaussian() -> impl Strategy<Value = BivariateGaussian> {
    (arb_metro_point(), 0.005f64..0.3, 0.005f64..0.3, -0.95f64..0.95)
        .prop_map(|(mu, s1, s2, rho)| BivariateGaussian::new(mu, s1, s2, rho))
}

proptest! {
    #[test]
    fn haversine_nonnegative_and_symmetric(a in arb_point(), b in arb_point()) {
        let d1 = a.haversine_km(&b);
        let d2 = b.haversine_km(&a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn haversine_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        // Great-circle distance is a metric: d(a,c) <= d(a,b) + d(b,c).
        prop_assert!(a.haversine_km(&c) <= a.haversine_km(&b) + b.haversine_km(&c) + 1e-6);
    }

    #[test]
    fn haversine_identity(a in arb_point()) {
        prop_assert_eq!(a.haversine_km(&a), 0.0);
    }

    #[test]
    fn local_projection_round_trip(origin in arb_metro_point(), p in arb_metro_point()) {
        let (e, n) = p.to_local_km(&origin);
        let back = Point::from_local_km(&origin, e, n);
        prop_assert!((back.lat - p.lat).abs() < 1e-9);
        prop_assert!((back.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    fn unit_vec_round_trip(p in arb_point()) {
        let back = Point::from_unit_vec(p.to_unit_vec());
        prop_assert!((back.lat - p.lat).abs() < 1e-8);
        prop_assert!((back.lon - p.lon).abs() < 1e-8);
    }

    #[test]
    fn grid_cell_round_trip(p in arb_metro_point(), rows in 1usize..60, cols in 1usize..60) {
        let g = Grid::new(BBox::new(40.0, 41.0, -75.0, -74.0), rows, cols);
        let cell = g.cell_of(&p);
        prop_assert!(cell.row < rows && cell.col < cols);
        // The cell centre maps back to the same cell.
        prop_assert_eq!(g.cell_of(&g.center_of(cell)), cell);
        // Linear index round-trips.
        prop_assert_eq!(g.cell_at(g.index_of(cell)), cell);
    }

    #[test]
    fn gaussian_pdf_positive_and_peaked(g in arb_gaussian(), p in arb_metro_point()) {
        let d = g.pdf(&p);
        prop_assert!(d.is_finite());
        prop_assert!(d >= 0.0);
        prop_assert!(g.pdf(&g.mu) >= d - 1e-12);
    }

    #[test]
    fn gaussian_log_pdf_consistent(g in arb_gaussian(), p in arb_metro_point()) {
        let lp = g.log_pdf(&p);
        prop_assert!(lp.is_finite());
        if lp > -700.0 {
            prop_assert!((lp.exp() - g.pdf(&p)).abs() <= 1e-9 * (1.0 + g.pdf(&p)));
        }
    }

    #[test]
    fn ellipse_contains_center_and_nests(g in arb_gaussian(), c in 0.5f64..0.9) {
        let small = g.confidence_ellipse(c);
        let big = g.confidence_ellipse(c + 0.09);
        prop_assert!(small.contains(&g.mu));
        prop_assert!(big.semi_major >= small.semi_major);
        prop_assert!(big.semi_minor >= small.semi_minor);
        // Boundary points of the small ellipse are inside the big one.
        for p in small.boundary(12) {
            prop_assert!(big.contains(&p));
        }
    }

    #[test]
    fn mixture_weights_always_sum_to_one(
        gs in proptest::collection::vec((0.01f64..10.0, arb_gaussian()), 1..6)
    ) {
        let m = GaussianMixture::new(gs);
        let sum: f64 = m.weights().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(m.weights().iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn mixture_pdf_between_min_and_max_component(
        gs in proptest::collection::vec((0.01f64..10.0, arb_gaussian()), 1..6),
        p in arb_metro_point()
    ) {
        let m = GaussianMixture::new(gs);
        let d = m.pdf(&p);
        let max_comp = m
            .components()
            .iter()
            .map(|g| g.pdf(&p))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(d <= max_comp + 1e-12);
        prop_assert!(d >= 0.0);
    }

    #[test]
    fn mixture_mode_density_at_least_component_means(
        gs in proptest::collection::vec((0.01f64..10.0, arb_gaussian()), 1..5)
    ) {
        // Every start of the search: each component mean, then the mixture
        // mean.
        let m = GaussianMixture::new(gs);
        let mode_density = m.pdf(&m.mode());
        for start in m.components().iter().map(|g| g.mu).chain([m.mean()]) {
            prop_assert!(mode_density >= m.pdf(&start) - 1e-12, "start {start:?}");
        }
    }

    #[test]
    fn bbox_clamp_idempotent_and_contained(p in arb_point()) {
        let b = BBox::new(40.0, 41.0, -75.0, -74.0);
        let c = b.clamp(&p);
        prop_assert!(b.contains(&c));
        prop_assert_eq!(b.clamp(&c), c);
    }

    #[test]
    fn histogram_mass_conserved(pts in proptest::collection::vec(arb_metro_point(), 0..200)) {
        let g = Grid::new(BBox::new(40.0, 41.0, -75.0, -74.0), 25, 25);
        let h = g.histogram(&pts);
        prop_assert_eq!(h.iter().map(|&c| c as usize).sum::<usize>(), pts.len());
    }
}
