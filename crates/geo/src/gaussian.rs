//! Bivariate Gaussian distributions with the paper's `(σ₁, σ₂, ρ)`
//! covariance parameterization (Eq. 5), plus the confidence ellipses used to
//! visualize predictions in the Figure-7 use case.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::point::Point;

/// A bivariate normal over `(latitude, longitude)`.
///
/// The covariance matrix is stored in the paper's factored form
///
/// ```text
/// Σ = [ σ₁²        ρ σ₁ σ₂ ]
///     [ ρ σ₁ σ₂    σ₂²     ]
/// ```
///
/// with `σ₁, σ₂ > 0` and `ρ ∈ (-1, 1)`, which is exactly what the EDGE
/// mixture head emits after the softplus/softsign activations (Eq. 10–11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BivariateGaussian {
    /// Mean `(μ_lat, μ_lon)` in degrees.
    pub mu: Point,
    /// Standard deviation along latitude, degrees.
    pub sigma_lat: f64,
    /// Standard deviation along longitude, degrees.
    pub sigma_lon: f64,
    /// Correlation between latitude and longitude.
    pub rho: f64,
}

/// A confidence ellipse of a bivariate Gaussian: the level set containing a
/// given probability mass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceEllipse {
    /// Ellipse centre (the Gaussian mean).
    pub center: Point,
    /// Semi-major axis, in degrees.
    pub semi_major: f64,
    /// Semi-minor axis, in degrees.
    pub semi_minor: f64,
    /// Rotation of the major axis from the latitude axis, radians in
    /// `(-π/2, π/2]`.
    pub angle_rad: f64,
    /// The confidence level this ellipse encloses, e.g. `0.75`.
    pub confidence: f64,
}

impl BivariateGaussian {
    /// Creates a Gaussian; clamps `ρ` into `(-1+ε, 1-ε)` and floors the
    /// standard deviations at a tiny positive value so a freshly initialized
    /// or adversarial parameter vector can never produce a singular Σ.
    pub fn new(mu: Point, sigma_lat: f64, sigma_lon: f64, rho: f64) -> Self {
        const MIN_SIGMA: f64 = 1e-6;
        const MAX_ABS_RHO: f64 = 1.0 - 1e-6;
        Self {
            mu,
            sigma_lat: sigma_lat.max(MIN_SIGMA),
            sigma_lon: sigma_lon.max(MIN_SIGMA),
            rho: rho.clamp(-MAX_ABS_RHO, MAX_ABS_RHO),
        }
    }

    /// An isotropic Gaussian with equal axis standard deviations and no
    /// correlation.
    pub fn isotropic(mu: Point, sigma: f64) -> Self {
        Self::new(mu, sigma, sigma, 0.0)
    }

    /// The determinant of Σ.
    pub fn det(&self) -> f64 {
        let s1 = self.sigma_lat;
        let s2 = self.sigma_lon;
        s1 * s1 * s2 * s2 * (1.0 - self.rho * self.rho)
    }

    /// Squared Mahalanobis distance of `p` from the mean.
    pub fn mahalanobis_sq(&self, p: &Point) -> f64 {
        let dx = (p.lat - self.mu.lat) / self.sigma_lat;
        let dy = (p.lon - self.mu.lon) / self.sigma_lon;
        let r = self.rho;
        (dx * dx - 2.0 * r * dx * dy + dy * dy) / (1.0 - r * r)
    }

    /// Log probability density at `p`.
    pub fn log_pdf(&self, p: &Point) -> f64 {
        let norm = -(2.0
            * std::f64::consts::PI
            * self.sigma_lat
            * self.sigma_lon
            * (1.0 - self.rho * self.rho).sqrt())
        .ln();
        norm - 0.5 * self.mahalanobis_sq(p)
    }

    /// Probability density at `p`.
    pub fn pdf(&self, p: &Point) -> f64 {
        self.log_pdf(p).exp()
    }

    /// Draws one sample using the Cholesky factor of Σ.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let z1 = standard_normal(rng);
        let z2 = standard_normal(rng);
        let lat = self.mu.lat + self.sigma_lat * z1;
        let lon = self.mu.lon
            + self.sigma_lon * (self.rho * z1 + (1.0 - self.rho * self.rho).sqrt() * z2);
        Point::new(lat, lon)
    }

    /// The eigen-decomposition of Σ: `(λ_major, λ_minor, angle)` where
    /// `angle` is the rotation of the major eigenvector from the latitude
    /// axis.
    pub fn covariance_eigen(&self) -> (f64, f64, f64) {
        let a = self.sigma_lat * self.sigma_lat;
        let c = self.sigma_lon * self.sigma_lon;
        let b = self.rho * self.sigma_lat * self.sigma_lon;
        let trace_half = (a + c) / 2.0;
        let disc = (((a - c) / 2.0).powi(2) + b * b).sqrt();
        let l1 = trace_half + disc;
        let l2 = (trace_half - disc).max(0.0);
        let angle = if b.abs() < 1e-30 && a >= c {
            0.0
        } else if b.abs() < 1e-30 {
            std::f64::consts::FRAC_PI_2
        } else {
            (l1 - a).atan2(b)
        };
        (l1, l2, angle)
    }

    /// The confidence ellipse enclosing probability `confidence ∈ (0, 1)`.
    ///
    /// For a bivariate normal the squared Mahalanobis radius enclosing mass
    /// `p` is the χ²₂ quantile `-2 ln(1 - p)`.
    pub fn confidence_ellipse(&self, confidence: f64) -> ConfidenceEllipse {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        let chi2 = -2.0 * (1.0 - confidence).ln();
        let (l1, l2, angle) = self.covariance_eigen();
        ConfidenceEllipse {
            center: self.mu,
            semi_major: (chi2 * l1).sqrt(),
            semi_minor: (chi2 * l2).sqrt(),
            angle_rad: angle,
            confidence,
        }
    }

    /// Maximum-likelihood fit to a set of points. Returns `None` for fewer
    /// than two points (the covariance would be degenerate).
    pub fn fit(points: &[Point]) -> Option<Self> {
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let mean = crate::point::centroid(points)?;
        let (mut v_lat, mut v_lon, mut cov) = (0.0, 0.0, 0.0);
        for p in points {
            let dx = p.lat - mean.lat;
            let dy = p.lon - mean.lon;
            v_lat += dx * dx;
            v_lon += dy * dy;
            cov += dx * dy;
        }
        v_lat /= n;
        v_lon /= n;
        cov /= n;
        let s1 = v_lat.sqrt();
        let s2 = v_lon.sqrt();
        let rho = if s1 > 0.0 && s2 > 0.0 { cov / (s1 * s2) } else { 0.0 };
        Some(Self::new(mean, s1, s2, rho))
    }
}

impl ConfidenceEllipse {
    /// Whether `p` lies inside the ellipse.
    pub fn contains(&self, p: &Point) -> bool {
        let dx = p.lat - self.center.lat;
        let dy = p.lon - self.center.lon;
        let (sin, cos) = self.angle_rad.sin_cos();
        let u = cos * dx + sin * dy;
        let v = -sin * dx + cos * dy;
        (u / self.semi_major).powi(2) + (v / self.semi_minor).powi(2) <= 1.0
    }

    /// `n` evenly spaced boundary points, suitable for plotting.
    pub fn boundary(&self, n: usize) -> Vec<Point> {
        let (sin, cos) = self.angle_rad.sin_cos();
        (0..n)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                let u = self.semi_major * t.cos();
                let v = self.semi_minor * t.sin();
                Point::new(self.center.lat + cos * u - sin * v, self.center.lon + sin * u + cos * v)
            })
            .collect()
    }
}

/// One standard-normal draw via Box–Muller (kept local so the crate does not
/// need `rand_distr`).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g() -> BivariateGaussian {
        BivariateGaussian::new(Point::new(40.7, -74.0), 0.05, 0.08, 0.3)
    }

    #[test]
    fn pdf_is_maximal_at_mean() {
        let g = g();
        let at_mean = g.pdf(&g.mu);
        for d in [0.01, 0.05, 0.2] {
            assert!(g.pdf(&Point::new(g.mu.lat + d, g.mu.lon)) < at_mean);
            assert!(g.pdf(&Point::new(g.mu.lat, g.mu.lon - d)) < at_mean);
        }
    }

    #[test]
    fn pdf_integrates_to_one_on_grid() {
        let g = BivariateGaussian::new(Point::new(0.0, 0.0), 0.1, 0.15, -0.4);
        let (step, half) = (0.01, 1.0);
        let mut mass = 0.0;
        let n = (2.0 * half / step) as i64;
        for i in 0..n {
            for j in 0..n {
                let p =
                    Point::new(-half + (i as f64 + 0.5) * step, -half + (j as f64 + 0.5) * step);
                mass += g.pdf(&p) * step * step;
            }
        }
        assert!((mass - 1.0).abs() < 1e-3, "mass {mass}");
    }

    #[test]
    fn log_pdf_matches_pdf() {
        let g = g();
        let p = Point::new(40.72, -74.05);
        assert!((g.log_pdf(&p).exp() - g.pdf(&p)).abs() < 1e-12);
    }

    #[test]
    fn sigma_floor_and_rho_clamp() {
        let g = BivariateGaussian::new(Point::new(0.0, 0.0), -1.0, 0.0, 5.0);
        assert!(g.sigma_lat > 0.0);
        assert!(g.sigma_lon > 0.0);
        assert!(g.rho < 1.0);
        assert!(g.det() > 0.0);
        assert!(g.pdf(&Point::new(0.0, 0.0)).is_finite());
    }

    #[test]
    fn sample_mean_converges() {
        let g = g();
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..20_000).map(|_| g.sample(&mut rng)).collect();
        let c = crate::point::centroid(&pts).unwrap();
        assert!((c.lat - g.mu.lat).abs() < 0.002, "lat {}", c.lat);
        assert!((c.lon - g.mu.lon).abs() < 0.003, "lon {}", c.lon);
    }

    #[test]
    fn fit_recovers_parameters() {
        let truth = BivariateGaussian::new(Point::new(34.0, -118.0), 0.1, 0.05, 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Point> = (0..50_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = BivariateGaussian::fit(&pts).unwrap();
        assert!((fitted.sigma_lat - truth.sigma_lat).abs() < 0.005);
        assert!((fitted.sigma_lon - truth.sigma_lon).abs() < 0.005);
        assert!((fitted.rho - truth.rho).abs() < 0.03);
    }

    #[test]
    fn fit_rejects_tiny_samples() {
        assert!(BivariateGaussian::fit(&[]).is_none());
        assert!(BivariateGaussian::fit(&[Point::new(0.0, 0.0)]).is_none());
    }

    #[test]
    fn confidence_ellipse_mass_is_correct() {
        // Empirically: fraction of samples inside the p-ellipse ≈ p.
        let g = BivariateGaussian::new(Point::new(0.0, 0.0), 0.2, 0.1, 0.6);
        let mut rng = StdRng::seed_from_u64(3);
        for conf in [0.75, 0.80, 0.85] {
            let e = g.confidence_ellipse(conf);
            let inside =
                (0..40_000).filter(|_| e.contains(&g.sample(&mut rng))).count() as f64 / 40_000.0;
            assert!((inside - conf).abs() < 0.01, "conf {conf}: inside {inside}");
        }
    }

    #[test]
    fn confidence_ellipses_nest() {
        let g = g();
        let small = g.confidence_ellipse(0.75);
        let big = g.confidence_ellipse(0.85);
        assert!(big.semi_major > small.semi_major);
        assert!(big.semi_minor > small.semi_minor);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn ellipse_rejects_bad_confidence() {
        let _ = g().confidence_ellipse(1.0);
    }

    #[test]
    fn ellipse_boundary_points_lie_on_boundary() {
        let g = g();
        let e = g.confidence_ellipse(0.8);
        // Boundary points all have the same Mahalanobis radius.
        let radii: Vec<f64> = e.boundary(16).iter().map(|p| g.mahalanobis_sq(p)).collect();
        let first = radii[0];
        for r in &radii {
            assert!((r - first).abs() < 1e-9, "radii differ: {radii:?}");
        }
    }

    #[test]
    fn eigen_identity_for_isotropic() {
        let g = BivariateGaussian::isotropic(Point::new(0.0, 0.0), 0.3);
        let (l1, l2, _) = g.covariance_eigen();
        assert!((l1 - 0.09).abs() < 1e-12);
        assert!((l2 - 0.09).abs() < 1e-12);
    }
}
