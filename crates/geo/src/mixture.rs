//! Gaussian mixtures — the prediction object EDGE returns (Eq. 6), with the
//! density-argmax point extraction of Eq. 14 and the mass-within-radius
//! query behind the RDP metric.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gaussian::BivariateGaussian;
use crate::point::Point;

/// A weighted mixture of bivariate Gaussians over `(lat, lon)`.
///
/// Weights are normalized at construction, so `pdf` always integrates to 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianMixture {
    weights: Vec<f64>,
    components: Vec<BivariateGaussian>,
}

impl GaussianMixture {
    /// Builds a mixture from `(weight, component)` pairs. Weights must be
    /// non-negative with a positive sum; they are renormalized to 1.
    ///
    /// Panics on an empty component list or an all-zero weight vector —
    /// those are programming errors in the caller, not data conditions.
    pub fn new(parts: Vec<(f64, BivariateGaussian)>) -> Self {
        assert!(!parts.is_empty(), "mixture needs at least one component");
        let sum: f64 = parts.iter().map(|(w, _)| *w).sum();
        assert!(
            sum > 0.0 && sum.is_finite(),
            "mixture weights must have a positive finite sum, got {sum}"
        );
        let (weights, components) = parts
            .into_iter()
            .map(|(w, g)| {
                assert!(w >= 0.0, "negative mixture weight {w}");
                (w / sum, g)
            })
            .unzip();
        Self { weights, components }
    }

    /// A single-component mixture (the `NoMixture` ablation's output shape).
    pub fn single(g: BivariateGaussian) -> Self {
        Self::new(vec![(1.0, g)])
    }

    /// Number of components `M`.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True only for the impossible empty mixture (constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The normalized component weights `π`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The Gaussian components.
    pub fn components(&self) -> &[BivariateGaussian] {
        &self.components
    }

    /// Iterates `(π_m, component_m)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &BivariateGaussian)> + '_ {
        self.weights.iter().copied().zip(self.components.iter())
    }

    /// Probability density at `p` (Eq. 6).
    pub fn pdf(&self, p: &Point) -> f64 {
        self.iter().map(|(w, g)| w * g.pdf(p)).sum()
    }

    /// Log density at `p`, computed with the log-sum-exp trick so that
    /// far-from-every-component points do not underflow to `-inf` unless the
    /// density is truly zero to f64 precision.
    pub fn log_pdf(&self, p: &Point) -> f64 {
        let logs: Vec<f64> = self
            .iter()
            .map(|(w, g)| if w > 0.0 { w.ln() + g.log_pdf(p) } else { f64::NEG_INFINITY })
            .collect();
        let max = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        max + logs.iter().map(|l| (l - max).exp()).sum::<f64>().ln()
    }

    /// The mixture mean `Σ π_m μ_m`.
    pub fn mean(&self) -> Point {
        let mut lat = 0.0;
        let mut lon = 0.0;
        for (w, g) in self.iter() {
            lat += w * g.mu.lat;
            lon += w * g.mu.lon;
        }
        Point::new(lat, lon)
    }

    /// Draws one sample: pick a component by weight, then sample it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (w, g) in self.iter() {
            acc += w;
            if u <= acc {
                return g.sample(rng);
            }
        }
        // Floating-point slack: fall through to the last component.
        self.components.last().expect("non-empty").sample(rng)
    }

    /// Eq. 14: the location maximizing the mixture density.
    ///
    /// The density is multi-modal, so the search climbs from every
    /// component mean and from the mixture mean, and keeps the densest
    /// endpoint. Each climb is the fixed-point iteration for Gaussian-mixture
    /// modes (Carreira-Perpiñán, "Mode-finding for mixtures of Gaussian
    /// distributions", IEEE TPAMI 2000):
    ///
    /// ```text
    /// x ← (Σₖ rₖ Λₖ)⁻¹ Σₖ rₖ Λₖ μₖ,   rₖ ∝ πₖ Nₖ(x),   Λₖ = Σₖ⁻¹
    /// ```
    ///
    /// It needs no step size and never lowers the density. The iterate is
    /// updated by its displacement `(Σ rₖΛₖ)⁻¹ Σ rₖΛₖ(μₖ − x)`, a
    /// closed-form 2×2 solve, so a lone component lands on its mean
    /// exactly. Responsibilities are formed in log space (the largest log
    /// term is subtracted before `exp`), so a start far from every other
    /// component cannot turn into 0/0.
    ///
    /// The fixed point converges linearly, and crawls where two components
    /// nearly merge. Where `ln p` is locally concave, the climb therefore
    /// takes the Newton step on `ln p` instead: it comes from the same sums
    /// plus one more 2×2 solve, and converges quadratically. A Newton step
    /// that lowers the density is replaced by the fixed-point step from the
    /// same iterate. A climb stops once its step is at most `MODE_TOL_DEG`
    /// on both axes, after `MODE_MAX_ITERS` steps, or when a fixed-point
    /// step lowers the density beyond rounding, which it undoes.
    ///
    /// Steady-state calls allocate nothing: the per-component constants
    /// live in a reused thread-local buffer.
    pub fn mode(&self) -> Point {
        MODE_TERMS.with(|cell| {
            let mut terms = cell.take();
            terms.clear();
            terms.extend(self.iter().map(|(w, g)| ModeTerm::new(w, g)));
            let mut best = (f64::NEG_INFINITY, self.components[0].mu);
            let starts = self.components.iter().map(|g| g.mu).chain([self.mean()]);
            for start in starts {
                let climbed = climb(&mut terms, start);
                if climbed.0 > best.0 {
                    best = climbed;
                }
            }
            cell.set(terms);
            best.1
        })
    }

    /// Monte-Carlo estimate of the probability mass the mixture places
    /// within `radius_km` of `center` — the per-tweet quantity averaged by
    /// the RDP metric (Figure 5).
    ///
    /// Uses a seeded RNG so results are reproducible; `n_samples` around
    /// 2 000 gives ±1% accuracy.
    pub fn mass_within_km<R: Rng + ?Sized>(
        &self,
        center: &Point,
        radius_km: f64,
        n_samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(n_samples > 0, "need at least one sample");
        let hits =
            (0..n_samples).filter(|_| self.sample(rng).haversine_km(center) <= radius_km).count();
        hits as f64 / n_samples as f64
    }

    /// The index and weight of the heaviest component.
    pub fn dominant_component(&self) -> (usize, f64) {
        let (idx, w) =
            self.weights.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty");
        (idx, *w)
    }

    /// Shannon entropy of the component weights in nats — a quick scalar
    /// summary of how multi-modal the prediction is.
    pub fn weight_entropy(&self) -> f64 {
        -self.weights.iter().filter(|&&w| w > 0.0).map(|w| w * w.ln()).sum::<f64>()
    }
}

/// A climb of the mode search stops once its step is at most this many
/// degrees on both axes (about a micrometre).
const MODE_TOL_DEG: f64 = 1e-11;

/// Steps allowed per start of the mode search. Over the smoke corpora's
/// test mixtures a whole search (every start) takes at most 91; the cap
/// bounds pathological mixtures.
const MODE_MAX_ITERS: usize = 200;

/// A fall in log density smaller than this is rounding in the density
/// itself, not a step downhill: along a flat axis (σ ≈ 0.3° beside
/// σ ≈ 0.006°) the last steps change the density by less than one ulp.
const MODE_GUARD_SLACK: f64 = 1e-12;

thread_local! {
    /// Recycled per-component constants, so steady-state `mode()` calls
    /// allocate nothing. `Cell` take/put keeps a nested call safe.
    static MODE_TERMS: std::cell::Cell<Vec<ModeTerm>> = const { std::cell::Cell::new(Vec::new()) };
}

/// One component as the mode search uses it, precomputed once per call.
#[derive(Debug, Clone, Copy)]
struct ModeTerm {
    mu: Point,
    /// `ln πₖ + ln normₖ`: the log density at the mean, weight included.
    log_peak: f64,
    /// The precision `Λₖ = Σₖ⁻¹`: `[[l11, l12], [l12, l22]]`.
    l11: f64,
    l12: f64,
    l22: f64,
    /// Scratch for one step: this component's log term at the iterate.
    log_term: f64,
}

impl ModeTerm {
    fn new(w: f64, g: &BivariateGaussian) -> Self {
        let (s1, s2, rho) = (g.sigma_lat, g.sigma_lon, g.rho);
        let one_m_r2 = 1.0 - rho * rho;
        let log_norm = -(2.0 * std::f64::consts::PI * s1 * s2 * one_m_r2.sqrt()).ln();
        let inv = 1.0 / one_m_r2;
        Self {
            mu: g.mu,
            log_peak: w.ln() + log_norm,
            l11: inv / (s1 * s1),
            l12: -rho * inv / (s1 * s2),
            l22: inv / (s2 * s2),
            log_term: 0.0,
        }
    }

    /// `Λₖ(μₖ − x)`, the component's pull towards its mean.
    fn pull(&self, x: Point) -> (f64, f64) {
        let (d_lat, d_lon) = (self.mu.lat - x.lat, self.mu.lon - x.lon);
        (self.l11 * d_lat + self.l12 * d_lon, self.l12 * d_lat + self.l22 * d_lon)
    }
}

/// What the search learns at one iterate.
struct Step {
    /// Log mixture density at the iterate.
    log_density: f64,
    /// The fixed-point displacement, `(Σ rₖΛₖ)⁻¹ Σ rₖΛₖ(μₖ − x)`.
    fixed_point: (f64, f64),
    /// The Newton displacement on `ln p`, where `ln p` is locally concave.
    newton: Option<(f64, f64)>,
}

/// Solves the symmetric 2×2 system `[[m11, m12], [m12, m22]] · d = b`.
fn solve2(m11: f64, m12: f64, m22: f64, b: (f64, f64)) -> (f64, f64) {
    let det = m11 * m22 - m12 * m12;
    ((m22 * b.0 - m12 * b.1) / det, (m11 * b.1 - m12 * b.0) / det)
}

/// Evaluates the responsibilities at `x` and both candidate steps.
///
/// With unnormalized responsibilities `rₖ = exp(lₖ − max lⱼ)`, `S = Σ rₖ`,
/// pulls `gₖ = Λₖ(μₖ − x)`, `A = Σ rₖΛₖ`, `b = Σ rₖgₖ` and
/// `C = Σ rₖgₖgₖᵀ`, the gradient of `ln p` is `b/S` and its Hessian is
/// `(C − A − bbᵀ/S)/S`. So the fixed-point step is `A⁻¹b` and the Newton
/// step is `M⁻¹b` with `M = A − C + bbᵀ/S`, valid while `M` is positive
/// definite. The two coincide when one component owns `x`.
fn step_at(terms: &mut [ModeTerm], x: Point) -> Step {
    let mut max = f64::NEG_INFINITY;
    for t in terms.iter_mut() {
        let (g_lat, g_lon) = t.pull(x);
        let quad = (t.mu.lat - x.lat) * g_lat + (t.mu.lon - x.lon) * g_lon;
        t.log_term = t.log_peak - 0.5 * quad;
        max = max.max(t.log_term);
    }
    let (mut sum, mut a11, mut a12, mut a22) = (0.0, 0.0, 0.0, 0.0);
    let (mut b_lat, mut b_lon, mut c11, mut c12, mut c22) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for t in terms.iter() {
        let r = (t.log_term - max).exp();
        let (g_lat, g_lon) = t.pull(x);
        sum += r;
        a11 += r * t.l11;
        a12 += r * t.l12;
        a22 += r * t.l22;
        b_lat += r * g_lat;
        b_lon += r * g_lon;
        c11 += r * g_lat * g_lat;
        c12 += r * g_lat * g_lon;
        c22 += r * g_lon * g_lon;
    }
    let b = (b_lat, b_lon);
    let m11 = a11 - c11 + b_lat * b_lat / sum;
    let m12 = a12 - c12 + b_lat * b_lon / sum;
    let m22 = a22 - c22 + b_lon * b_lon / sum;
    let concave = m11 > 0.0 && m11 * m22 - m12 * m12 > 0.0;
    Step {
        log_density: max + sum.ln(),
        fixed_point: solve2(a11, a12, a22, b),
        newton: concave.then(|| solve2(m11, m12, m22, b)),
    }
}

/// Climbs from `x` to the mode of its basin; returns the endpoint and its
/// log density.
///
/// Each iterate takes the Newton step where `ln p` is concave, and the
/// fixed-point step elsewhere. A Newton step that lowers the density is
/// replaced by the fixed-point step from the same iterate, which cannot.
fn climb(terms: &mut [ModeTerm], mut x: Point) -> (f64, Point) {
    // The last accepted iterate: its log density, position and fixed-point
    // step.
    let mut accepted: Option<(f64, Point, (f64, f64))> = None;
    let mut took_newton = false;
    for _ in 0..MODE_MAX_ITERS {
        let step = step_at(terms, x);
        if let Some((log_density, at, fixed_point)) = accepted {
            // Monotone guard: the fixed point never lowers the density in
            // exact arithmetic, so a fixed-point step that did (or produced
            // NaN) is undone and ends the climb; a Newton step that did is
            // retaken as the fixed-point step.
            if step.log_density.is_nan() || step.log_density < log_density - MODE_GUARD_SLACK {
                if !took_newton {
                    return (log_density, at);
                }
                x = Point::new(at.lat + fixed_point.0, at.lon + fixed_point.1);
                took_newton = false;
                continue;
            }
        }
        let (d_lat, d_lon) = step.newton.unwrap_or(step.fixed_point);
        if d_lat.abs().max(d_lon.abs()) <= MODE_TOL_DEG {
            return (step.log_density, x);
        }
        accepted = Some((step.log_density, x, step.fixed_point));
        took_newton = step.newton.is_some();
        x = Point::new(x.lat + d_lat, x.lon + d_lon);
    }
    accepted.map_or((f64::NEG_INFINITY, x), |(log_density, at, _)| (log_density, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bimodal() -> GaussianMixture {
        GaussianMixture::new(vec![
            (0.7, BivariateGaussian::isotropic(Point::new(40.70, -74.00), 0.01)),
            (0.3, BivariateGaussian::isotropic(Point::new(40.80, -73.90), 0.01)),
        ])
    }

    #[test]
    fn weights_normalize() {
        let m = GaussianMixture::new(vec![
            (2.0, BivariateGaussian::isotropic(Point::new(0.0, 0.0), 1.0)),
            (6.0, BivariateGaussian::isotropic(Point::new(1.0, 1.0), 1.0)),
        ]);
        assert!((m.weights()[0] - 0.25).abs() < 1e-12);
        assert!((m.weights()[1] - 0.75).abs() < 1e-12);
        assert!((m.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_panics() {
        let _ = GaussianMixture::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive finite sum")]
    fn zero_weights_panic() {
        let _ = GaussianMixture::new(vec![(
            0.0,
            BivariateGaussian::isotropic(Point::new(0.0, 0.0), 1.0),
        )]);
    }

    #[test]
    fn pdf_is_weighted_sum() {
        let m = bimodal();
        let p = Point::new(40.75, -73.95);
        let manual: f64 = m.iter().map(|(w, g)| w * g.pdf(&p)).sum();
        assert!((m.pdf(&p) - manual).abs() < 1e-12);
    }

    #[test]
    fn log_pdf_matches_pdf_and_survives_far_points() {
        let m = bimodal();
        let near = Point::new(40.71, -74.0);
        assert!((m.log_pdf(&near) - m.pdf(&near).ln()).abs() < 1e-9);
        // pdf underflows to 0 here, but log_pdf stays finite.
        let far = Point::new(0.0, 0.0);
        assert_eq!(m.pdf(&far), 0.0);
        assert!(m.log_pdf(&far).is_finite());
        assert!(m.log_pdf(&far) < -1000.0);
    }

    #[test]
    fn mode_finds_heaviest_peak() {
        let m = bimodal();
        let mode = m.mode();
        assert!(mode.haversine_km(&Point::new(40.70, -74.00)) < 0.2, "mode {mode:?}");
    }

    #[test]
    fn mode_of_single_gaussian_is_its_mean() {
        let g = BivariateGaussian::new(Point::new(34.05, -118.24), 0.05, 0.02, 0.4);
        let m = GaussianMixture::single(g);
        let mode = m.mode();
        assert!(mode.haversine_km(&g.mu) < 0.05, "mode {mode:?}");
    }

    #[test]
    fn mode_handles_overlapping_components() {
        // Two equal components very close: the mode sits between them.
        let m = GaussianMixture::new(vec![
            (0.5, BivariateGaussian::isotropic(Point::new(40.0, -74.0), 0.1)),
            (0.5, BivariateGaussian::isotropic(Point::new(40.05, -74.0), 0.1)),
        ]);
        let mode = m.mode();
        assert!(mode.lat > 39.99 && mode.lat < 40.06, "mode {mode:?}");
    }

    #[test]
    fn sample_respects_weights() {
        let m = bimodal();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 30_000;
        let near_first = (0..n)
            .filter(|_| m.sample(&mut rng).haversine_km(&Point::new(40.70, -74.00)) < 5.0)
            .count() as f64
            / n as f64;
        assert!((near_first - 0.7).abs() < 0.02, "got {near_first}");
    }

    #[test]
    fn mass_within_km_brackets() {
        let m = bimodal();
        let mut rng = StdRng::seed_from_u64(1);
        let center = Point::new(40.70, -74.00);
        let tight = m.mass_within_km(&center, 3.0, 4000, &mut rng);
        let loose = m.mass_within_km(&center, 30.0, 4000, &mut rng);
        assert!((tight - 0.7).abs() < 0.05, "tight {tight}");
        assert!(loose > 0.98, "loose {loose}");
    }

    #[test]
    fn dominant_component_and_entropy() {
        let m = bimodal();
        assert_eq!(m.dominant_component().0, 0);
        let uniform = GaussianMixture::new(vec![
            (1.0, BivariateGaussian::isotropic(Point::new(0.0, 0.0), 1.0)),
            (1.0, BivariateGaussian::isotropic(Point::new(1.0, 1.0), 1.0)),
        ]);
        assert!((uniform.weight_entropy() - (2.0f64).ln()).abs() < 1e-12);
        assert!(m.weight_entropy() < uniform.weight_entropy());
        assert_eq!(GaussianMixture::single(m.components()[0]).weight_entropy(), 0.0);
    }

    #[test]
    fn mixture_mean_is_weighted_mean() {
        let m = bimodal();
        let mean = m.mean();
        assert!((mean.lat - (0.7 * 40.70 + 0.3 * 40.80)).abs() < 1e-12);
    }
}
