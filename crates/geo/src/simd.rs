//! Runtime-detected AVX2+FMA vector kernels for the geographic hot path:
//! batched haversine distances and Gaussian-mixture density evaluation.
//!
//! Unlike the `edge-tensor` kernels — which are bit-for-bit identical to
//! their scalar references — these kernels are **accuracy-gated, not
//! bitwise**: the scalar path calls libm (`exp`, `sin`, `cos`, `asin`)
//! element by element, so a vector replacement necessarily evaluates its own
//! polynomials. The polynomial designs below keep the drift far under the
//! gates the property tests assert (relative density drift and per-pair
//! distance drift ≤ 1e-9; end-to-end `mean_km` drift ≤ 1e-6 km):
//!
//! * `exp4` — `exp(x) = 2^k · exp(r)` with `r = x − k·ln 2` computed against
//!   a hi/lo split of `LN_2`, and `exp(r)` a degree-13 Taylor polynomial
//!   (|r| ≤ ln2/2 puts the truncation error near 4e-18 relative).
//! * `sin4` / `cos4` — quadrant reduction `y = x − j·π/2` (hi/lo split of
//!   `FRAC_PI_2`; haversine arguments satisfy |x| ≤ π so j ∈ [−2, 2]) and
//!   degree-13/14 Taylor polynomials on |y| ≤ π/4 (truncation ≲ 3e-14).
//!
//! Every polynomial coefficient is an exact small-integer reciprocal
//! (`1.0 / 5040.0`, …) or a `std::f64::consts` value — nothing is a
//! transcribed decimal — so the accuracy property tests in
//! `tests/simd_accuracy.rs` are a real check of the algorithm, not of a
//! constant table. The final `asin` of the haversine stays scalar libm: it
//! runs once per pair, after the vector passes have done the heavy lifting.
//!
//! Detection is shared with `edge-tensor` through `edge-par`: one cached
//! `is_x86_feature_detected!` probe, one `EDGE_NO_SIMD` escape hatch, and
//! one scoped [`with_scalar_kernels`] override for A/B tests that pool
//! workers inherit from the submitting thread. With SIMD off, every caller
//! runs the untouched scalar code.

use crate::point::Point;

pub use edge_par::{simd_active, simd_available, with_scalar_kernels};

/// Haversine distances for a batch of `(predicted, truth)` pairs, in km.
///
/// With the vector kernels active the degree→radian conversion, the
/// `sin`/`cos` evaluations and the haversine algebra run four pairs at a
/// time; the final `2R·asin(√a)` is one scalar libm call per pair. Without
/// them this is exactly the scalar [`Point::haversine_km`] map.
pub fn haversine_km_batch(pairs: &[(Point, Point)]) -> Vec<f64> {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        let mut out = vec![0.0; pairs.len()];
        let mut i = 0;
        while i + 4 <= pairs.len() {
            let asin_arg = unsafe { avx2::haversine4_asin_arg(&pairs[i..i + 4]) };
            for (o, arg) in out[i..i + 4].iter_mut().zip(asin_arg) {
                *o = 2.0 * crate::EARTH_RADIUS_KM * arg.asin();
            }
            i += 4;
        }
        for (o, (p, t)) in out[i..].iter_mut().zip(&pairs[i..]) {
            *o = p.haversine_km(t);
        }
        return out;
    }
    pairs.iter().map(|(p, t)| p.haversine_km(t)).collect()
}

/// Offsets of the structure-of-arrays fields inside [`MixtureEval`]'s flat
/// buffer, each a `lanes`-long block: weight, μ_lat, μ_lon, 1/σ₁, 1/σ₂, ρ,
/// 1/(1−ρ²), and the log normalizer of each component.
#[cfg(target_arch = "x86_64")]
mod field {
    pub const W: usize = 0;
    pub const MLAT: usize = 1;
    pub const MLON: usize = 2;
    pub const IS1: usize = 3;
    pub const IS2: usize = 4;
    pub const RHO: usize = 5;
    pub const IMR: usize = 6;
    pub const LNORM: usize = 7;
    pub const COUNT: usize = 8;
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Recycled SoA buffer so steady-state `mode()` calls allocate nothing.
    /// `Cell` take/put instead of `RefCell` keeps nested evaluators safe.
    static EVAL_SCRATCH: std::cell::Cell<Option<Vec<f64>>> =
        const { std::cell::Cell::new(None) };
}

/// A structure-of-arrays view of a [`crate::GaussianMixture`] for the
/// vectorized mode search: per-component parameters are laid out field-major
/// (zero-weight-padded to a multiple of 4 lanes) with the log normalizer
/// precomputed once, instead of re-deriving `ln(2π σ₁ σ₂ √(1−ρ²))` on every
/// density query as the scalar path does.
///
/// Exposed (hidden) so the accuracy property tests can compare it against
/// the scalar evaluator directly; production code reaches it only through
/// `GaussianMixture::mode`.
#[doc(hidden)]
pub struct MixtureEval {
    #[cfg(target_arch = "x86_64")]
    buf: Vec<f64>,
    #[cfg(target_arch = "x86_64")]
    lanes: usize,
}

#[cfg(target_arch = "x86_64")]
impl MixtureEval {
    /// Builds the SoA view, or `None` when the vector kernels are inactive
    /// (the caller then keeps its scalar path).
    pub fn new(mix: &crate::GaussianMixture) -> Option<Self> {
        if !simd_active() {
            return None;
        }
        let m = mix.len();
        let lanes = m.div_ceil(4) * 4;
        let mut buf = EVAL_SCRATCH.with(|c| c.take()).unwrap_or_default();
        buf.clear();
        buf.resize(field::COUNT * lanes, 0.0);
        // Benign padding: weight 0 kills the padded lanes, and unit σ with
        // ρ = 0 keeps their (discarded) intermediate math finite.
        for l in m..lanes {
            buf[field::IS1 * lanes + l] = 1.0;
            buf[field::IS2 * lanes + l] = 1.0;
            buf[field::IMR * lanes + l] = 1.0;
        }
        for (k, (w, g)) in mix.iter().enumerate() {
            let one_m_r2 = 1.0 - g.rho * g.rho;
            buf[field::W * lanes + k] = w;
            buf[field::MLAT * lanes + k] = g.mu.lat;
            buf[field::MLON * lanes + k] = g.mu.lon;
            buf[field::IS1 * lanes + k] = 1.0 / g.sigma_lat;
            buf[field::IS2 * lanes + k] = 1.0 / g.sigma_lon;
            buf[field::RHO * lanes + k] = g.rho;
            buf[field::IMR * lanes + k] = 1.0 / one_m_r2;
            buf[field::LNORM * lanes + k] =
                -(2.0 * std::f64::consts::PI * g.sigma_lat * g.sigma_lon * one_m_r2.sqrt()).ln();
        }
        Some(Self { buf, lanes })
    }

    /// Mixture density at `p` (the vector analogue of Eq. 6).
    pub fn pdf(&self, p: &Point) -> f64 {
        unsafe { avx2::mixture_pdf(&self.buf, self.lanes, p.lat, p.lon) }
    }

    /// Weight-summed density gradient at `p`, `(Σ wₖ ∂pdfₖ/∂lat, …∂lon)` —
    /// the quantity the Eq.-14 gradient ascent consumes per step.
    pub fn grad(&self, p: &Point) -> (f64, f64) {
        unsafe { avx2::mixture_grad(&self.buf, self.lanes, p.lat, p.lon) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Drop for MixtureEval {
    fn drop(&mut self) {
        EVAL_SCRATCH.with(|c| c.set(Some(std::mem::take(&mut self.buf))));
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl MixtureEval {
    pub fn new(_mix: &crate::GaussianMixture) -> Option<Self> {
        None
    }

    pub fn pdf(&self, _p: &Point) -> f64 {
        unreachable!("MixtureEval cannot be constructed on this architecture")
    }

    pub fn grad(&self, _p: &Point) -> (f64, f64) {
        unreachable!("MixtureEval cannot be constructed on this architecture")
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::field;
    use crate::point::Point;

    const ROUND_NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

    /// Splits a `std` constant into a 32-bit-mantissa head (whose products
    /// with small integers are exact) and the residual tail.
    fn split(c: f64) -> (f64, f64) {
        let hi = f64::from_bits(c.to_bits() & 0xFFFF_FFFF_0000_0000);
        (hi, c - hi)
    }

    /// Sums the four lanes of a vector.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi);
        let h = _mm_unpackhi_pd(s, s);
        _mm_cvtsd_f64(_mm_add_sd(s, h))
    }

    /// `exp(x)` per lane: `2^k · P(x − k·ln 2)` with a degree-13 Taylor
    /// polynomial. Inputs are clamped to ±[708, 709] (beyond which the
    /// result saturates to 0 / the largest finite scale; mixture
    /// log-densities never reach the upper clamp).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: __m256d) -> __m256d {
        let (ln2_hi, ln2_lo) = split(std::f64::consts::LN_2);
        let x = _mm256_max_pd(_mm256_min_pd(x, _mm256_set1_pd(709.0)), _mm256_set1_pd(-708.0));
        let k = _mm256_round_pd::<ROUND_NEAREST>(_mm256_mul_pd(
            x,
            _mm256_set1_pd(std::f64::consts::LOG2_E),
        ));
        let r = _mm256_fnmadd_pd(k, _mm256_set1_pd(ln2_hi), x);
        let r = _mm256_fnmadd_pd(k, _mm256_set1_pd(ln2_lo), r);
        // exp(r) = 1 + r + r²/2! + … + r¹³/13!, Horner inward-out.
        let mut p = _mm256_set1_pd(1.0 / 6_227_020_800.0); // 1/13!
        for c in [
            1.0 / 479_001_600.0, // 1/12!
            1.0 / 39_916_800.0,  // 1/11!
            1.0 / 3_628_800.0,   // 1/10!
            1.0 / 362_880.0,     // 1/9!
            1.0 / 40_320.0,      // 1/8!
            1.0 / 5_040.0,       // 1/7!
            1.0 / 720.0,         // 1/6!
            1.0 / 120.0,         // 1/5!
            1.0 / 24.0,          // 1/4!
            1.0 / 6.0,           // 1/3!
            1.0 / 2.0,           // 1/2!
            1.0,
            1.0,
        ] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c));
        }
        // 2^k via direct exponent-field construction (k ∈ [−1022, 1023]
        // after the input clamp, so the biased exponent stays normal).
        let ki = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
        let scale = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
            ki,
            _mm256_set1_epi64x(1023),
        )));
        _mm256_mul_pd(p, scale)
    }

    /// Quadrant reduction: returns `(y, j)` with `x = y + j·π/2`,
    /// |y| ≤ π/4. Valid for the haversine range |x| ≤ π (j ∈ [−2, 2]).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce_pi2(x: __m256d) -> (__m256d, __m256i) {
        let (p2_hi, p2_lo) = split(std::f64::consts::FRAC_PI_2);
        let j = _mm256_round_pd::<ROUND_NEAREST>(_mm256_mul_pd(
            x,
            _mm256_set1_pd(std::f64::consts::FRAC_2_PI),
        ));
        let y = _mm256_fnmadd_pd(j, _mm256_set1_pd(p2_hi), x);
        let y = _mm256_fnmadd_pd(j, _mm256_set1_pd(p2_lo), y);
        (y, _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(j)))
    }

    /// sin(y) for |y| ≤ π/4: `y + y³·Q(y²)`, degree 13.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin_poly(y: __m256d, w: __m256d) -> __m256d {
        let mut q = _mm256_set1_pd(1.0 / 6_227_020_800.0); // 1/13!
        for c in [
            -1.0 / 39_916_800.0, // −1/11!
            1.0 / 362_880.0,     // 1/9!
            -1.0 / 5_040.0,      // −1/7!
            1.0 / 120.0,         // 1/5!
            -1.0 / 6.0,          // −1/3!
        ] {
            q = _mm256_fmadd_pd(q, w, _mm256_set1_pd(c));
        }
        _mm256_fmadd_pd(_mm256_mul_pd(y, w), q, y)
    }

    /// cos(y) for |y| ≤ π/4: `1 + y²·Q(y²)`, degree 14.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cos_poly(w: __m256d) -> __m256d {
        let mut q = _mm256_set1_pd(-1.0 / 87_178_291_200.0); // −1/14!
        for c in [
            1.0 / 479_001_600.0, // 1/12!
            -1.0 / 3_628_800.0,  // −1/10!
            1.0 / 40_320.0,      // 1/8!
            -1.0 / 720.0,        // −1/6!
            1.0 / 24.0,          // 1/4!
            -1.0 / 2.0,          // −1/2!
        ] {
            q = _mm256_fmadd_pd(q, w, _mm256_set1_pd(c));
        }
        _mm256_fmadd_pd(w, q, _mm256_set1_pd(1.0))
    }

    /// Lane mask selecting lanes where `j & bit` is set.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bit_mask(j: __m256i, bit: i64) -> __m256d {
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(j, _mm256_set1_epi64x(bit)),
            _mm256_set1_epi64x(bit),
        ))
    }

    /// sin(x) per lane for |x| ≤ π.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sin4(x: __m256d) -> __m256d {
        let (y, j) = reduce_pi2(x);
        let w = _mm256_mul_pd(y, y);
        let res = _mm256_blendv_pd(sin_poly(y, w), cos_poly(w), bit_mask(j, 1));
        // sin(y + jπ/2) flips sign when j ≡ 2, 3 (mod 4).
        let sign = _mm256_and_pd(bit_mask(j, 2), _mm256_set1_pd(-0.0));
        _mm256_xor_pd(res, sign)
    }

    /// cos(x) per lane for |x| ≤ π.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cos4(x: __m256d) -> __m256d {
        let (y, j) = reduce_pi2(x);
        let w = _mm256_mul_pd(y, y);
        let res = _mm256_blendv_pd(cos_poly(w), sin_poly(y, w), bit_mask(j, 1));
        // cos(y + jπ/2) flips sign when j ≡ 1, 2 (mod 4).
        let j1 = _mm256_add_epi64(j, _mm256_set1_epi64x(1));
        let sign = _mm256_and_pd(bit_mask(j1, 2), _mm256_set1_pd(-0.0));
        _mm256_xor_pd(res, sign)
    }

    /// The vector passes of the haversine for four pairs: deg→rad, the four
    /// trig evaluations, the `a`-term algebra, and `√a` clamped to 1.
    /// Returns the per-pair `asin` argument; the caller applies the scalar
    /// `2R·asin` finish.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (guaranteed by the [`super::simd_active`] gate) and
    /// exactly four pairs.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn haversine4_asin_arg(pairs: &[(Point, Point)]) -> [f64; 4] {
        debug_assert_eq!(pairs.len(), 4);
        let rad = _mm256_set1_pd(std::f64::consts::PI / 180.0);
        let pick = |f: fn(&(Point, Point)) -> f64| {
            _mm256_mul_pd(
                _mm256_setr_pd(f(&pairs[0]), f(&pairs[1]), f(&pairs[2]), f(&pairs[3])),
                rad,
            )
        };
        let lat1 = pick(|p| p.0.lat);
        let lon1 = pick(|p| p.0.lon);
        let lat2 = pick(|p| p.1.lat);
        let lon2 = pick(|p| p.1.lon);
        let half = _mm256_set1_pd(0.5);
        let sdlat = sin4(_mm256_mul_pd(_mm256_sub_pd(lat2, lat1), half));
        let sdlon = sin4(_mm256_mul_pd(_mm256_sub_pd(lon2, lon1), half));
        let coscos = _mm256_mul_pd(cos4(lat1), cos4(lat2));
        let a = _mm256_fmadd_pd(_mm256_mul_pd(coscos, sdlon), sdlon, _mm256_mul_pd(sdlat, sdlat));
        let arg = _mm256_min_pd(_mm256_sqrt_pd(a), _mm256_set1_pd(1.0));
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), arg);
        out
    }

    /// Per-chunk mixture intermediates shared by the pdf and gradient
    /// kernels: scaled offsets, densities, and the SoA field loads.
    struct Lanes {
        w: __m256d,
        dxs: __m256d,
        dys: __m256d,
        rho: __m256d,
        is1: __m256d,
        is2: __m256d,
        imr: __m256d,
        dens: __m256d,
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load_lanes(buf: &[f64], lanes: usize, c: usize, lat: f64, lon: f64) -> Lanes {
        let at = |f: usize| _mm256_loadu_pd(buf.as_ptr().add(f * lanes + c));
        let is1 = at(field::IS1);
        let is2 = at(field::IS2);
        let rho = at(field::RHO);
        let imr = at(field::IMR);
        let dxs = _mm256_mul_pd(_mm256_sub_pd(_mm256_set1_pd(lat), at(field::MLAT)), is1);
        let dys = _mm256_mul_pd(_mm256_sub_pd(_mm256_set1_pd(lon), at(field::MLON)), is2);
        // mahalanobis² = (dxs² − 2ρ·dxs·dys + dys²) / (1 − ρ²)
        let cross = _mm256_mul_pd(_mm256_mul_pd(rho, dxs), dys);
        let quad = _mm256_sub_pd(
            _mm256_fmadd_pd(dxs, dxs, _mm256_mul_pd(dys, dys)),
            _mm256_add_pd(cross, cross),
        );
        let logp =
            _mm256_fnmadd_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(quad, imr), at(field::LNORM));
        Lanes { w: at(field::W), dxs, dys, rho, is1, is2, imr, dens: exp4(logp) }
    }

    /// Mixture density `Σ wₖ·pdfₖ(p)` over the SoA buffer.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and a buffer laid out by `MixtureEval::new`
    /// (`field::COUNT` blocks of `lanes` f64s, `lanes` a multiple of 4).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mixture_pdf(buf: &[f64], lanes: usize, lat: f64, lon: f64) -> f64 {
        let mut acc = _mm256_setzero_pd();
        let mut c = 0;
        while c < lanes {
            let l = load_lanes(buf, lanes, c, lat, lon);
            acc = _mm256_fmadd_pd(l.w, l.dens, acc);
            c += 4;
        }
        hsum(acc)
    }

    /// Weight-summed density gradient `(Σ wₖ ∂pdfₖ/∂lat, Σ wₖ ∂pdfₖ/∂lon)`.
    ///
    /// # Safety
    ///
    /// Same contract as [`mixture_pdf`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn mixture_grad(buf: &[f64], lanes: usize, lat: f64, lon: f64) -> (f64, f64) {
        let mut acc_lat = _mm256_setzero_pd();
        let mut acc_lon = _mm256_setzero_pd();
        let mut c = 0;
        while c < lanes {
            let l = load_lanes(buf, lanes, c, lat, lon);
            let wd = _mm256_mul_pd(l.w, l.dens);
            // ∂/∂lat of −½·mahal² = −(dxs − ρ·dys)·(1/σ₁)/(1−ρ²), and
            // symmetrically for lon; fnmadd supplies the leading minus.
            let glat =
                _mm256_mul_pd(_mm256_mul_pd(_mm256_fnmadd_pd(l.rho, l.dys, l.dxs), l.is1), l.imr);
            let glon =
                _mm256_mul_pd(_mm256_mul_pd(_mm256_fnmadd_pd(l.rho, l.dxs, l.dys), l.is2), l.imr);
            acc_lat = _mm256_fnmadd_pd(glat, wd, acc_lat);
            acc_lon = _mm256_fnmadd_pd(glon, wd, acc_lon);
            c += 4;
        }
        (hsum(acc_lat), hsum(acc_lon))
    }
}
