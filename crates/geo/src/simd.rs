//! Runtime-detected AVX2+FMA vector kernels for the geographic hot path:
//! batched haversine distances.
//!
//! Unlike the `edge-tensor` kernels — which are bit-for-bit identical to
//! their scalar references — this kernel is **accuracy-gated, not
//! bitwise**: the scalar path calls libm (`sin`, `cos`, `asin`) element by
//! element, so a vector replacement necessarily evaluates its own
//! polynomials. The polynomial design below keeps the drift far under the
//! gates the property tests assert (per-pair distance drift ≤ 1e-9 km;
//! end-to-end `mean_km` drift ≤ 1e-6 km):
//!
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
//! Near-antipodal pairs, where `asin(√a)` would amplify the polynomials'
//! rounding past the gate, take their half-angle from the distance to the
//! antipode instead, computed in the same vector pass (see
//! [`Point::haversine_km`], which applies the same rule), so every pair of
//! a full group of four stays on the vector path.
//!
//! Detection is shared with `edge-tensor` through `edge-par`: one cached
//! `is_x86_feature_detected!` probe, one `EDGE_NO_SIMD` escape hatch, and
//! one scoped [`with_scalar_kernels`] override for A/B tests that pool
//! workers inherit from the submitting thread. With SIMD off, every caller
//! runs the untouched scalar code.

use crate::point::{Point, ANTIPODE_IDENTITY_FROM};

pub use edge_par::{simd_active, simd_available, with_scalar_kernels};

/// Haversine distances for a batch of `(predicted, truth)` pairs, in km.
///
/// With the vector kernels active the degree→radian conversion, the
/// `sin`/`cos` evaluations and the haversine algebra run four pairs at a
/// time; the final half-angle is one scalar libm `asin` per pair, taken
/// either of `√a` or, from `√a = 0.8`, of the antipode term as
/// [`Point::haversine_km`] takes it. Without them this is exactly the
/// scalar [`Point::haversine_km`] map.
pub fn haversine_km_batch(pairs: &[(Point, Point)]) -> Vec<f64> {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        let mut out = vec![0.0; pairs.len()];
        let groups = pairs.chunks_exact(4);
        let tail = groups.remainder();
        for (o, group) in out.chunks_exact_mut(4).zip(groups) {
            // SAFETY: `simd_active()` verified AVX2+FMA; the group holds
            // exactly four pairs.
            let (args, far) = unsafe { avx2::haversine4_asin_args(group) };
            for (lane, (o, arg)) in o.iter_mut().zip(args).enumerate() {
                let s = arg.asin();
                let half_angle =
                    if far & (1 << lane) != 0 { std::f64::consts::FRAC_PI_2 - s } else { s };
                *o = 2.0 * crate::EARTH_RADIUS_KM * half_angle;
            }
        }
        let done = pairs.len() - tail.len();
        for (o, (p, t)) in out[done..].iter_mut().zip(tail) {
            *o = p.haversine_km(t);
        }
        return out;
    }
    pairs.iter().map(|(p, t)| p.haversine_km(t)).collect()
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use crate::point::Point;

    const ROUND_NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

    /// Splits a `std` constant into a 32-bit-mantissa head (whose products
    /// with small integers are exact) and the residual tail.
    fn split(c: f64) -> (f64, f64) {
        let hi = f64::from_bits(c.to_bits() & 0xFFFF_FFFF_0000_0000);
        (hi, c - hi)
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
        sincos4(x).0
    }

    /// cos(x) per lane for |x| ≤ π.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cos4(x: __m256d) -> __m256d {
        sincos4(x).1
    }

    /// `(sin x, cos x)` per lane for |x| ≤ π, from one reduction.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sincos4(x: __m256d) -> (__m256d, __m256d) {
        let (y, j) = reduce_pi2(x);
        let w = _mm256_mul_pd(y, y);
        let (s, c) = (sin_poly(y, w), cos_poly(w));
        let odd = bit_mask(j, 1);
        // sin(y + jπ/2) flips sign when j ≡ 2, 3 (mod 4); cos when j ≡ 1, 2.
        let sin_sign = _mm256_and_pd(bit_mask(j, 2), _mm256_set1_pd(-0.0));
        let j1 = _mm256_add_epi64(j, _mm256_set1_epi64x(1));
        let cos_sign = _mm256_and_pd(bit_mask(j1, 2), _mm256_set1_pd(-0.0));
        (
            _mm256_xor_pd(_mm256_blendv_pd(s, c, odd), sin_sign),
            _mm256_xor_pd(_mm256_blendv_pd(c, s, odd), cos_sign),
        )
    }

    /// The vector passes of the haversine for four pairs: deg→rad, the trig
    /// evaluations, and both `a = hav θ` and the antipode term
    /// `1 − a = sin²((φ₁+φ₂)/2) + cos φ₁ cos φ₂ cos²(Δλ/2)`. Returns each
    /// pair's `asin` argument — `√a`, or `√(1 − a)` where `√a` reaches
    /// [`super::ANTIPODE_IDENTITY_FROM`], both clamped to 1 — and a bit mask
    /// of the pairs that took the second, whose half-angle is
    /// `π/2 − asin(arg)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (guaranteed by the [`super::simd_active`] gate) and
    /// exactly four pairs.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn haversine4_asin_args(pairs: &[(Point, Point)]) -> ([f64; 4], u32) {
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
        let one = _mm256_set1_pd(1.0);
        let sdlat = sin4(_mm256_mul_pd(_mm256_sub_pd(lat2, lat1), half));
        let ssum = sin4(_mm256_mul_pd(_mm256_add_pd(lat1, lat2), half));
        let (sdlon, cdlon) = sincos4(_mm256_mul_pd(_mm256_sub_pd(lon2, lon1), half));
        let coscos = _mm256_mul_pd(cos4(lat1), cos4(lat2));
        let a = _mm256_fmadd_pd(_mm256_mul_pd(coscos, sdlon), sdlon, _mm256_mul_pd(sdlat, sdlat));
        let b = _mm256_fmadd_pd(_mm256_mul_pd(coscos, cdlon), cdlon, _mm256_mul_pd(ssum, ssum));
        let root_a = _mm256_min_pd(_mm256_sqrt_pd(a), one);
        let root_b = _mm256_min_pd(_mm256_sqrt_pd(b), one);
        let cut = _mm256_set1_pd(super::ANTIPODE_IDENTITY_FROM);
        let far = _mm256_cmp_pd::<_CMP_GE_OQ>(root_a, cut);
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), _mm256_blendv_pd(root_a, root_b, far));
        (out, _mm256_movemask_pd(far) as u32)
    }
}
