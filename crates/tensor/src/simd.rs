//! Runtime-detected AVX2 microkernels for the dense and sparse hot paths.
//!
//! The scalar kernels in [`crate::matrix`] and [`crate::sparse`] stay as the
//! reference implementation; this module adds `std::arch` AVX2 equivalents
//! behind one-time feature detection:
//!
//! * **Detection, cached.** [`simd_available`] reads `EDGE_NO_SIMD` and
//!   `is_x86_feature_detected!` exactly once per process. [`simd_active`]
//!   additionally honors the scoped [`with_scalar_kernels`] override the
//!   parity tests sweep (mirroring `edge_par::with_max_threads`). All three
//!   live in `edge-par`, which carries the override to every pool worker of
//!   a region; they are re-exported here under their historical paths.
//! * **Determinism contract.** On the deterministic paths (dense matmul,
//!   spmm) every output element accumulates in ascending-`k` / ascending-
//!   entry order with *separate* mul and add — FMA would fuse the rounding
//!   step and diverge from the scalar reference — and a zero `A` entry skips
//!   the update exactly like the scalar kernel's `a == 0.0` branch (the
//!   `-0.0 + 0.0` edge case makes skip-vs-no-skip observable bitwise). The
//!   SIMD kernels are therefore bit-for-bit identical to scalar, which the
//!   property tests in `tests/parallel.rs` assert.
//! * **Zero-allocation packing.** The matmul packs `B` into panel-major
//!   strips through a thread-local scratch buffer that is taken and returned
//!   around each product (`Cell<Option<Vec<f32>>>`), so the steady-state
//!   train loop stays at zero heap allocations per batch once the buffer has
//!   grown to its working-set size.

use std::cell::Cell;

/// Column width of one packed panel / register tile: two 8-lane AVX vectors.
pub(crate) const TILE_COLS: usize = 16;

/// Output rows per register tile. Must equal `matrix::MATMUL_ROW_BLOCK` so a
/// pool chunk (one row block) is exactly one tile row-group and partitioning
/// can never split a tile.
pub(crate) const TILE_ROWS: usize = 4;
const _: () = assert!(TILE_ROWS == crate::matrix::MATMUL_ROW_BLOCK);

/// Minimum right-hand width for the vector kernels to beat scalar; below it
/// the masked tail dominates the work.
const MIN_SIMD_COLS: usize = 8;

/// `A` row count above which packing `B` amortizes: below it the product is
/// too short to repay the `O(k·m)` pack pass and the kernel streams `B`
/// directly with strided (masked at the tail) loads.
const PACK_MIN_ROWS: usize = 8;

pub use edge_par::{simd_active, simd_available, with_scalar_kernels};

thread_local! {
    /// Reusable `B`-packing buffer. `Cell` take/put rather than `RefCell`: if
    /// a nested kernel ever re-enters while a pack is live it allocates a
    /// fresh buffer instead of panicking, and the steady-state train loop
    /// performs zero allocations once the buffer reaches its working-set
    /// capacity (asserted by the `zero_alloc` test, which runs with SIMD on).
    static PACK_SCRATCH: Cell<Option<Vec<f32>>> = const { Cell::new(None) };
}

/// How the matmul kernel reads `B`.
#[derive(Clone, Copy)]
enum BPanels<'a> {
    /// Panel-major packed copy (`⌈m/16⌉ × k × TILE_COLS`, tail panel
    /// zero-padded): every kernel load is a contiguous unmasked 16-float
    /// strip regardless of `m`.
    Packed(&'a [f32]),
    /// The original row-major `B` (`k × m`), streamed with stride-`m` loads
    /// (masked at the column tail). Used when `A` has too few rows to
    /// amortize a pack — e.g. the 1-row serving matmuls.
    Direct(&'a [f32]),
}

/// Owns the pack scratch for the duration of one product and returns it to
/// the thread-local slot afterwards.
struct PackGuard {
    buf: Vec<f32>,
}

impl PackGuard {
    /// Packs `b` (`k × m` row-major) into zero-padded panel-major panels.
    fn pack(b: &[f32], k: usize, m: usize) -> Self {
        let mut buf = PACK_SCRATCH.with(Cell::take).unwrap_or_default();
        let panels = m.div_ceil(TILE_COLS);
        buf.clear();
        buf.resize(panels * k * TILE_COLS, 0.0);
        for p in 0..panels {
            let j0 = p * TILE_COLS;
            let w = TILE_COLS.min(m - j0);
            let dst = &mut buf[p * k * TILE_COLS..(p + 1) * k * TILE_COLS];
            for kk in 0..k {
                dst[kk * TILE_COLS..kk * TILE_COLS + w]
                    .copy_from_slice(&b[kk * m + j0..kk * m + j0 + w]);
            }
        }
        PackGuard { buf }
    }
}

impl Drop for PackGuard {
    fn drop(&mut self) {
        PACK_SCRATCH.with(|c| c.set(Some(std::mem::take(&mut self.buf))));
    }
}

/// Runs `out = a × b` (`out` pre-zeroed, `n×k` times `k×m`) with the AVX2
/// microkernels, parallelized over the same `TILE_ROWS`-row chunks as the
/// scalar path. Returns `false` — leaving `out` untouched — when SIMD is
/// inactive or the shape is too narrow to benefit, in which case the caller
/// falls back to the scalar reference kernel.
#[cfg(target_arch = "x86_64")]
pub(crate) fn matmul_into_simd(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
    parallel: bool,
) -> bool {
    if !simd_active() || m < MIN_SIMD_COLS {
        return false;
    }
    edge_obs::counter!("tensor.matmul.simd").inc(1);
    let guard;
    let panels = if n >= PACK_MIN_ROWS {
        guard = PackGuard::pack(b, k, m);
        BPanels::Packed(&guard.buf)
    } else {
        BPanels::Direct(b)
    };
    let work = |block_idx: usize, out_block: &mut [f32]| {
        let row0 = block_idx * TILE_ROWS;
        let rows_here = out_block.len() / m;
        // SAFETY: `simd_active()` verified AVX2+FMA support above, on the
        // submitting thread, before any dispatch.
        unsafe { avx2::matmul_block(&a[row0 * k..], rows_here, k, panels, out_block, m) };
    };
    if parallel {
        // Each claim covers at least two row blocks: the AVX2 kernel clears
        // a block ~4x faster than scalar, so per-claim cursor traffic would
        // otherwise double its relative cost.
        edge_par::parallel_for_chunks_mut_grained(out, TILE_ROWS * m, 2, work);
    } else {
        out.chunks_mut(TILE_ROWS * m).enumerate().for_each(|(i, block)| work(i, block));
    }
    true
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn matmul_into_simd(
    _a: &[f32],
    _b: &[f32],
    _out: &mut [f32],
    _n: usize,
    _k: usize,
    _m: usize,
    _parallel: bool,
) -> bool {
    false
}

/// True when [`spmm_row_simd`] should be used for a product with `m` output
/// columns. Capture the result on the submitting thread before dispatch.
pub(crate) fn spmm_simd_active(m: usize) -> bool {
    simd_active() && m >= MIN_SIMD_COLS
}

/// Accumulates one spmm output row: `out_row[j] = Σ vals[i] · dense[cols[i]][j]`
/// in ascending entry order, bit-identical to the scalar gather loop.
///
/// # Safety
/// AVX2 must be available — guaranteed by a true [`spmm_simd_active`] checked
/// by the caller on the submitting thread. `cols` must index valid rows of
/// `dense` (a `· × m` row-major matrix) and `out_row` must be `m` long.
#[cfg(target_arch = "x86_64")]
pub(crate) unsafe fn spmm_row_simd(
    cols: &[usize],
    vals: &[f32],
    dense: &[f32],
    m: usize,
    out_row: &mut [f32],
) {
    avx2::spmm_row(cols, vals, dense.as_ptr(), m, out_row);
}

/// # Safety
/// Never called: [`spmm_simd_active`] is always false off x86_64.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn spmm_row_simd(
    _cols: &[usize],
    _vals: &[f32],
    _dense: &[f32],
    _m: usize,
    _out_row: &mut [f32],
) {
    unreachable!("SIMD kernels are only compiled for x86_64");
}

/// `y[i] += alpha · x[i]` — the attention-aggregation primitive (Eq. 4 of
/// the paper: accumulating weighted entity rows into the tweet embedding).
///
/// Bit-identical to the scalar loop on every path: each element performs the
/// same single unfused mul + add whether it runs in a ymm lane or not, so
/// unlike the matmul there is no ordering concern at all.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() && x.len() >= 8 {
        // SAFETY: `simd_active()` verified AVX2 support on this thread.
        unsafe { avx2::axpy(alpha, x, y) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{BPanels, TILE_COLS};

    /// Lane-enable masks for `_mm256_maskload_ps` / `_mm256_maskstore_ps`:
    /// `MASKS[l]` enables the first `l` of 8 lanes.
    static MASKS: [[i32; 8]; 9] = {
        let mut masks = [[0i32; 8]; 9];
        let mut lanes = 1;
        while lanes <= 8 {
            let mut lane = 0;
            while lane < lanes {
                masks[lanes][lane] = -1;
                lane += 1;
            }
            lanes += 1;
        }
        masks
    };

    #[inline]
    unsafe fn mask(lanes: usize) -> __m256i {
        _mm256_loadu_si256(MASKS[lanes].as_ptr() as *const __m256i)
    }

    /// One output row-block (`rows ≤ TILE_ROWS` rows of `out`): walks the
    /// 16-column panels, running the register-tile kernel on each.
    ///
    /// # Safety
    /// Requires AVX2. `a` holds `rows` rows of stride `k`; `out` holds `rows`
    /// rows of stride `m`; packed panels cover all `⌈m/16⌉` panels of `B`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_block(
        a: &[f32],
        rows: usize,
        k: usize,
        b: BPanels<'_>,
        out: &mut [f32],
        m: usize,
    ) {
        let mut j0 = 0;
        let mut panel = 0;
        while j0 < m {
            let w = TILE_COLS.min(m - j0);
            let (bp, bstride, masked) = match b {
                BPanels::Packed(p) => (p.as_ptr().add(panel * k * TILE_COLS), TILE_COLS, false),
                BPanels::Direct(d) => (d.as_ptr().add(j0), m, w < TILE_COLS),
            };
            let op = out.as_mut_ptr().add(j0);
            let ap = a.as_ptr();
            match (rows, masked) {
                (1, false) => tile::<1, false>(ap, k, bp, bstride, op, m, w),
                (2, false) => tile::<2, false>(ap, k, bp, bstride, op, m, w),
                (3, false) => tile::<3, false>(ap, k, bp, bstride, op, m, w),
                (4, false) => tile::<4, false>(ap, k, bp, bstride, op, m, w),
                (1, true) => tile::<1, true>(ap, k, bp, bstride, op, m, w),
                (2, true) => tile::<2, true>(ap, k, bp, bstride, op, m, w),
                (3, true) => tile::<3, true>(ap, k, bp, bstride, op, m, w),
                (4, true) => tile::<4, true>(ap, k, bp, bstride, op, m, w),
                _ => unreachable!("row block larger than TILE_ROWS"),
            }
            j0 += w;
            panel += 1;
        }
    }

    /// The `ROWS`×16 register tile: `ROWS` output rows × 16 columns live in
    /// ymm accumulators across the full `k` loop (one store per tile instead
    /// of one read-modify-write per `(row, k)` step).
    ///
    /// Determinism: ascending-`k` accumulation, separate `mul` + `add` (no
    /// FMA — fused rounding would diverge from the scalar reference), and
    /// the scalar kernel's `a == 0.0` skip replicated per `(row, k)`.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const ROWS: usize, const MASKED: bool>(
        a: *const f32,
        k: usize,
        b: *const f32,
        bstride: usize,
        out: *mut f32,
        m: usize,
        w: usize,
    ) {
        let mlo = mask(w.min(8));
        let mhi = mask(w.saturating_sub(8));
        let mut acc_lo = [_mm256_setzero_ps(); ROWS];
        let mut acc_hi = [_mm256_setzero_ps(); ROWS];
        for kk in 0..k {
            let bp = b.add(kk * bstride);
            let (b_lo, b_hi) = if MASKED {
                // `wrapping_add`: the upper half may sit past the row end
                // when `w <= 8`; its mask is all-zero, so the lanes are
                // architecturally never accessed, but the pointer itself must
                // not be formed with in-bounds arithmetic.
                (_mm256_maskload_ps(bp, mlo), _mm256_maskload_ps(bp.wrapping_add(8), mhi))
            } else {
                (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8)))
            };
            for r in 0..ROWS {
                let av = *a.add(r * k + kk);
                if av != 0.0 {
                    let va = _mm256_set1_ps(av);
                    acc_lo[r] = _mm256_add_ps(acc_lo[r], _mm256_mul_ps(va, b_lo));
                    acc_hi[r] = _mm256_add_ps(acc_hi[r], _mm256_mul_ps(va, b_hi));
                }
            }
        }
        for (r, (lo, hi)) in acc_lo.iter().zip(&acc_hi).enumerate() {
            let op = out.add(r * m);
            if w == TILE_COLS {
                _mm256_storeu_ps(op, *lo);
                _mm256_storeu_ps(op.add(8), *hi);
            } else {
                _mm256_maskstore_ps(op, mlo, *lo);
                _mm256_maskstore_ps(op.wrapping_add(8), mhi, *hi);
            }
        }
    }

    /// One spmm output row: 32-float register strips accumulated across all
    /// stored entries of the CSR row, in ascending entry order with separate
    /// mul + add — bit-identical to the scalar gather loop.
    ///
    /// # Safety
    /// Requires AVX2; see [`super::spmm_row_simd`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn spmm_row(
        cols: &[usize],
        vals: &[f32],
        dense: *const f32,
        m: usize,
        out_row: &mut [f32],
    ) {
        debug_assert_eq!(cols.len(), vals.len());
        let mut j = 0;
        while j + 32 <= m {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (&c, &v) in cols.iter().zip(vals) {
                let vv = _mm256_set1_ps(v);
                let src = dense.add(c * m + j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(vv, _mm256_loadu_ps(src)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(vv, _mm256_loadu_ps(src.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(vv, _mm256_loadu_ps(src.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(vv, _mm256_loadu_ps(src.add(24))));
            }
            let op = out_row.as_mut_ptr().add(j);
            _mm256_storeu_ps(op, a0);
            _mm256_storeu_ps(op.add(8), a1);
            _mm256_storeu_ps(op.add(16), a2);
            _mm256_storeu_ps(op.add(24), a3);
            j += 32;
        }
        while j + 8 <= m {
            let mut acc = _mm256_setzero_ps();
            for (&c, &v) in cols.iter().zip(vals) {
                let vv = _mm256_set1_ps(v);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(vv, _mm256_loadu_ps(dense.add(c * m + j))));
            }
            _mm256_storeu_ps(out_row.as_mut_ptr().add(j), acc);
            j += 8;
        }
        for (jj, out) in out_row.iter_mut().enumerate().skip(j) {
            let mut acc = 0.0f32;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * *dense.add(c * m + jj);
            }
            *out = acc;
        }
    }

    /// Vector body of [`super::axpy`]: 8-lane strips plus a scalar tail,
    /// each element one unfused mul + add.
    ///
    /// # Safety
    /// Requires AVX2; `x` and `y` must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let va = _mm256_set1_ps(alpha);
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let prod = _mm256_mul_ps(va, _mm256_loadu_ps(xp.add(i)));
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), prod));
            i += 8;
        }
        for ii in i..n {
            *yp.add(ii) += alpha * *xp.add(ii);
        }
    }
}
