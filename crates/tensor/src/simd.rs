//! Runtime-detected vector microkernels for the dense and sparse hot paths.
//!
//! The scalar kernels in [`crate::matrix`] and [`crate::sparse`] stay as the
//! reference implementation; this module adds `std::arch` equivalents
//! behind one-time feature detection:
//!
//! * **Detection, cached.** [`simd_level`] reads `EDGE_NO_SIMD` and
//!   `is_x86_feature_detected!` exactly once per process and names the
//!   widest level the CPU has: scalar, AVX2 or AVX-512F. [`kernel_level`]
//!   additionally honors the scoped [`with_kernel_level`] cap the parity
//!   tests sweep (mirroring `edge_par::with_max_threads`);
//!   [`with_scalar_kernels`] is the cap at scalar. All of them live in
//!   `edge-par`, which carries the cap to every pool worker of a region;
//!   they are re-exported here under their historical paths.
//! * **One register tile, two widths.** The dense matmul runs a 4-row tile
//!   of two vector registers per row: 16 columns in ymm registers at the
//!   AVX2 level, 32 in zmm registers at the AVX-512F level. The tile body is
//!   written once, generic over a private `Lanes` trait, and compiled once per
//!   width. The spmm gather and the axpy stay at AVX2 width on both levels.
//! * **Transposed operands in place.** The kernel reads `A` through
//!   `(row, k)` strides and the pack reads `B` either as stored or
//!   transposed, so `Aᵀ·B` and `A·Bᵀ` run without materializing a transpose.
//! * **Determinism contract.** On the deterministic paths (dense matmul,
//!   spmm) every output element accumulates in ascending-`k` / ascending-
//!   entry order with *separate* mul and add — FMA would fuse the rounding
//!   step and diverge from the scalar reference — and a zero `A` entry skips
//!   the update exactly like the scalar kernel's `a == 0.0` branch (the
//!   `-0.0 + 0.0` edge case makes skip-vs-no-skip observable bitwise). The
//!   SIMD kernels are therefore bit-for-bit identical to scalar at every
//!   level, which the property tests in `tests/parallel.rs` assert.
//! * **Zero-allocation packing.** The matmul packs `B` into panel-major
//!   strips through a thread-local scratch buffer that is taken and returned
//!   around each product (`Cell<Option<Vec<f32>>>`), so the steady-state
//!   train loop stays at zero heap allocations per batch once the buffer has
//!   grown to its working-set size.

use std::cell::Cell;

use crate::matrix::Operand;

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
/// directly with strided (masked at the tail) loads. A transposed `B` is
/// always packed: its columns are not contiguous.
const PACK_MIN_ROWS: usize = 8;

pub use edge_par::{
    kernel_level, simd_active, simd_available, simd_level, with_kernel_level, with_scalar_kernels,
    KernelLevel,
};

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
    /// Panel-major packed copy (`⌈m/cols⌉ × k × cols` for the tile width
    /// `cols`, tail panel zero-padded): every kernel load is a contiguous
    /// unmasked strip regardless of `m`.
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
    /// Packs `b` (`k × m` as read) into zero-padded panel-major panels of
    /// `cols` columns.
    fn pack(b: Operand<'_>, k: usize, m: usize, cols: usize) -> Self {
        let mut buf = PACK_SCRATCH.with(Cell::take).unwrap_or_default();
        let panels = m.div_ceil(cols);
        buf.clear();
        buf.resize(panels * k * cols, 0.0);
        for p in 0..panels {
            let j0 = p * cols;
            let w = cols.min(m - j0);
            let dst = &mut buf[p * k * cols..(p + 1) * k * cols];
            if b.transposed {
                // Column `j` of the operand is row `j` of the stored `m × k`.
                for jj in 0..w {
                    let src = &b.data[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (d, &v) in dst[jj..].iter_mut().step_by(cols).zip(src) {
                        *d = v;
                    }
                }
            } else {
                for kk in 0..k {
                    dst[kk * cols..kk * cols + w]
                        .copy_from_slice(&b.data[kk * m + j0..kk * m + j0 + w]);
                }
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

/// Runs `out = a × b` (`out` pre-zeroed, `n×k` times `k×m` as read) with the
/// widest vector kernel [`kernel_level`] allows, over the same
/// `TILE_ROWS`-row chunks and split rule as the scalar path. Returns `false` — leaving
/// `out` untouched — when SIMD is inactive or the shape is too narrow to
/// benefit, in which case the caller falls back to the scalar reference
/// kernel.
#[cfg(target_arch = "x86_64")]
pub(crate) fn matmul_into_simd(
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) -> bool {
    // Captured on the submitting thread: the pool carries its cap to the
    // workers, and every chunk runs the tile of this one level.
    let level = kernel_level();
    if level == KernelLevel::Scalar || m < MIN_SIMD_COLS {
        return false;
    }
    edge_obs::counter!("tensor.matmul.simd").inc(1);
    let cols = x86::tile_cols(level);
    let guard;
    let panels = if n >= PACK_MIN_ROWS || b.transposed {
        guard = PackGuard::pack(b, k, m, cols);
        BPanels::Packed(&guard.buf)
    } else {
        BPanels::Direct(b.data)
    };
    let (a_rs, a_ks) = a.steps();
    let shape = x86::Shape { a_rs, a_ks, k, m };
    let work = |block_idx: usize, out_block: &mut [f32]| {
        let a_block = &a.data[block_idx * TILE_ROWS * a_rs..];
        let rows = out_block.len() / m;
        // SAFETY: `kernel_level()` verified the level's features above, on
        // the submitting thread, before any dispatch.
        unsafe { x86::matmul_block(level, a_block, shape, rows, panels, out_block) };
    };
    // Each pool claim covers at least two row blocks: the vector kernel
    // clears a block ~4x faster than scalar, so per-claim cursor traffic
    // would otherwise double its relative cost.
    crate::matrix::for_each_chunk(n * k * m, out, TILE_ROWS * m, 2, work);
    true
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn matmul_into_simd(
    _a: Operand<'_>,
    _b: Operand<'_>,
    _out: &mut [f32],
    _n: usize,
    _k: usize,
    _m: usize,
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
    x86::spmm_row(cols, vals, dense.as_ptr(), m, out_row);
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
        unsafe { x86::axpy(alpha, x, y) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{BPanels, KernelLevel};

    /// One vector register of f32 lanes: the operations the register tile
    /// needs, so [`tile`] is written once for both widths. Every method is
    /// a single intrinsic; they are only sound inside a function compiled
    /// with the width's target feature (the `block_avx2` / `block_avx512` entry points).
    trait Lanes {
        const LANES: usize;
        type V: Copy;
        type Mask: Copy;
        /// A mask enabling the first `lanes` lanes.
        unsafe fn mask(lanes: usize) -> Self::Mask;
        unsafe fn zero() -> Self::V;
        /// `*p` in every lane, or `None` when it is `±0.0`: the scalar
        /// kernel's `a == 0.0` skip.
        unsafe fn splat_nonzero(p: *const f32) -> Option<Self::V>;
        unsafe fn load(p: *const f32) -> Self::V;
        /// Masked-off lanes read as zero and are never accessed.
        unsafe fn load_masked(p: *const f32, mask: Self::Mask) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        /// Masked-off lanes are never accessed.
        unsafe fn store_masked(p: *mut f32, mask: Self::Mask, v: Self::V);
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    }

    /// 8 lanes in a ymm register (AVX2).
    struct Ymm;

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

    impl Lanes for Ymm {
        const LANES: usize = 8;
        type V = __m256;
        type Mask = __m256i;
        #[inline(always)]
        unsafe fn mask(lanes: usize) -> __m256i {
            _mm256_loadu_si256(MASKS[lanes].as_ptr() as *const __m256i)
        }
        #[inline(always)]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat_nonzero(p: *const f32) -> Option<__m256> {
            let x = *p;
            (x != 0.0).then(|| _mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, mask: __m256i) -> __m256 {
            _mm256_maskload_ps(p, mask)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut f32, mask: __m256i, v: __m256) {
            _mm256_maskstore_ps(p, mask, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
    }

    /// 16 lanes in a zmm register (AVX-512F), tails under a k-mask.
    struct Zmm;

    impl Lanes for Zmm {
        const LANES: usize = 16;
        type V = __m512;
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn mask(lanes: usize) -> __mmask16 {
            ((1u32 << lanes) - 1) as __mmask16
        }
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            _mm512_setzero_ps()
        }
        /// Tests the bits in a general register (no bits below the sign
        /// means `±0.0`; NaN is not zero, as in `!= 0.0`) and broadcasts
        /// from there: `vpbroadcastd zmm, r32` is one uop, where a float
        /// compare plus a register broadcast puts two on the ports the
        /// tile's multiplies and adds need. The ymm form has no such
        /// broadcast and keeps the float compare.
        #[inline(always)]
        unsafe fn splat_nonzero(p: *const f32) -> Option<__m512> {
            let bits = *(p as *const u32);
            (bits << 1 != 0).then(|| _mm512_set1_ps(f32::from_bits(bits)))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m512 {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, mask: __mmask16) -> __m512 {
            _mm512_maskz_loadu_ps(mask, p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m512) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut f32, mask: __mmask16, v: __m512) {
            _mm512_mask_storeu_ps(p, mask, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m512, b: __m512) -> __m512 {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m512, b: __m512) -> __m512 {
            _mm512_mul_ps(a, b)
        }
    }

    /// Columns of one packed panel / register tile at `level`: two vector
    /// registers.
    pub(super) fn tile_cols(level: KernelLevel) -> usize {
        match level {
            KernelLevel::Avx512 => 2 * Zmm::LANES,
            _ => 2 * Ymm::LANES,
        }
    }

    /// The strides and extents every tile of one product shares: element
    /// `(r, kk)` of `A` is at `r·a_rs + kk·a_ks`, the product is `· × k`
    /// times `k × m`.
    #[derive(Clone, Copy)]
    pub(super) struct Shape {
        pub(super) a_rs: usize,
        pub(super) a_ks: usize,
        pub(super) k: usize,
        pub(super) m: usize,
    }

    /// One output row-block (`rows ≤ TILE_ROWS` rows of `out`) at `level`.
    ///
    /// # Safety
    /// The CPU must support `level` (not `Scalar`). `a` holds the block's
    /// `rows × k` elements at `shape`'s strides; `out` holds `rows` rows of
    /// stride `m`; packed panels cover all `⌈m/tile_cols(level)⌉` panels of
    /// `B`.
    pub(super) unsafe fn matmul_block(
        level: KernelLevel,
        a: &[f32],
        shape: Shape,
        rows: usize,
        b: BPanels<'_>,
        out: &mut [f32],
    ) {
        match level {
            KernelLevel::Avx512 => block_avx512(a.as_ptr(), shape, rows, b, out),
            KernelLevel::Avx2 => block_avx2(a.as_ptr(), shape, rows, b, out),
            KernelLevel::Scalar => unreachable!("the scalar level has no vector tile"),
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn block_avx2(
        a: *const f32,
        shape: Shape,
        rows: usize,
        b: BPanels<'_>,
        out: &mut [f32],
    ) {
        block::<Ymm>(a, shape, rows, b, out)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn block_avx512(
        a: *const f32,
        shape: Shape,
        rows: usize,
        b: BPanels<'_>,
        out: &mut [f32],
    ) {
        block::<Zmm>(a, shape, rows, b, out)
    }

    /// Walks the `2·L::LANES`-column panels of one row block, running the
    /// register tile on each. Inlined into the `block_*` entry points, which
    /// compile it with their width's target feature.
    #[inline(always)]
    unsafe fn block<L: Lanes>(
        a: *const f32,
        shape: Shape,
        rows: usize,
        b: BPanels<'_>,
        out: &mut [f32],
    ) {
        let cols = 2 * L::LANES;
        let Shape { k, m, .. } = shape;
        let mut j0 = 0;
        let mut panel = 0;
        while j0 < m {
            let w = cols.min(m - j0);
            let (bp, bstride, masked) = match b {
                BPanels::Packed(p) => (p.as_ptr().add(panel * k * cols), cols, false),
                BPanels::Direct(d) => (d.as_ptr().add(j0), m, w < cols),
            };
            let op = out.as_mut_ptr().add(j0);
            match (rows, masked) {
                (1, false) => tile::<L, 1, false>(a, shape, bp, bstride, op, w),
                (2, false) => tile::<L, 2, false>(a, shape, bp, bstride, op, w),
                (3, false) => tile::<L, 3, false>(a, shape, bp, bstride, op, w),
                (4, false) => tile::<L, 4, false>(a, shape, bp, bstride, op, w),
                (1, true) => tile::<L, 1, true>(a, shape, bp, bstride, op, w),
                (2, true) => tile::<L, 2, true>(a, shape, bp, bstride, op, w),
                (3, true) => tile::<L, 3, true>(a, shape, bp, bstride, op, w),
                (4, true) => tile::<L, 4, true>(a, shape, bp, bstride, op, w),
                _ => unreachable!("row block larger than TILE_ROWS"),
            }
            j0 += w;
            panel += 1;
        }
    }

    /// The `ROWS` × `2·L::LANES` register tile: `ROWS` output rows of two
    /// vector registers each live in accumulators across the full `k` loop
    /// (one store per tile instead of one read-modify-write per `(row, k)`
    /// step). `w` is the tile's live width; `B` row `kk` starts at
    /// `b + kk·bstride`.
    ///
    /// Determinism: ascending-`k` accumulation, separate `mul` + `add` (no
    /// FMA — fused rounding would diverge from the scalar reference), and
    /// the scalar kernel's `a == 0.0` skip replicated per `(row, k)`.
    #[inline(always)]
    unsafe fn tile<L: Lanes, const ROWS: usize, const MASKED: bool>(
        a: *const f32,
        shape: Shape,
        b: *const f32,
        bstride: usize,
        out: *mut f32,
        w: usize,
    ) {
        let Shape { a_rs, a_ks, k, m } = shape;
        let lanes = L::LANES;
        let mlo = L::mask(w.min(lanes));
        let mhi = L::mask(w.saturating_sub(lanes));
        let mut acc_lo = [L::zero(); ROWS];
        let mut acc_hi = [L::zero(); ROWS];
        for kk in 0..k {
            let bp = b.add(kk * bstride);
            let (b_lo, b_hi) = if MASKED {
                // `wrapping_add`: the upper half may sit past the row end
                // when `w <= lanes`; its mask is all-zero, so the lanes are
                // architecturally never accessed, but the pointer itself must
                // not be formed with in-bounds arithmetic.
                (L::load_masked(bp, mlo), L::load_masked(bp.wrapping_add(lanes), mhi))
            } else {
                (L::load(bp), L::load(bp.add(lanes)))
            };
            let ak = a.add(kk * a_ks);
            for r in 0..ROWS {
                if let Some(va) = L::splat_nonzero(ak.add(r * a_rs)) {
                    acc_lo[r] = L::add(acc_lo[r], L::mul(va, b_lo));
                    acc_hi[r] = L::add(acc_hi[r], L::mul(va, b_hi));
                }
            }
        }
        let full = w == 2 * lanes;
        for (r, (lo, hi)) in acc_lo.iter().zip(&acc_hi).enumerate() {
            let op = out.add(r * m);
            if full {
                L::store(op, *lo);
                L::store(op.add(lanes), *hi);
            } else {
                L::store_masked(op, mlo, *lo);
                L::store_masked(op.wrapping_add(lanes), mhi, *hi);
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
