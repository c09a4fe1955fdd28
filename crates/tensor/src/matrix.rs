//! Dense row-major f32 matrices with a register-blocked matmul that splits
//! across the worker pool once a product is large enough.
//!
//! This is the storage type of the autodiff engine. It deliberately stays
//! two-dimensional: every tensor in the EDGE model (embedding tables, GCN
//! states, attention scores, mixture parameter rows) is naturally a matrix,
//! and a rank-2 type keeps the backward rules simple enough to verify by
//! finite differences.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Work, in multiply-adds, from which a product fans out across the worker
/// pool: `n·k·m` for a dense product ([`Matrix::matmul`] and its transposed
/// forms), `nnz·m` for a sparse one ([`crate::CsrMatrix::matmul_dense`]).
/// Below it a product runs on the calling thread. The value comes from whole
/// trainings, not from a product loop in isolation: waking a parked worker
/// for every product of a small model's batch (the fast profile's largest
/// is 794,624 multiply-adds, its spmm 84,352) made a 2-thread training
/// slower than a 1-thread one, while the paper profile's 31M-MAC GCN
/// products still gain from the split. Chunk layout does not depend on the
/// split, so results are bitwise the same on either side of it.
pub const PAR_THRESHOLD: usize = 4 << 20;

/// Runs `task` on each `chunk`-long piece of `data` with the piece's index:
/// across the worker pool when the product's `work` (multiply-adds) reaches
/// [`PAR_THRESHOLD`], on the calling thread below it. One pool claim covers
/// at least `min_grain` pieces. The pieces are the same either way, so the
/// split cannot change a result, and the serial side allocates nothing.
pub(crate) fn for_each_chunk<F>(
    work: usize,
    data: &mut [f32],
    chunk: usize,
    min_grain: usize,
    task: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if work >= PAR_THRESHOLD {
        edge_par::parallel_for_chunks_mut_grained(data, chunk, min_grain, task);
    } else {
        data.chunks_mut(chunk).enumerate().for_each(|(i, piece)| task(i, piece));
    }
}

/// Work size (`rows × inner × cols`) from which a dense product opens a
/// `matmul` trace span; smaller products would flood the trace, and their
/// time shows up in the caller's self time anyway.
const SPAN_THRESHOLD: usize = 32 * 1024;

/// Output rows per [`Matrix::matmul`] register block: each streamed row of
/// the right-hand operand is reused this many times before eviction. Also the
/// row height of the vector register tile (`simd::TILE_ROWS`), so pool chunk
/// boundaries and SIMD tile boundaries always coincide.
pub(crate) const MATMUL_ROW_BLOCK: usize = 4;

/// Square tile side for the cache-blocked [`Matrix::transpose`].
const TRANSPOSE_BLOCK: usize = 32;

/// A dense `rows × cols` matrix of `f32`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a row-major data vector. Panics if the length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length {} != {rows}x{cols}", data.len());
        Self { rows, cols, data }
    }

    /// Builds from a slice of rows. Panics on ragged input or an empty set
    /// of rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Uniform random entries in `[-scale, scale]`.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consumes the matrix and returns its backing vector (capacity intact) —
    /// the hand-off primitive of the [`crate::arena::TapeArena`] recycler.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reshapes `self` to `rows × cols` with every entry zeroed, reusing the
    /// existing capacity. The in-place equivalent of [`Matrix::zeros`].
    pub(crate) fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites every entry with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Copies `other`'s contents into `self` (shapes must match).
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix product `self × other`: row blocks with a k-inner loop ordered
    /// for cache-friendly access to `other`, split across the worker pool
    /// when `n·k·m` reaches [`PAR_THRESHOLD`] and run on the calling thread
    /// below it.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into `out` (reshaped and overwritten, its
    /// allocation reused). Results are bit-for-bit identical to `matmul`
    /// at every thread count.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        gemm_into(
            Operand::plain(self),
            Operand::plain(other),
            out,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// `selfᵀ × other` into `out`, reading `self` in place: bit-for-bit
    /// identical to `self.transpose().matmul(other)` without materializing
    /// the transpose (the weight gradient `Aᵀ·G` of a matmul's backward).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        gemm_into(
            Operand::transposed(self),
            Operand::plain(other),
            out,
            self.cols,
            self.rows,
            other.cols,
        );
    }

    /// `self × otherᵀ` into `out`, reading `other` in place: bit-for-bit
    /// identical to `self.matmul(&other.transpose())` without materializing
    /// the transpose (the input gradient `G·Bᵀ` of a matmul's backward).
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        gemm_into(
            Operand::plain(self),
            Operand::transposed(other),
            out,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// Transpose (cache-blocked: source and destination are walked in
    /// `TRANSPOSE_BLOCK`-square tiles, so neither side strides a cold cache
    /// line per element on large matrices).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] writing into `out` (reshaped and overwritten).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset_zeroed(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TRANSPOSE_BLOCK) {
            let r_end = (rb + TRANSPOSE_BLOCK).min(self.rows);
            for cb in (0..self.cols).step_by(TRANSPOSE_BLOCK) {
                let c_end = (cb + TRANSPOSE_BLOCK).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// [`Matrix::map`] writing into `out` (reshaped and overwritten).
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&v| f(v)));
    }

    /// Elementwise combination of two equally shaped matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// [`Matrix::zip_map`] writing into `out` (reshaped and overwritten).
    pub fn zip_map_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
    }

    /// `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place scalar multiple (bitwise identical to [`Matrix::scale`]).
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// In-place `self += other * s` (the accumulation primitive of the
    /// backward pass and the optimizers).
    pub fn add_scaled_inplace(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Adds `row` (a 1×cols matrix) to every row of `self`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.add_row_broadcast_into(row, &mut out);
        out
    }

    /// [`Matrix::add_row_broadcast`] writing into `out` (reshaped and
    /// overwritten).
    pub fn add_row_broadcast_into(&self, row: &Matrix, out: &mut Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a single row");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend_from_slice(&self.data);
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Column-wise sum, returned as a 1×cols matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] writing into `out` (reshaped and overwritten).
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reset_zeroed(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Gathers rows by index into a new matrix. Indices may repeat.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] writing into `out` (reshaped and overwritten).
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        for &idx in indices {
            assert!(idx < self.rows, "gather index {idx} out of range {}", self.rows);
            out.data.extend_from_slice(self.row(idx));
        }
    }

    /// The maximum absolute entry (0 for the empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// A matmul operand as the kernels read it: a row-major matrix used as
/// stored or transposed, never copied.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    /// The stored matrix's entries, row-major.
    pub(crate) data: &'a [f32],
    /// Columns of the stored matrix.
    pub(crate) stride: usize,
    /// Whether the product reads the stored matrix transposed.
    pub(crate) transposed: bool,
}

impl<'a> Operand<'a> {
    fn plain(m: &'a Matrix) -> Self {
        Self { data: &m.data, stride: m.cols, transposed: false }
    }

    fn transposed(m: &'a Matrix) -> Self {
        Self { data: &m.data, stride: m.cols, transposed: true }
    }

    /// `(row step, column step)`: element `(i, j)` of the operand as read
    /// is `data[i·row + j·col]`.
    pub(crate) fn steps(self) -> (usize, usize) {
        if self.transposed {
            (1, self.stride)
        } else {
            (self.stride, 1)
        }
    }
}

/// `out = a × b` for operands read as `n × k` and `k × m`: the one dense
/// product behind [`Matrix::matmul_into`], [`Matrix::matmul_tn_into`] and
/// [`Matrix::matmul_nt_into`].
fn gemm_into(a: Operand<'_>, b: Operand<'_>, out: &mut Matrix, n: usize, k: usize, m: usize) {
    edge_obs::counter!("tensor.matmul.calls").inc(1);
    edge_obs::counter!("tensor.matmul.flops").inc(2 * (n * k * m) as u64);
    let _span = (n * k * m >= SPAN_THRESHOLD).then(|| edge_obs::span("matmul"));
    out.reset_zeroed(n, m);
    if out.data.is_empty() || k == 0 {
        return;
    }
    if crate::simd::matmul_into_simd(a, b, &mut out.data, n, k, m) {
        return;
    }
    // Scalar reference kernel (also the `EDGE_NO_SIMD` / narrow-output
    // path — the SIMD kernels are bit-for-bit identical to it).
    //
    // Register-blocked ikj kernel: MATMUL_ROW_BLOCK rows of `out`
    // accumulate together, so each row of `b` streamed through the inner
    // j-loop is reused once per block row while hot in cache. Every output
    // row still accumulates in ascending-k order, so results are
    // bit-for-bit identical across block boundaries, thread counts and
    // operand layouts.
    let (a_rs, a_ks) = a.steps();
    let work = |block_idx: usize, out_block: &mut [f32]| {
        let row0 = block_idx * MATMUL_ROW_BLOCK;
        let rows_here = out_block.len() / m;
        for kk in 0..k {
            for r in 0..rows_here {
                let av = a.data[(row0 + r) * a_rs + kk * a_ks];
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out_block[r * m..(r + 1) * m];
                if b.transposed {
                    // Row `kk` of `bᵀ` is column `kk` of the stored `m × k`.
                    for (o, &bv) in out_row.iter_mut().zip(b.data[kk..].iter().step_by(k)) {
                        *o += av * bv;
                    }
                } else {
                    for (o, &bv) in out_row.iter_mut().zip(&b.data[kk * m..(kk + 1) * m]) {
                        *o += av * bv;
                    }
                }
            }
        }
    };
    for_each_chunk(n * k * m, &mut out.data, MATMUL_ROW_BLOCK * m, 1, work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.len(), 6);
        assert!(!z.is_empty());
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Matrix::full(2, 2, 3.5);
        assert!(f.data().iter().all(|&v| v == 3.5));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Matrix::random_uniform(7, 7, 1.0, &mut rng);
        let i = Matrix::identity(7);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Matrix::zeros(3, 5);
        let b = Matrix::zeros(5, 2);
        assert_eq!(a.matmul(&b).shape(), (3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn matmul_parallel_path_matches_serial() {
        // A product above the split threshold at two threads, compared
        // against a naive triple loop.
        const N: usize = 200;
        const K: usize = 160;
        const M: usize = 150;
        const _: () = assert!(N * K * M >= PAR_THRESHOLD);
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::random_uniform(N, K, 1.0, &mut rng);
        let b = Matrix::random_uniform(K, M, 1.0, &mut rng);
        let fast = edge_par::with_max_threads(2, || a.matmul(&b));
        let mut naive = Matrix::zeros(N, M);
        for i in 0..N {
            for j in 0..M {
                let mut acc = 0.0;
                for k in 0..K {
                    acc += a.get(i, k) * b.get(k, j);
                }
                naive.set(i, j, acc);
            }
        }
        for (x, y) in fast.data().iter().zip(naive.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_uniform(4, 9, 2.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (9, 4));
        assert_eq!(a.transpose().get(3, 2), a.get(2, 3));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.add(&b).data(), &[4.0, 2.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -6.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, -8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = Matrix::zeros(1, 3);
        let g = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        a.add_scaled_inplace(&g, 0.5);
        a.add_scaled_inplace(&g, 0.5);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_broadcast() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        assert_eq!(a.add_row_broadcast(&b).data(), &[11.0, 21.0, 12.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "single row")]
    fn row_broadcast_rejects_matrix() {
        let a = Matrix::zeros(2, 2);
        let _ = a.add_row_broadcast(&Matrix::zeros(2, 2));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
        assert!((a.frobenius_norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn gather_rows_picks_and_repeats() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_bounds_checked() {
        let _ = Matrix::zeros(2, 2).gather_rows(&[5]);
    }

    #[test]
    fn finite_check() {
        let mut a = Matrix::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }

    #[test]
    fn random_uniform_respects_scale_and_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = Matrix::random_uniform(10, 10, 0.3, &mut r1);
        let b = Matrix::random_uniform(10, 10, 0.3, &mut r2);
        assert_eq!(a, b);
        assert!(a.max_abs() <= 0.3);
        assert!(a.max_abs() > 0.0);
    }
}
