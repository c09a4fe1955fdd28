//! CSR sparse matrices and sparse×dense products.
//!
//! The GCN propagation matrix `D̃^{-1/2} Ã D̃^{-1/2}` is a constant sparse
//! operator applied to dense state matrices every layer (Eq. 1). This module
//! provides the CSR storage and the two products the autodiff engine needs:
//! `S · X` for the forward pass and `Sᵀ · G` for the backward pass. Both are
//! row-parallel over the output; the backward product runs on a transposed
//! CSR that is built once and cached, so every GCN backward pass after the
//! first reuses it.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A compressed-sparse-row matrix of `f32`.
///
/// Column indices within each row are sorted ascending (an invariant of
/// [`CsrMatrix::from_triplets`] that [`CsrMatrix::get`] binary-searches on).
/// The matrix also lazily caches its transpose — see
/// [`CsrMatrix::transposed`] — which the serialized form and equality
/// deliberately ignore.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "CsrParts", into = "CsrParts")]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
    /// Lazily built transposed copy serving `transpose_matmul_dense`.
    /// Cloning shares the cache; structural mutation never happens after
    /// construction, so the cache cannot go stale.
    transposed: OnceLock<Arc<CsrMatrix>>,
}

/// The serialized (and equality-relevant) fields of a [`CsrMatrix`] — the
/// transpose cache is rebuilt on demand rather than persisted.
#[derive(Serialize, Deserialize)]
struct CsrParts {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl From<CsrMatrix> for CsrParts {
    fn from(m: CsrMatrix) -> Self {
        Self {
            rows: m.rows,
            cols: m.cols,
            row_ptr: m.row_ptr,
            col_idx: m.col_idx,
            values: m.values,
        }
    }
}

impl From<CsrParts> for CsrMatrix {
    fn from(p: CsrParts) -> Self {
        Self {
            rows: p.rows,
            cols: p.cols,
            row_ptr: p.row_ptr,
            col_idx: p.col_idx,
            values: p.values,
            transposed: OnceLock::new(),
        }
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO triplets `(row, col, value)`.
    /// Duplicate coordinates are summed; explicit zeros are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut sorted: Vec<(usize, usize, f32)> = triplets
            .iter()
            .copied()
            .inspect(|&(r, c, _)| {
                assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds {rows}x{cols}");
            })
            .collect();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        // Merge duplicate coordinates, then drop entries that cancelled to 0.
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx: Vec<usize> = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        debug_assert!(
            (0..rows).all(|r| col_idx[row_ptr[r]..row_ptr[r + 1]].windows(2).all(|w| w[0] < w[1])),
            "column indices within a row must be strictly ascending"
        );
        Self { rows, cols, row_ptr, col_idx, values, transposed: OnceLock::new() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the stored entries of row `r` as `(col, value)`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// The stored column indices and values of row `r` as parallel slices —
    /// the raw form of [`CsrMatrix::row_entries`] the SIMD gather kernel
    /// consumes.
    fn row_slices(&self, r: usize) -> (&[usize], &[f32]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Reads entry `(r, c)` (zero when not stored). Binary search over the
    /// row's sorted column indices.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// The transposed matrix as a fresh CSR (counting sort over the stored
    /// entries, O(nnz + rows + cols)).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        // Walking source rows in order makes each transposed row's column
        // indices (= original row indices) ascending, preserving the sorted
        // invariant — and fixes the backward accumulation order to match the
        // historical serial scatter loop bit-for-bit.
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let slot = cursor[c];
                col_idx[slot] = r;
                values[slot] = v;
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
            transposed: OnceLock::new(),
        }
    }

    /// The cached transpose, built on first use. The GCN adjacency operator
    /// is constant across training, so the one-time O(nnz) build amortizes
    /// over every backward pass of every epoch.
    pub fn transposed(&self) -> &CsrMatrix {
        self.transposed.get_or_init(|| Arc::new(self.transpose()))
    }

    /// Dense product `self × dense` (pool-parallel over output rows).
    pub fn matmul_dense(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_dense_into(dense, &mut out);
        out
    }

    /// [`CsrMatrix::matmul_dense`] writing into `out` (reshaped and
    /// overwritten, its allocation reused). Bit-for-bit identical to the
    /// allocating form at every thread count.
    pub fn matmul_dense_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm shape mismatch: {}x{} times {:?}",
            self.rows,
            self.cols,
            dense.shape()
        );
        let m = dense.cols();
        edge_obs::counter!("tensor.spmm.calls").inc(1);
        edge_obs::counter!("tensor.spmm.flops").inc(2 * (self.nnz() * m) as u64);
        let _span = edge_obs::span("matmul.sparse");
        out.reset_zeroed(self.rows, m);
        if m == 0 {
            return;
        }
        // Kernel choice is captured here, on the submitting thread, so a
        // `with_scalar_kernels` override governs the whole parallel region.
        let use_simd = crate::simd::spmm_simd_active(m);
        // One chunk per output row, so partitioning cannot change results.
        // The `edge_par` entry point performs no heap allocation on the
        // serial path, keeping the train loop allocation-free at one thread.
        edge_par::parallel_for_chunks_mut(out.data_mut(), m, |r, out_row| {
            if use_simd {
                let (cols, vals) = self.row_slices(r);
                // SAFETY: `use_simd` captured a true `spmm_simd_active` above,
                // so AVX2 is available; `cols` indexes rows of `dense`.
                unsafe { crate::simd::spmm_row_simd(cols, vals, dense.data(), m, out_row) };
            } else {
                for (c, v) in self.row_entries(r) {
                    let src = dense.row(c);
                    for (o, &x) in out_row.iter_mut().zip(src) {
                        *o += v * x;
                    }
                }
            }
        });
    }

    /// Transposed product `selfᵀ × dense` — the backward-pass companion of
    /// [`CsrMatrix::matmul_dense`]. Runs the row-parallel gather product on
    /// the cached transposed CSR; each output row accumulates its sources in
    /// ascending original-row order, so results are bit-for-bit identical to
    /// the historical serial scatter-add at any thread count.
    pub fn transpose_matmul_dense(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_matmul_dense_into(dense, &mut out);
        out
    }

    /// [`CsrMatrix::transpose_matmul_dense`] writing into `out` (reshaped and
    /// overwritten).
    pub fn transpose_matmul_dense_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            dense.rows(),
            "spmm^T shape mismatch: ({}x{})^T times {:?}",
            self.rows,
            self.cols,
            dense.shape()
        );
        self.transposed().matmul_dense_into(dense, out);
    }

    /// Converts to a dense matrix (test/debug helper; O(rows × cols)).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Whether the matrix is structurally and numerically symmetric (within
    /// `tol`). GCN propagation matrices must be.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)],
        )
    }

    #[test]
    fn from_triplets_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn cancelling_duplicates_are_pruned() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, -1.0), (1, 0, 2.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplets_bounds_checked() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (3, 3, 1.0)]);
        assert_eq!(m.row_entries(1).count(), 0);
        assert_eq!(m.row_entries(2).count(), 0);
        let x = Matrix::identity(4);
        let y = m.matmul_dense(&x);
        assert_eq!(y.get(1, 1), 0.0);
        assert_eq!(y.get(3, 3), 1.0);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let mut rng = StdRng::seed_from_u64(2);
        let triplets: Vec<(usize, usize, f32)> = (0..200)
            .map(|_| (rng.gen_range(0..20), rng.gen_range(0..15), rng.gen_range(-1.0..1.0)))
            .collect();
        let s = CsrMatrix::from_triplets(20, 15, &triplets);
        let x = Matrix::random_uniform(15, 7, 1.0, &mut rng);
        let sparse_result = s.matmul_dense(&x);
        let dense_result = s.to_dense().matmul(&x);
        for (a, b) in sparse_result.data().iter().zip(dense_result.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let mut rng = StdRng::seed_from_u64(3);
        let triplets: Vec<(usize, usize, f32)> = (0..150)
            .map(|_| (rng.gen_range(0..12), rng.gen_range(0..18), rng.gen_range(-1.0..1.0)))
            .collect();
        let s = CsrMatrix::from_triplets(12, 18, &triplets);
        let g = Matrix::random_uniform(12, 5, 1.0, &mut rng);
        let fast = s.transpose_matmul_dense(&g);
        let slow = s.to_dense().transpose().matmul(&g);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn transpose_is_an_involution_and_sorted() {
        let mut rng = StdRng::seed_from_u64(7);
        let triplets: Vec<(usize, usize, f32)> = (0..300)
            .map(|_| (rng.gen_range(0..25), rng.gen_range(0..10), rng.gen_range(-1.0..1.0)))
            .collect();
        let s = CsrMatrix::from_triplets(25, 10, &triplets);
        let t = s.transpose();
        assert_eq!(t.rows(), s.cols());
        assert_eq!(t.cols(), s.rows());
        assert_eq!(t.transpose(), s);
        for r in 0..t.rows() {
            let cols: Vec<usize> = t.row_entries(r).map(|(c, _)| c).collect();
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} not sorted: {cols:?}");
        }
    }

    #[test]
    fn transposed_cache_is_shared_by_clones_and_skipped_by_serde() {
        let s = sample();
        let t1 = s.transposed() as *const CsrMatrix;
        let clone = s.clone();
        assert_eq!(clone.transposed() as *const CsrMatrix, t1, "clone shares the cache");
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("transposed"), "cache must not serialize: {json}");
        let back: CsrMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.transposed().to_dense().data(), s.transpose().to_dense().data());
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn spmm_shape_checked() {
        let _ = sample().matmul_dense(&Matrix::zeros(4, 2));
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 2.0), (0, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-6));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0)]);
        assert!(!asym.is_symmetric(1e-6));
        let rect = CsrMatrix::from_triplets(2, 3, &[]);
        assert!(!rect.is_symmetric(1e-6));
    }

    #[test]
    fn to_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d.get(r, c), m.get(r, c));
            }
        }
    }
}
