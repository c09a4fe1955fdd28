//! Parallel-correctness properties: the pooled kernels must produce results
//! **bit-for-bit identical** to the serial path at every thread count, and
//! the vector kernels must be bit-for-bit identical to the scalar reference
//! at every kernel level the host has (scalar, AVX2, AVX-512F).
//! The kernels guarantee this by parallelizing only across output rows and
//! accumulating every output element in the same (ascending-k / ascending-
//! entry) order with unfused mul + add, so the sweep below — threads ∈
//! {1, 2, 8} × every kernel level up to `edge_tensor::simd_level()`,
//! installed per-thread via `edge_par::with_max_threads` /
//! `edge_tensor::with_kernel_level` since the corresponding environment
//! variables are read once per process — is a real invariant, not a
//! tolerance check. (On hardware without AVX2 only the scalar level runs.)

use edge_tensor::{CsrMatrix, KernelLevel, Matrix, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The thread counts the determinism contract is checked under.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn random_dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, 1.0, &mut rng)
}

fn random_csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let triplets: Vec<(usize, usize, f32)> = (0..nnz)
        .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols), rng.gen_range(-1.0..1.0)))
        .collect();
    CsrMatrix::from_triplets(rows, cols, &triplets)
}

/// A `rows × cols` CSR matrix with exactly `per_row` entries in every row,
/// at scattered distinct columns, so its `nnz` is known at compile time.
/// `cols` must be a power of two and `per_row ≤ cols`.
fn banded_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix {
    assert!(cols.is_power_of_two() && per_row <= cols);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(rows * per_row);
    for r in 0..rows {
        // An odd stride visits every residue mod a power of two once.
        let (start, stride) = (rng.gen_range(0..cols), 2 * rng.gen_range(0..cols / 2) + 1);
        for j in 0..per_row {
            triplets.push((r, (start + j * stride) % cols, rng.gen_range(-1.0..1.0)));
        }
    }
    let s = CsrMatrix::from_triplets(rows, cols, &triplets);
    assert_eq!(s.nnz(), rows * per_row);
    s
}

/// The kernel levels this host can run, narrowest first.
fn host_levels() -> impl Iterator<Item = KernelLevel> {
    KernelLevel::ALL.into_iter().filter(|&level| level <= edge_tensor::simd_level())
}

/// Bit equality, except that any NaN matches any NaN: a NaN's sign and
/// payload depend on the operand order of commutative IEEE operations, which
/// the compiler is free to swap, so only NaN-ness is part of the contract.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_bitwise(label: &str, reference: &Matrix, result: &Matrix) {
    assert_eq!(reference.shape(), result.shape(), "{label} shape");
    for (i, (a, b)) in reference.data().iter().zip(result.data()).enumerate() {
        assert!(same_bits(*a, *b), "{label} diverges at entry {i}: {a} vs {b}");
    }
}

/// Runs `f` under every (thread count × kernel level) combination and
/// asserts all results equal `reference`, bit for bit.
fn assert_matches_everywhere(label: &str, reference: &Matrix, f: impl Fn() -> Matrix) {
    for level in host_levels() {
        for threads in THREAD_SWEEP {
            let result =
                edge_tensor::with_kernel_level(level, || edge_par::with_max_threads(threads, &f));
            assert_bitwise(&format!("{label} @ {threads} threads, {level:?}"), reference, &result);
        }
    }
}

/// [`assert_matches_everywhere`] against the scalar single-threaded run of
/// `f` itself.
fn assert_thread_invariant(label: &str, f: impl Fn() -> Matrix) {
    let reference = edge_tensor::with_scalar_kernels(|| edge_par::with_max_threads(1, &f));
    assert_matches_everywhere(label, &reference, f);
}

/// A dense product above `PAR_THRESHOLD`, so it splits across the pool at
/// more than one thread. Neither the rows nor the columns are a multiple of
/// the register tile.
const SPLIT_MATMUL: (usize, usize, usize) = (258, 130, 126);
const _: () =
    assert!(SPLIT_MATMUL.0 * SPLIT_MATMUL.1 * SPLIT_MATMUL.2 >= edge_tensor::PAR_THRESHOLD);

#[test]
fn matmul_is_bitwise_deterministic_across_thread_counts() {
    let (n, k, m) = SPLIT_MATMUL;
    let a = random_dense(n, k, 1);
    let b = random_dense(k, m, 2);
    assert_thread_invariant("matmul", || a.matmul(&b));
}

#[test]
fn spmm_is_bitwise_deterministic_across_thread_counts() {
    // `nnz·m` above PAR_THRESHOLD, so the product splits.
    const SHAPE: (usize, usize, usize, usize) = (600, 512, 90, 80);
    const _: () = assert!(SHAPE.0 * SHAPE.2 * SHAPE.3 >= edge_tensor::PAR_THRESHOLD);
    let (rows, cols, per_row, m) = SHAPE;
    let s = banded_csr(rows, cols, per_row, 3);
    let x = random_dense(cols, m, 4);
    assert_thread_invariant("spmm", || s.matmul_dense(&x));
}

#[test]
fn transpose_matmul_is_bitwise_deterministic_across_thread_counts() {
    // The transposed CSR has the same `nnz`, so `nnz·m` splits here too.
    const SHAPE: (usize, usize, usize, usize) = (500, 512, 100, 84);
    const _: () = assert!(SHAPE.0 * SHAPE.2 * SHAPE.3 >= edge_tensor::PAR_THRESHOLD);
    let (rows, cols, per_row, m) = SHAPE;
    let s = banded_csr(rows, cols, per_row, 5);
    let g = random_dense(rows, m, 6);
    assert_thread_invariant("spmm^T", || s.transpose_matmul_dense(&g));
}

#[test]
fn transpose_matmul_matches_historical_serial_scatter_bitwise() {
    // The pre-pool implementation: serial scatter-adds over stored entries,
    // walking source rows in ascending order. The cached-transpose gather
    // kernel must reproduce it exactly, on both sides of the split: the
    // second operator's `nnz·m` reaches PAR_THRESHOLD.
    const SPLIT: (usize, usize, usize, usize) = (512, 512, 128, 72);
    const _: () = assert!(SPLIT.0 * SPLIT.2 * SPLIT.3 >= edge_tensor::PAR_THRESHOLD);
    let (rows, cols, per_row, m) = SPLIT;
    let cases = [
        (random_csr(64, 50, 700, 7), random_dense(64, 24, 8)),
        (banded_csr(rows, cols, per_row, 17), random_dense(rows, m, 18)),
    ];
    for (s, g) in &cases {
        let mut scatter = Matrix::zeros(s.cols(), g.cols());
        for r in 0..s.rows() {
            let src: Vec<f32> = g.row(r).to_vec();
            for (c, v) in s.row_entries(r) {
                for (o, &x) in scatter.row_mut(c).iter_mut().zip(&src) {
                    *o += v * x;
                }
            }
        }
        for threads in THREAD_SWEEP {
            let fast = edge_par::with_max_threads(threads, || s.transpose_matmul_dense(g));
            for (a, b) in scatter.data().iter().zip(fast.data()) {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{a} vs {b} @ {threads} threads, nnz {}",
                    s.nnz()
                );
            }
        }
    }
}

#[test]
fn nested_parallel_kernels_do_not_deadlock_and_stay_deterministic() {
    // A pooled task that itself runs pooled kernels: the pool must service
    // the inner regions (the submitting worker participates), and the
    // results must still match the serial path bit-for-bit. The product is
    // large enough to split, so the inner regions really dispatch.
    let (n, k, m) = SPLIT_MATMUL;
    let a = random_dense(n, k, 9);
    let b = random_dense(k, m, 10);
    let expected = edge_par::with_max_threads(1, || a.matmul(&b));
    let results: Vec<std::sync::Mutex<Option<Matrix>>> =
        (0..4).map(|_| std::sync::Mutex::new(None)).collect();
    edge_par::with_max_threads(8, || {
        edge_par::parallel_for(4, |i| {
            *results[i].lock().unwrap() = Some(a.matmul(&b));
        });
    });
    for slot in results {
        let got = slot.into_inner().unwrap().expect("inner kernel ran");
        for (x, y) in expected.data().iter().zip(got.data()) {
            assert!(x.to_bits() == y.to_bits());
        }
    }
}

#[test]
fn matmul_simd_tail_shapes_match_scalar_bitwise() {
    // Widths straddling the 16-column tile (masked/zero-padded tails), row
    // counts straddling the 4-row block, and a single-row product that takes
    // the unpacked strided path — every tail case of the AVX2 kernel. The
    // last shape splits across the pool, with a tail row and tail columns.
    const SPLIT_TAIL: (usize, usize, usize) = (257, 131, 127);
    const _: () = assert!(SPLIT_TAIL.0 * SPLIT_TAIL.1 * SPLIT_TAIL.2 >= edge_tensor::PAR_THRESHOLD);
    for (n, k, m) in
        [(1, 64, 48), (3, 33, 17), (5, 40, 16), (8, 21, 9), (13, 29, 31), (64, 50, 100), SPLIT_TAIL]
    {
        let a = random_dense(n, k, 100 + (n * k) as u64);
        let b = random_dense(k, m, 200 + (k * m) as u64);
        assert_thread_invariant(&format!("matmul {n}x{k}x{m}"), || a.matmul(&b));
    }
}

#[test]
fn matmul_simd_replicates_the_zero_skip_bitwise() {
    // The scalar kernel skips `a == 0.0` entries; `-0.0` accumulators make
    // skip-vs-add observable (`-0.0 + 0.0 == 0.0`), so the SIMD kernel must
    // replicate the skip exactly.
    let mut rng = StdRng::seed_from_u64(11);
    let mut a = Matrix::zeros(12, 40);
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let v = match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            };
            a.set(r, c, v);
        }
    }
    let mut b = random_dense(40, 24, 12);
    for c in 0..b.cols() {
        b.set(0, c, -0.0);
    }
    assert_thread_invariant("matmul zero-skip", || a.matmul(&b));
}

#[test]
fn spmm_simd_tail_widths_match_scalar_bitwise() {
    // Dense widths exercising the 32-strip, 8-strip, and scalar-tail loops
    // of the SIMD gather (and, below 8, the scalar fallback gate).
    let s = random_csr(60, 45, 500, 21);
    for m in [5, 8, 9, 24, 33, 40, 64] {
        let x = random_dense(45, m, 300 + m as u64);
        assert_thread_invariant(&format!("spmm width {m}"), || s.matmul_dense(&x));
        let g = random_dense(60, m, 400 + m as u64);
        assert_thread_invariant(&format!("spmm^T width {m}"), || s.transpose_matmul_dense(&g));
    }
    // Width 45 runs one 32-strip, one 8-strip and a 5-wide scalar tail, and
    // here `nnz·m` reaches PAR_THRESHOLD, so each of them runs in the pool.
    const SPLIT: (usize, usize, usize, usize) = (1024, 1024, 96, 45);
    const _: () = assert!(SPLIT.0 * SPLIT.2 * SPLIT.3 >= edge_tensor::PAR_THRESHOLD);
    let (rows, cols, per_row, m) = SPLIT;
    let s = banded_csr(rows, cols, per_row, 22);
    let x = random_dense(cols, m, 23);
    assert_thread_invariant("spmm split width 45", || s.matmul_dense(&x));
    let g = random_dense(rows, m, 24);
    assert_thread_invariant("spmm^T split width 45", || s.transpose_matmul_dense(&g));
}

/// An `rows × cols` matrix with `-0.0` and `0.0` entries, and with whole
/// zero rows and columns, among uniform values.
fn zero_laced(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            };
            // Row 1 and every 7th column stay zero.
            if r != 1 && c % 7 != 3 {
                a.set(r, c, v);
            }
        }
    }
    a
}

/// Uniform values with `±inf` and NaN sprinkled in.
fn non_finite_laced(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = random_dense(rows, cols, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    for v in m.data_mut() {
        match rng.gen_range(0..40) {
            0 => *v = f32::INFINITY,
            1 => *v = f32::NEG_INFINITY,
            2 => *v = f32::NAN,
            3 => *v = -0.0,
            _ => {}
        }
    }
    m
}

#[test]
fn wide_tile_and_transposed_products_match_scalar_bitwise() {
    // Every column residue modulo the 32-wide tile, row counts that are not
    // a multiple of the 4-row block (below and above the pack threshold),
    // and inner dimensions 0, 1 and the 194 entities of NYMA-smoke. Each
    // product is checked against the scalar kernel on a materialized
    // transpose, at every kernel level and thread count. The products of
    // these shapes run on the calling thread; the last case (a tail column
    // residue too) is large enough to split across the pool.
    const ROWS: [usize; 5] = [1, 3, 6, 13, 66];
    const SPLIT: (usize, usize, usize) = (262, 194, 83);
    const _: () = assert!(SPLIT.0 * SPLIT.1 * SPLIT.2 >= edge_tensor::PAR_THRESHOLD);
    // (n, k, m, seed)
    let mut cases = Vec::new();
    for residue in 1..32 {
        for k in [0, 1, 194] {
            cases.push((ROWS[residue % ROWS.len()], k, 32 + residue, (residue * 1000 + k) as u64));
        }
    }
    cases.push((SPLIT.0, SPLIT.1, SPLIT.2, 99_000));
    for (n, k, m, seed) in cases {
        let a = zero_laced(n, k, seed);
        let b = non_finite_laced(k, m, seed + 1);
        let (at, bt) = (a.transpose(), b.transpose());
        let reference =
            edge_tensor::with_scalar_kernels(|| edge_par::with_max_threads(1, || a.matmul(&b)));
        let label = format!("{n}x{k}x{m}");
        assert_matches_everywhere(&format!("matmul {label}"), &reference, || a.matmul(&b));
        assert_matches_everywhere(&format!("matmul_tn {label}"), &reference, || {
            let mut out = Matrix::zeros(0, 0);
            at.matmul_tn_into(&b, &mut out);
            out
        });
        assert_matches_everywhere(&format!("matmul_nt {label}"), &reference, || {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_nt_into(&bt, &mut out);
            out
        });
    }
}

#[test]
fn transposed_products_of_narrow_outputs_match_scalar_bitwise() {
    // Below 8 output columns every level runs the scalar kernel, which must
    // read the transposed operands in place with the same bits.
    for (n, k, m) in [(5, 194, 1), (3, 7, 6), (66, 64, 7), (9, 1, 2)] {
        let a = zero_laced(n, k, (n * k * m) as u64);
        let b = non_finite_laced(k, m, (n + k + m) as u64);
        let reference = a.matmul(&b);
        let (at, bt) = (a.transpose(), b.transpose());
        assert_matches_everywhere(&format!("matmul_tn {n}x{k}x{m}"), &reference, || {
            let mut out = Matrix::zeros(0, 0);
            at.matmul_tn_into(&b, &mut out);
            out
        });
        assert_matches_everywhere(&format!("matmul_nt {n}x{k}x{m}"), &reference, || {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_nt_into(&bt, &mut out);
            out
        });
    }
}

#[test]
fn tape_matmul_backward_equals_transpose_then_multiply_bitwise() {
    // The GCN layer shape: H (194×64) · W (64×64), then `loss = Σ (HW ⊙ C)`
    // so the upstream gradient is exactly `C`. The tape's backward reads
    // the transposed factors in place; it must equal multiplying by
    // materialized transposes, bit for bit, at every level and thread count.
    // The second graph has enough entities that the forward product and
    // both backward products split across the pool.
    const SPLIT_ENTITIES: usize = 1024;
    const _: () = assert!(SPLIT_ENTITIES * 64 * 64 >= edge_tensor::PAR_THRESHOLD);
    for (entities, seed) in [(194, 71), (SPLIT_ENTITIES, 81)] {
        let h = zero_laced(entities, 64, seed);
        let w = random_dense(64, 64, seed + 1);
        let c = zero_laced(entities, 64, seed + 2);
        let mut params = edge_tensor::ParamStore::new();
        let h_id = params.add("h", h.clone());
        let w_id = params.add("w", w.clone());
        let d_h = edge_tensor::with_scalar_kernels(|| c.matmul(&w.transpose()));
        let d_w = edge_tensor::with_scalar_kernels(|| h.transpose().matmul(&c));
        for level in host_levels() {
            for threads in THREAD_SWEEP {
                let grads = edge_tensor::with_kernel_level(level, || {
                    edge_par::with_max_threads(threads, || {
                        let mut tape = Tape::new();
                        let hn = tape.param(h_id, &params);
                        let wn = tape.param(w_id, &params);
                        let cn = tape.constant(c.clone());
                        let hw = tape.matmul(hn, wn);
                        let masked = tape.hadamard(hw, cn);
                        let loss = tape.sum_all(masked);
                        tape.backward(loss)
                    })
                });
                let grad = |id| &grads.iter().find(|(p, _)| *p == id).expect("gradient").1;
                let label = format!("{entities} entities @ {threads} threads, {level:?}");
                assert_bitwise(&format!("dH {label}"), &d_h, grad(h_id));
                assert_bitwise(&format!("dW {label}"), &d_w, grad(w_id));
            }
        }
    }
}

#[test]
fn axpy_simd_matches_scalar_bitwise() {
    // Lengths exercising the 8-lane strips, the scalar tail, and the
    // below-8 scalar gate; alpha including the zero and -0.0 edge cases.
    let mut rng = StdRng::seed_from_u64(31);
    for len in [1, 7, 8, 9, 24, 31, 257] {
        for alpha in [0.0f32, -0.0, 0.37, -2.5] {
            let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut reference = base.clone();
            for (yv, &xv) in reference.iter_mut().zip(&x) {
                *yv += alpha * xv;
            }
            let mut simd = base.clone();
            edge_tensor::axpy(alpha, &x, &mut simd);
            let mut scalar = base.clone();
            edge_tensor::with_scalar_kernels(|| edge_tensor::axpy(alpha, &x, &mut scalar));
            for i in 0..len {
                assert_eq!(reference[i].to_bits(), simd[i].to_bits(), "simd len {len} @ {i}");
                assert_eq!(reference[i].to_bits(), scalar[i].to_bits(), "scalar len {len} @ {i}");
            }
        }
    }
}

#[test]
fn dense_transpose_blocked_path_matches_naive() {
    for (rows, cols) in [(1, 1), (7, 3), (33, 65), (128, 37)] {
        let m = random_dense(rows, cols, 1000 + (rows * cols) as u64);
        let t = m.transpose();
        assert_eq!(t.shape(), (cols, rows));
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(t.get(c, r).to_bits(), m.get(r, c).to_bits());
            }
        }
    }
}
