//! Finite-difference gradient checks for every differentiable tape op.
//!
//! Each check builds a small graph ending in a scalar, perturbs every entry
//! of every parameter by ±h, and compares the numeric slope against the
//! tape's analytic gradient. This is the correctness gate the whole EDGE
//! model relies on.

use std::sync::Arc;

use edge_tensor::matrix::Matrix;
use edge_tensor::sparse::CsrMatrix;
use edge_tensor::tape::{ParamId, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the scalar loss for the current parameter values.
type LossFn = dyn Fn(&mut Tape, &ParamStore) -> edge_tensor::tape::NodeId;

fn grad_check(params: &mut ParamStore, ids: &[ParamId], f: &LossFn, tol: f32) {
    // Analytic gradients.
    let mut tape = Tape::new();
    let loss = f(&mut tape, params);
    let grads = tape.backward(loss);
    let analytic: Vec<(ParamId, Matrix)> = grads;

    let h = 1e-2f32; // f32 sweet spot: truncation vs cancellation
    for &id in ids {
        let g = analytic
            .iter()
            .find(|(p, _)| *p == id)
            .unwrap_or_else(|| panic!("no gradient reported for param {}", id.0));
        let shape = params.get(id).shape();
        for r in 0..shape.0 {
            for c in 0..shape.1 {
                let orig = params.get(id).get(r, c);
                params.get_mut(id).set(r, c, orig + h);
                let mut t1 = Tape::new();
                let l_plus = {
                    let l = f(&mut t1, params);
                    t1.scalar(l) as f64
                };
                params.get_mut(id).set(r, c, orig - h);
                let mut t2 = Tape::new();
                let l_minus = {
                    let l = f(&mut t2, params);
                    t2.scalar(l) as f64
                };
                params.get_mut(id).set(r, c, orig);
                let fd = ((l_plus - l_minus) / (2.0 * h as f64)) as f32;
                let a = g.1.get(r, c);
                assert!(
                    (a - fd).abs() <= tol * (1.0 + fd.abs()),
                    "param {} entry ({r},{c}): analytic {a} vs finite-diff {fd}",
                    id.0
                );
            }
        }
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(1234)
}

#[test]
fn matmul_chain_gradients() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w1 = params.add("w1", Matrix::random_uniform(4, 3, 0.5, &mut rng));
    let w2 = params.add("w2", Matrix::random_uniform(3, 2, 0.5, &mut rng));
    let x = Matrix::random_uniform(5, 4, 0.5, &mut rng);
    grad_check(
        &mut params,
        &[w1, w2],
        &move |t, p| {
            let xn = t.constant(x.clone());
            let a = t.param(w1, p);
            let b = t.param(w2, p);
            let h = t.matmul(xn, a);
            let y = t.matmul(h, b);
            t.sum_all(y)
        },
        2e-2,
    );
}

#[test]
fn spmm_gradient() {
    let mut rng = rng();
    let sparse = Arc::new(CsrMatrix::from_triplets(
        4,
        4,
        &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0), (2, 0, 0.3), (2, 3, 0.7), (3, 3, 1.0)],
    ));
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(4, 3, 0.5, &mut rng));
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let h = t.param(w, p);
            let s = t.spmm(Arc::clone(&sparse), h);
            let sq = t.hadamard(s, s);
            t.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn activation_gradients() {
    let mut rng = rng();
    // Offset inputs away from the ReLU kink at 0 for a clean finite diff.
    let base = Matrix::random_uniform(3, 4, 1.0, &mut rng).map(|v| v + v.signum() * 0.2);
    for act in ["relu", "tanh", "sigmoid", "softplus", "softsign"] {
        let mut params = ParamStore::new();
        let w = params.add("w", base.clone());
        let act = act.to_string();
        grad_check(
            &mut params,
            &[w],
            &move |t, p| {
                let x = t.param(w, p);
                let y = match act.as_str() {
                    "relu" => t.relu(x),
                    "tanh" => t.tanh(x),
                    "sigmoid" => t.sigmoid(x),
                    "softplus" => t.softplus(x),
                    "softsign" => t.softsign(x),
                    _ => unreachable!(),
                };
                let sq = t.hadamard(y, y);
                t.sum_all(sq)
            },
            3e-2,
        );
    }
}

#[test]
fn softmax_rows_gradient() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(3, 5, 1.0, &mut rng));
    let weights = Matrix::random_uniform(3, 5, 1.0, &mut rng);
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x = t.param(w, p);
            let s = t.softmax_rows(x);
            let c = t.constant(weights.clone());
            let weighted = t.hadamard(s, c);
            t.sum_all(weighted)
        },
        2e-2,
    );
}

#[test]
fn broadcast_transpose_scale_gradients() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(4, 3, 0.5, &mut rng));
    let b = params.add("b", Matrix::random_uniform(1, 3, 0.5, &mut rng));
    grad_check(
        &mut params,
        &[w, b],
        &move |t, p| {
            let x = t.param(w, p);
            let bias = t.param(b, p);
            let y = t.add_row_broadcast(x, bias);
            let yt = t.transpose(y);
            let scaled = t.scale(yt, 1.7);
            let sq = t.hadamard(scaled, scaled);
            t.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn gather_concat_slice_gradients() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(6, 4, 0.5, &mut rng));
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x = t.param(w, p);
            // Repeated indices exercise the scatter-add backward.
            let g1 = t.gather_rows(x, &[0, 2, 2, 5]);
            let g2 = t.gather_rows(x, &[1, 1]);
            let cat = t.concat_rows(&[g1, g2]);
            let sl = t.slice_cols(cat, 1, 3);
            let sq = t.hadamard(sl, sl);
            t.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn reduction_gradients() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(4, 3, 0.8, &mut rng));
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x = t.param(w, p);
            let sq = t.hadamard(x, x);
            let row = t.sum_rows(sq);
            t.mean_all(row)
        },
        2e-2,
    );
}

#[test]
fn add_sub_hadamard_two_param_gradients() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let a = params.add("a", Matrix::random_uniform(3, 3, 0.5, &mut rng));
    let b = params.add("b", Matrix::random_uniform(3, 3, 0.5, &mut rng));
    grad_check(
        &mut params,
        &[a, b],
        &move |t, p| {
            let x = t.param(a, p);
            let y = t.param(b, p);
            let s = t.add(x, y);
            let d = t.sub(x, y);
            let h = t.hadamard(s, d); // = x² − y²
            t.sum_all(h)
        },
        2e-2,
    );
}

#[test]
fn max_pool_gradient() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    // Well-separated values so ±h never flips an argmax.
    let mut base = Matrix::random_uniform(5, 3, 0.1, &mut rng);
    for r in 0..5 {
        for c in 0..3 {
            base.set(r, c, base.get(r, c) + (r as f32) * ((c + 1) as f32));
        }
    }
    let w = params.add("w", base);
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x = t.param(w, p);
            let pooled = t.max_pool_rows(x);
            let sq = t.hadamard(pooled, pooled);
            t.sum_all(sq)
        },
        2e-2,
    );
}

#[test]
fn im2col_conv_gradient() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let seq = params.add("seq", Matrix::random_uniform(8, 3, 0.5, &mut rng));
    let kernel = params.add("kernel", Matrix::random_uniform(9, 2, 0.5, &mut rng)); // 3*3 x 2
    grad_check(
        &mut params,
        &[seq, kernel],
        &move |t, p| {
            let x = t.param(seq, p);
            let k = t.param(kernel, p);
            let unfolded = t.im2col(x, 3);
            let conv = t.matmul(unfolded, k);
            let act = t.tanh(conv);
            let pooled = t.max_pool_rows(act);
            t.sum_all(pooled)
        },
        3e-2,
    );
}

#[test]
fn gmm_nll_gradient_through_tape() {
    let mut rng = rng();
    let m = 2;
    let mut params = ParamStore::new();
    // Keep μ near the targets so the NLL is in a well-conditioned regime.
    let mut theta = Matrix::random_uniform(3, 6 * m, 0.5, &mut rng);
    for b in 0..3 {
        theta.set(b, m, 40.5); // μ_lat block
        theta.set(b, m + 1, 40.9);
        theta.set(b, 2 * m, -74.1); // μ_lon block
        theta.set(b, 2 * m + 1, -73.8);
    }
    let w = params.add("theta", theta);
    let targets = vec![(40.7f64, -74.0f64), (40.6, -73.9), (40.8, -74.05)];
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x = t.param(w, p);
            t.gmm_nll(x, &targets, m)
        },
        3e-2,
    );
}

#[test]
fn gmm_nll_through_linear_layer() {
    // End-to-end through a dense layer, as the real model uses it (Eq. 7).
    let mut rng = rng();
    let m = 2;
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(4, 6 * m, 0.3, &mut rng));
    let b = params.add("b", {
        let mut bias = Matrix::zeros(1, 6 * m);
        // Bias the μ blocks into the metro area.
        for k in 0..m {
            bias.set(0, m + k, 40.7);
            bias.set(0, 2 * m + k, -74.0);
        }
        bias
    });
    let z = Matrix::random_uniform(3, 4, 0.5, &mut rng);
    let targets = vec![(40.7f64, -74.0f64), (40.65, -73.95), (40.75, -74.03)];
    grad_check(
        &mut params,
        &[w, b],
        &move |t, p| {
            let zn = t.constant(z.clone());
            let wn = t.param(w, p);
            let bn = t.param(b, p);
            let lin = t.matmul(zn, wn);
            let theta = t.add_row_broadcast(lin, bn);
            t.gmm_nll(theta, &targets, m)
        },
        3e-2,
    );
}

#[test]
fn mixture_const_nll_gradient_through_tape() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w = params.add("logits", Matrix::random_uniform(2, 5, 1.0, &mut rng));
    let log_comp = Matrix::random_uniform(2, 5, 2.0, &mut rng).map(|v| v - 3.0);
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x = t.param(w, p);
            t.mixture_const_nll(x, &log_comp)
        },
        2e-2,
    );
}

#[test]
fn shared_param_gradient_accumulates() {
    // The same parameter used twice must receive the sum of both paths.
    let mut rng = rng();
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::random_uniform(3, 3, 0.5, &mut rng));
    grad_check(
        &mut params,
        &[w],
        &move |t, p| {
            let x1 = t.param(w, p);
            let x2 = t.param(w, p);
            let prod = t.matmul(x1, x2); // w @ w
            t.sum_all(prod)
        },
        2e-2,
    );
}

#[test]
fn constants_receive_no_gradient() {
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::full(2, 2, 1.0));
    let mut t = Tape::new();
    let c = t.constant(Matrix::full(2, 2, 3.0));
    let x = t.param(w, &params);
    let y = t.matmul(c, x);
    let loss = t.sum_all(y);
    let grads = t.backward(loss);
    assert_eq!(grads.len(), 1);
    assert_eq!(grads[0].0, w);
}

#[test]
fn backward_requires_scalar() {
    let mut params = ParamStore::new();
    let w = params.add("w", Matrix::full(2, 2, 1.0));
    let mut t = Tape::new();
    let x = t.param(w, &params);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.backward(x)));
    assert!(result.is_err(), "backward from a non-scalar should panic");
}

#[test]
fn attention_block_gradient() {
    // The exact attention computation of Eq. 2–4 on one tweet.
    let mut rng = rng();
    let mut params = ParamStore::new();
    let h = params.add("h", Matrix::random_uniform(4, 6, 0.5, &mut rng)); // K=4 entities
    let q1 = params.add("q1", Matrix::random_uniform(6, 1, 0.5, &mut rng));
    let b1 = params.add("b1", Matrix::random_uniform(1, 1, 0.2, &mut rng));
    grad_check(
        &mut params,
        &[h, q1, b1],
        &move |t, p| {
            let hn = t.param(h, p);
            let q = t.param(q1, p);
            let b = t.param(b1, p);
            let scores = t.matmul(hn, q); // K x 1
            let biased = t.add_row_broadcast(scores, b);
            let s = t.relu(biased);
            let st = t.transpose(s); // 1 x K
            let w = t.softmax_rows(st); // Eq. 3
            let z = t.matmul(w, hn); // Eq. 4: 1 x d
            let sq = t.hadamard(z, z);
            t.sum_all(sq)
        },
        3e-2,
    );
}

#[test]
fn segment_attention_gradient() {
    // The same computation as one batch op over three tweets: a single
    // entity, three entities, and an entity repeated within a tweet.
    let mut rng = rng();
    let mut params = ParamStore::new();
    let src = params.add("src", Matrix::random_uniform(5, 6, 0.5, &mut rng));
    let q1 = params.add("q1", Matrix::random_uniform(6, 1, 0.5, &mut rng));
    let b1 = params.add("b1", Matrix::random_uniform(1, 1, 0.2, &mut rng));
    grad_check(
        &mut params,
        &[src, q1, b1],
        &move |t, p| {
            let s = t.param(src, p);
            let q = t.param(q1, p);
            let b = t.param(b1, p);
            let z = t.segment_attention(s, q, b, &[3, 0, 2, 4, 1, 4, 2], &[0, 1, 4, 7]);
            let sq = t.hadamard(z, z);
            t.sum_all(sq)
        },
        3e-2,
    );
}

#[test]
fn segment_sum_gradient() {
    let mut rng = rng();
    let mut params = ParamStore::new();
    let src = params.add("src", Matrix::random_uniform(5, 4, 0.5, &mut rng));
    grad_check(
        &mut params,
        &[src],
        &move |t, p| {
            let s = t.param(src, p);
            let z = t.segment_sum(s, &[3, 0, 2, 4, 1, 4, 2], &[0, 1, 4, 7]);
            let sq = t.hadamard(z, z);
            t.sum_all(sq)
        },
        3e-2,
    );
}
