//! Attention aggregation (paper Eq. 2–4): per-entity importance scores via
//! a biased linear layer + ReLU, softmax normalization, and a weighted sum
//! into a fixed-length tweet embedding.
//!
//! As with the GCN, a tape path serves training and a plain-matrix path
//! serves inference. Training pools a whole batch in one tape node
//! ([`attention_batch`]; the SUM ablation calls `Tape::segment_sum`): the
//! tweets' entity ids are concatenated and split by offsets, after PyTorch
//! Geometric's `utils.softmax(src, index)`. The inference path works on one tweet and
//! additionally returns the attention weights, which are the per-entity
//! interpretability signal.

use edge_tensor::tape::{NodeId, ParamId, ParamStore, Tape};
use edge_tensor::{tape::softmax_in_place, Matrix};

/// Tape path: aggregates a whole training batch in one segment op. Tweet
/// `t`'s entities are the rows `seg_idx[seg_off[t]..seg_off[t + 1]]` of
/// `smoothed` (the full `|V| × h` matrix node); row `t` of the returned
/// `B × h` node is its embedding.
pub fn attention_batch(
    tape: &mut Tape,
    smoothed: NodeId,
    seg_idx: &[usize],
    seg_off: &[usize],
    q1: ParamId,
    b1: ParamId,
    params: &ParamStore,
) -> NodeId {
    let _span = edge_obs::span("attention");
    // `q1` before `b1`: backward then reports b1's gradient before q1's,
    // the order the optimizer has always seen.
    let q = tape.param(q1, params); // h x 1
    let b = tape.param(b1, params); // 1 x 1
    let z = tape.segment_attention(smoothed, q, b, seg_idx, seg_off); // Eq. 2–4
    edge_obs::counter!("core.attention.aggregate.calls").inc((seg_off.len() - 1) as u64);
    z
}

/// Inference path: returns `(z, attention_weights)` with weights parallel
/// to `entity_indices`. Agrees with [`attention_batch`] to float rounding.
pub fn attention_infer(
    smoothed: &Matrix,
    entity_indices: &[usize],
    q1: &Matrix,
    b1: &Matrix,
) -> (Matrix, Vec<f32>) {
    assert!(!entity_indices.is_empty(), "attention needs at least one entity");
    let h = smoothed.gather_rows(entity_indices); // K x h
    let mut scores: Vec<f32> =
        h.matmul(q1).data().iter().map(|s| (s + b1.get(0, 0)).max(0.0)).collect();
    softmax_in_place(&mut scores);
    let mut z = Matrix::zeros(1, h.cols());
    for (k, &w) in scores.iter().enumerate() {
        for (zv, &hv) in z.row_mut(0).iter_mut().zip(h.row(k)) {
            *zv += w * hv;
        }
    }
    (z, scores)
}

/// Inference path of the SUM ablation.
pub fn sum_infer(smoothed: &Matrix, entity_indices: &[usize]) -> Matrix {
    assert!(!entity_indices.is_empty(), "aggregation needs at least one entity");
    smoothed.gather_rows(entity_indices).sum_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Matrix, ParamStore, ParamId, ParamId) {
        let mut rng = StdRng::seed_from_u64(3);
        let smoothed = Matrix::random_uniform(10, 6, 1.0, &mut rng);
        let mut params = ParamStore::new();
        let q1 = params.add("q1", Matrix::random_uniform(6, 1, 0.8, &mut rng));
        let b1 = params.add("b1", Matrix::full(1, 1, 0.1));
        (smoothed, params, q1, b1)
    }

    /// Three tweets in the batch layout: `[1, 4, 7]`, `[6]`, `[2, 2, 9]`.
    const SEG_IDX: [usize; 7] = [1, 4, 7, 6, 2, 2, 9];
    const SEG_OFF: [usize; 4] = [0, 3, 4, 7];

    #[test]
    fn tape_and_inference_paths_agree() {
        let (smoothed, params, q1, b1) = setup();
        let mut tape = Tape::new();
        let sn = tape.constant(smoothed.clone());
        let z_node = attention_batch(&mut tape, sn, &SEG_IDX, &SEG_OFF, q1, b1, &params);
        let z_tape = tape.value(z_node).clone();
        assert_eq!(z_tape.shape(), (3, 6));
        for (t, seg) in SEG_OFF.windows(2).enumerate() {
            let indices = &SEG_IDX[seg[0]..seg[1]];
            let (z_infer, weights) =
                attention_infer(&smoothed, indices, params.get(q1), params.get(b1));
            for (a, b) in z_tape.row(t).iter().zip(z_infer.data()) {
                assert!((a - b).abs() < 1e-6, "tweet {t}: {a} vs {b}");
            }
            assert_eq!(weights.len(), indices.len());
        }
    }

    #[test]
    fn weights_are_a_distribution() {
        let (smoothed, params, q1, b1) = setup();
        let (_, w) = attention_infer(&smoothed, &[0, 2, 5, 9], params.get(q1), params.get(b1));
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn single_entity_gets_full_weight() {
        let (smoothed, params, q1, b1) = setup();
        let (z, w) = attention_infer(&smoothed, &[6], params.get(q1), params.get(b1));
        assert_eq!(w, vec![1.0]);
        for (a, b) in z.data().iter().zip(smoothed.row(6)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn z_is_convex_combination_of_rows() {
        // Each output coordinate lies within the min/max of the gathered rows.
        let (smoothed, params, q1, b1) = setup();
        let indices = [2, 3, 8];
        let (z, _) = attention_infer(&smoothed, &indices, params.get(q1), params.get(b1));
        for c in 0..smoothed.cols() {
            let vals: Vec<f32> = indices.iter().map(|&i| smoothed.get(i, c)).collect();
            let lo = vals.iter().copied().fold(f32::INFINITY, f32::min) - 1e-6;
            let hi = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max) + 1e-6;
            assert!((lo..=hi).contains(&z.get(0, c)));
        }
    }

    #[test]
    fn informative_entity_attracts_weight() {
        // With q1 picking out coordinate 0, the row with the largest first
        // coordinate should win the attention.
        let smoothed = Matrix::from_rows(&[
            vec![0.1, 0.5],
            vec![3.0, 0.5], // strong signal
            vec![0.2, 0.5],
        ]);
        let q1 = Matrix::from_rows(&[vec![1.0], vec![0.0]]);
        let b1 = Matrix::zeros(1, 1);
        let (_, w) = attention_infer(&smoothed, &[0, 1, 2], &q1, &b1);
        assert!(w[1] > w[0] && w[1] > w[2], "weights {w:?}");
    }

    #[test]
    fn sum_paths_agree_and_add_rows() {
        let (smoothed, _, _, _) = setup();
        let mut tape = Tape::new();
        let sn = tape.constant(smoothed.clone());
        let z_node = tape.segment_sum(sn, &SEG_IDX, &SEG_OFF);
        let z_tape = tape.value(z_node).clone();
        for (t, seg) in SEG_OFF.windows(2).enumerate() {
            let indices = &SEG_IDX[seg[0]..seg[1]];
            let z_infer = sum_infer(&smoothed, indices);
            for c in 0..smoothed.cols() {
                let expected: f32 = indices.iter().map(|&i| smoothed.get(i, c)).sum();
                assert!((z_tape.get(t, c) - expected).abs() < 1e-6);
                assert!((z_infer.get(0, c) - expected).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entity")]
    fn empty_entity_set_panics() {
        let (smoothed, params, q1, b1) = setup();
        let _ = attention_infer(&smoothed, &[], params.get(q1), params.get(b1));
    }
}
