//! Exactness oracle for the batch segment ops.
//!
//! [`Tape::segment_attention`] and [`Tape::segment_sum`] replace a graph of
//! primitive tape ops built once per tweet. Training stays bit-for-bit
//! reproducible only if they match that graph to the bit: forward values,
//! every gradient, and the order in which `backward` reports parameters.
//! These tests rebuild the per-tweet graph from primitive ops and compare
//! `to_bits()` on random batches. The batches include single-entity tweets,
//! ids repeated within a tweet, tweets whose scores all clamp to zero at
//! the ReLU, softmax weights that underflow to exactly zero, and zero
//! entries in every operand (the matmul kernels skip a zero left factor).

use edge_tensor::matrix::Matrix;
use edge_tensor::tape::{NodeId, ParamId, ParamStore, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows of the source matrix: `0..NORMAL` random, then `DEAD` rows whose
/// scores clamp to zero, then `HOT` rows whose scores dominate so far that
/// every other weight of their tweet underflows to zero.
const NORMAL: usize = 8;
const DEAD: usize = 3;
const HOT: usize = 2;
const ROWS: usize = NORMAL + DEAD + HOT;

struct Batch {
    src: Matrix,
    q: Matrix,
    b: Matrix,
    ids: Vec<usize>,
    offsets: Vec<usize>,
    /// The gradient arriving at the `B × h` output.
    upstream: Matrix,
}

/// A value in `-1..1`, exactly zero one time in six.
fn entry(rng: &mut StdRng) -> f32 {
    if rng.gen_range(0..6) == 0 {
        0.0
    } else {
        rng.gen_range(-1.0f32..1.0)
    }
}

fn random_batch(seed: u64, h: usize) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    // |q_j| >= 0.25 where nonzero, and q_0 != 0, so the dead and hot rows
    // below score far from the ReLU kink.
    let q: Vec<f32> = (0..h)
        .map(|j| {
            if j > 0 && rng.gen_range(0..5) == 0 {
                0.0
            } else {
                rng.gen_range(0.25f32..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 }
            }
        })
        .collect();
    let b = rng.gen_range(-0.3f32..0.3);
    let mut src = Vec::with_capacity(ROWS * h);
    for r in 0..ROWS {
        for &qj in &q {
            let v = match r {
                r if r < NORMAL => entry(&mut rng),
                // Score <= -4·|q_0| <= -1, below any bias here.
                r if r < NORMAL + DEAD => -4.0 * qj.signum() * rng.gen_range(1.0f32..2.0),
                // Score >= 1000·|q_0| >= 250: exp(-250) underflows to zero.
                _ => 1000.0 * qj.signum(),
            };
            src.push(if qj == 0.0 { entry(&mut rng) } else { v });
        }
    }
    let n_tweets = rng.gen_range(1..=10);
    let mut ids = Vec::new();
    let mut offsets = vec![0];
    for t in 0..n_tweets {
        // The first four tweets cover each kind; later ones are random.
        let kind = if t < 4 { t } else { rng.gen_range(0..5) };
        match kind {
            0 => ids.push(rng.gen_range(0..ROWS)),
            1 => {
                // A repeated id, possibly more than twice.
                let k = rng.gen_range(2usize..=6);
                let first = ids.len();
                for _ in 0..k {
                    ids.push(rng.gen_range(0..ROWS));
                }
                let dup = first + rng.gen_range(1..k);
                ids[dup] = ids[first + rng.gen_range(0..dup - first)];
            }
            2 => {
                for _ in 0..rng.gen_range(1..=6) {
                    ids.push(rng.gen_range(NORMAL..NORMAL + DEAD));
                }
            }
            3 => {
                ids.push(rng.gen_range(NORMAL + DEAD..ROWS));
                for _ in 0..rng.gen_range(1..=5) {
                    ids.push(rng.gen_range(0..NORMAL));
                }
            }
            _ => {
                for _ in 0..rng.gen_range(1..=6) {
                    ids.push(rng.gen_range(0..ROWS));
                }
            }
        }
        offsets.push(ids.len());
    }
    let upstream =
        Matrix::from_vec(n_tweets, h, (0..n_tweets * h).map(|_| entry(&mut rng)).collect());
    Batch {
        src: Matrix::from_vec(ROWS, h, src),
        q: Matrix::from_vec(h, 1, q),
        b: Matrix::full(1, 1, b),
        ids,
        offsets,
        upstream,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Attention over a source that needs a gradient (GCN on).
    Attention,
    /// Attention over a constant source (the NoGCN ablation).
    AttentionConstSrc,
    /// The SUM ablation.
    Sum,
}

/// Forward output and reported gradients of one graph.
struct Run {
    out: Matrix,
    grads: Vec<(ParamId, Matrix)>,
}

/// Builds the graph (per-tweet primitives when `reference`, the segment op
/// otherwise), pulls `upstream` back through it, and returns what it saw.
fn run(batch: &Batch, mode: Mode, reference: bool) -> Run {
    let mut params = ParamStore::new();
    let src_id = params.add("src", batch.src.clone());
    let q_id = params.add("q", batch.q.clone());
    let b_id = params.add("b", batch.b.clone());
    let mut tape = Tape::new();
    let src = if mode == Mode::AttentionConstSrc {
        tape.constant(batch.src.clone())
    } else {
        tape.param(src_id, &params)
    };
    let out = if reference {
        let mut rows: Vec<NodeId> = Vec::new();
        for seg in batch.offsets.windows(2) {
            let ids = &batch.ids[seg[0]..seg[1]];
            let h = tape.gather_rows(src, ids);
            let z = if mode == Mode::Sum {
                tape.sum_rows(h)
            } else {
                let q = tape.param(q_id, &params);
                let b = tape.param(b_id, &params);
                let scores = tape.matmul(h, q);
                let biased = tape.add_row_broadcast(scores, b);
                let s = tape.relu(biased);
                let st = tape.transpose(s);
                let w = tape.softmax_rows(st);
                tape.matmul(w, h)
            };
            rows.push(z);
        }
        tape.concat_rows(&rows)
    } else if mode == Mode::Sum {
        tape.segment_sum(src, &batch.ids, &batch.offsets)
    } else {
        let q = tape.param(q_id, &params);
        let b = tape.param(b_id, &params);
        tape.segment_attention(src, q, b, &batch.ids, &batch.offsets)
    };
    // d(loss)/d(out) is exactly `upstream`: sum_all seeds 1.0 and the
    // Hadamard rule multiplies it by the constant.
    let r = tape.constant(batch.upstream.clone());
    let weighted = tape.hadamard(out, r);
    let loss = tape.sum_all(weighted);
    let grads = tape.backward(loss);
    Run { out: tape.value(out).clone(), grads }
}

fn assert_bits_eq(what: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}[{i}]: segment op {x:e} vs per-tweet {y:e}");
    }
}

fn assert_matches_reference(batch: &Batch, mode: Mode) {
    let got = run(batch, mode, false);
    let want = run(batch, mode, true);
    assert_bits_eq("forward", &got.out, &want.out);
    let order = |r: &Run| r.grads.iter().map(|(p, _)| p.0).collect::<Vec<_>>();
    assert_eq!(order(&got), order(&want), "parameter gradient order");
    for ((p, g), (_, w)) in got.grads.iter().zip(&want.grads) {
        assert_bits_eq(&format!("grad of param {}", p.0), g, w);
    }
}

fn check_all_modes(seed: u64, h: usize) {
    let batch = random_batch(seed, h);
    for mode in [Mode::Attention, Mode::AttentionConstSrc, Mode::Sum] {
        assert_matches_reference(&batch, mode);
        edge_tensor::with_scalar_kernels(|| assert_matches_reference(&batch, mode));
    }
}

/// Widths on both sides of the SIMD kernels' 8-column cut-over, and the
/// training width.
const WIDTHS: [usize; 5] = [1, 3, 8, 17, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn segment_ops_match_per_tweet_graph_bitwise(seed in any::<u64>(), w in 0usize..5) {
        check_all_modes(seed, WIDTHS[w]);
    }
}

#[test]
fn every_tweet_kind_is_covered() {
    // The generator's first four tweets are one of each kind, so a batch of
    // at least four exercises all of them; pin one such batch per width.
    for &h in &WIDTHS {
        let seed = (0..).find(|&s| random_batch(s, h).offsets.len() > 4).unwrap();
        let batch = random_batch(seed, h);
        let seg = |t: usize| &batch.ids[batch.offsets[t]..batch.offsets[t + 1]];
        assert_eq!(seg(0).len(), 1, "single-entity tweet");
        assert!(seg(1).iter().enumerate().any(|(i, v)| seg(1)[..i].contains(v)), "repeat");
        assert!(seg(2).iter().all(|&v| (NORMAL..NORMAL + DEAD).contains(&v)), "dead");
        assert!((NORMAL + DEAD..ROWS).contains(&seg(3)[0]), "hot");
        check_all_modes(seed, h);
    }
}

#[test]
fn dead_and_hot_tweets_do_what_they_say() {
    // Guards the generator: a dead tweet's weights are uniform (every score
    // clamped to zero), and a hot tweet puts all weight on its hot row.
    let batch = random_batch(7, 64);
    let mut tape = Tape::new();
    let src = tape.constant(batch.src.clone());
    let q = tape.constant(batch.q.clone());
    let b = tape.constant(batch.b.clone());
    for t in [2, 3] {
        let ids = &batch.ids[batch.offsets[t]..batch.offsets[t + 1]];
        let h = tape.gather_rows(src, ids);
        let scores = tape.matmul(h, q);
        let biased = tape.add_row_broadcast(scores, b);
        let s = tape.relu(biased);
        if t == 2 {
            assert!(tape.value(s).data().iter().all(|&x| x == 0.0), "dead tweet scored");
        } else {
            let st = tape.transpose(s);
            let w = tape.softmax_rows(st);
            let w = tape.value(w).data();
            assert_eq!(w[0], 1.0, "hot row takes all weight");
            assert!(w[1..].iter().all(|&x| x == 0.0), "others underflow: {w:?}");
        }
    }
}

#[test]
fn one_node_per_batch() {
    let batch = random_batch(3, 8);
    let mut tape = Tape::new();
    let src = tape.constant(batch.src.clone());
    let before = tape.len();
    tape.segment_sum(src, &batch.ids, &batch.offsets);
    assert_eq!(tape.len(), before + 1);
}

#[test]
#[should_panic(expected = "at least one entity")]
fn empty_segment_panics() {
    let mut tape = Tape::new();
    let src = tape.constant(Matrix::zeros(4, 2));
    tape.segment_sum(src, &[0, 1], &[0, 2, 2]);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_id_panics() {
    let mut tape = Tape::new();
    let src = tape.constant(Matrix::zeros(4, 2));
    tape.segment_sum(src, &[0, 4], &[0, 2]);
}
