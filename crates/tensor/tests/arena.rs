//! Arena recycling must be invisible: a tape carved out of recycled buffers
//! produces results **bit-for-bit identical** to a freshly allocating tape,
//! at every thread count, and buffers the caller still holds (gradients
//! handed out by `backward`) are never aliased by later tapes.

use std::sync::Arc;

use edge_tensor::init::xavier_uniform;
use edge_tensor::{CsrMatrix, Matrix, ParamId, ParamStore, Tape, TapeArena};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// A miniature EDGE training step: diffusion (matmul + spmm + relu), gather /
/// attention / concat aggregation, mixture head, fused GMM loss — every op
/// class the real train loop records.
struct Setup {
    adjacency: Arc<CsrMatrix>,
    features: Arc<Matrix>,
    params: ParamStore,
    w_gcn: ParamId,
    q1: ParamId,
    b1: ParamId,
    q2: ParamId,
    b2: ParamId,
    /// Per-tweet entity index lists, one batch per inner vec-of-vecs.
    batches: Vec<Vec<Vec<usize>>>,
    targets: Vec<Vec<(f64, f64)>>,
}

const N_ENTITIES: usize = 24;
const DIM: usize = 8;
const M: usize = 3;

/// A graph large enough that its diffusion products split across the pool:
/// `X·W` and its backward `Xᵀ·G` (`entities·dim·dim` multiply-adds), the
/// spmm and its backward spmmᵀ (`nnz·dim`, with `per_row` entries a row).
const SPLIT_ENTITIES: usize = 1024;
const SPLIT_PER_ROW: usize = 64;
const SPLIT_DIM: usize = 72;
const _: () = assert!(
    SPLIT_ENTITIES * SPLIT_DIM * SPLIT_DIM >= edge_tensor::PAR_THRESHOLD
        && SPLIT_ENTITIES * SPLIT_PER_ROW * SPLIT_DIM >= edge_tensor::PAR_THRESHOLD
);

fn setup() -> Setup {
    let mut rng = StdRng::seed_from_u64(42);
    let triplets: Vec<(usize, usize, f32)> = (0..120)
        .map(|_| {
            (rng.gen_range(0..N_ENTITIES), rng.gen_range(0..N_ENTITIES), rng.gen_range(0.0..1.0))
        })
        .collect();
    build(CsrMatrix::from_triplets(N_ENTITIES, N_ENTITIES, &triplets), DIM, rng)
}

/// The split-sized graph: `SPLIT_PER_ROW` distinct columns in every row (an
/// odd stride visits every residue mod a power of two once), so its `nnz`
/// is exactly the one the const-assert above counts.
fn split_setup() -> Setup {
    let mut rng = StdRng::seed_from_u64(43);
    let n = SPLIT_ENTITIES;
    let mut triplets = Vec::with_capacity(n * SPLIT_PER_ROW);
    for r in 0..n {
        let (start, stride) = (rng.gen_range(0..n), 2 * rng.gen_range(0..n / 2) + 1);
        for j in 0..SPLIT_PER_ROW {
            triplets.push((r, (start + j * stride) % n, rng.gen_range(0.0..1.0)));
        }
    }
    let adjacency = CsrMatrix::from_triplets(n, n, &triplets);
    assert_eq!(adjacency.nnz(), n * SPLIT_PER_ROW);
    build(adjacency, SPLIT_DIM, rng)
}

/// Features, parameters and batches for a step over `adjacency`.
fn build(adjacency: CsrMatrix, dim: usize, mut rng: StdRng) -> Setup {
    let entities = adjacency.rows();
    let adjacency = Arc::new(adjacency);
    let features = Arc::new(Matrix::random_uniform(entities, dim, 1.0, &mut rng));
    let mut params = ParamStore::new();
    let w_gcn = params.add("w", xavier_uniform(dim, dim, &mut rng));
    let q1 = params.add("q1", xavier_uniform(dim, 1, &mut rng));
    let b1 = params.add("b1", Matrix::full(1, 1, 1.0));
    let q2 = params.add("q2", xavier_uniform(dim, 6 * M, &mut rng));
    let b2 = params.add("b2", Matrix::random_uniform(1, 6 * M, 0.5, &mut rng));
    // Batches of varying size and entity-set length, so recycled buffers get
    // re-taken at different shapes.
    let mut batches = Vec::new();
    let mut targets = Vec::new();
    for b in 0..6 {
        let size = 3 + (b % 3);
        batches.push(
            (0..size)
                .map(|_| {
                    let k = rng.gen_range(1..5);
                    (0..k).map(|_| rng.gen_range(0..entities)).collect()
                })
                .collect(),
        );
        targets.push(
            (0..size)
                .map(|_| (40.0 + rng.gen_range(0.0..1.0), -74.0 + rng.gen_range(0.0..1.0)))
                .collect(),
        );
    }
    Setup { adjacency, features, params, w_gcn, q1, b1, q2, b2, batches, targets }
}

/// Records one training batch on `tape` and runs backward. Returns the loss
/// scalar and the parameter gradients.
fn run_batch(s: &Setup, mut tape: Tape, batch: usize) -> (f32, Vec<(ParamId, Matrix)>, TapeArena) {
    let x = tape.constant_shared(Arc::clone(&s.features));
    let wn = tape.param(s.w_gcn, &s.params);
    let xw = tape.matmul(x, wn);
    let prop = tape.spmm(Arc::clone(&s.adjacency), xw);
    let smoothed = tape.relu(prop);
    let mut rows = Vec::new();
    for entities in &s.batches[batch] {
        let h = tape.gather_rows(smoothed, entities);
        let q = tape.param(s.q1, &s.params);
        let b = tape.param(s.b1, &s.params);
        let scores = tape.matmul(h, q);
        let biased = tape.add_row_broadcast(scores, b);
        let act = tape.relu(biased);
        let st = tape.transpose(act);
        let w = tape.softmax_rows(st);
        rows.push(tape.matmul(w, h));
    }
    let z = tape.concat_rows(&rows);
    let w2 = tape.param(s.q2, &s.params);
    let b2 = tape.param(s.b2, &s.params);
    let lin = tape.matmul(z, w2);
    let theta = tape.add_row_broadcast(lin, b2);
    let nll = tape.gmm_nll(theta, &s.targets[batch], M);
    let loss = tape.scale(nll, 1.0 / s.batches[batch].len() as f32);
    let loss_val = tape.scalar(loss);
    let grads = tape.backward(loss);
    (loss_val, grads, tape.into_arena())
}

fn assert_bitwise_eq(label: &str, a: &[(ParamId, Matrix)], b: &[(ParamId, Matrix)]) {
    assert_eq!(a.len(), b.len(), "{label}: gradient count");
    for ((ida, ga), (idb, gb)) in a.iter().zip(b) {
        assert_eq!(ida, idb, "{label}: gradient order");
        assert_eq!(ga.shape(), gb.shape(), "{label}: gradient shape");
        for (i, (x, y)) in ga.data().iter().zip(gb.data()).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{label}: param {} entry {i}: {x} vs {y}", ida.0);
        }
    }
}

#[test]
fn arena_tapes_match_fresh_tapes_bitwise_across_threads() {
    // The small graph runs every product on the calling thread; the split
    // graph runs its diffusion products in the pool at 2 and 8 threads.
    for s in [setup(), split_setup()] {
        assert_arena_matches_fresh(&s);
    }
}

fn assert_arena_matches_fresh(s: &Setup) {
    // The scalar single-thread fresh-tape run anchors the whole sweep: every
    // (threads × kernels × fresh/arena) combination must reproduce it bit
    // for bit, which is exactly the training determinism contract.
    let reference: Vec<(f32, Vec<(ParamId, Matrix)>)> = edge_tensor::with_scalar_kernels(|| {
        edge_par::with_max_threads(1, || {
            (0..s.batches.len())
                .map(|batch| {
                    let (loss, grads, _) = run_batch(s, Tape::new(), batch);
                    (loss, grads)
                })
                .collect()
        })
    });
    for simd in [false, true] {
        for threads in THREAD_SWEEP {
            let body = || {
                edge_par::with_max_threads(threads, || {
                    let mut arena = TapeArena::new();
                    for (batch, (ref_loss, ref_grads)) in reference.iter().enumerate() {
                        let tag = format!("batch {batch} @ {threads} threads, simd={simd}");
                        let (fresh_loss, fresh_grads, _) = run_batch(s, Tape::new(), batch);
                        let (pool_loss, pool_grads, back) =
                            run_batch(s, Tape::with_arena(std::mem::take(&mut arena)), batch);
                        assert!(
                            fresh_loss.to_bits() == pool_loss.to_bits()
                                && fresh_loss.to_bits() == ref_loss.to_bits(),
                            "loss diverges at {tag}"
                        );
                        assert_bitwise_eq(&tag, &fresh_grads, &pool_grads);
                        assert_bitwise_eq(&tag, ref_grads, &pool_grads);
                        // Recycle the arena-path gradients like the train
                        // loop does.
                        arena = back;
                        for (_, g) in pool_grads {
                            arena.recycle(g);
                        }
                    }
                    // The steady state actually recycles: after six batches
                    // the pools must have served far more buffers than they
                    // allocated fresh.
                    let stats = arena.stats();
                    assert!(
                        stats.reused > stats.fresh,
                        "arena never warmed up: {stats:?} @ {threads} threads"
                    );
                });
            };
            if simd {
                body();
            } else {
                edge_tensor::with_scalar_kernels(body);
            }
        }
    }
}

#[test]
fn recycling_never_aliases_gradients_still_held_by_the_caller() {
    let s = setup();
    let mut arena = TapeArena::new();
    // Warm the pools.
    let (_, warm_grads, mut arena_back) =
        run_batch(&s, Tape::with_arena(std::mem::take(&mut arena)), 0);
    for (_, g) in warm_grads {
        arena_back.recycle(g);
    }
    // Batch 1's gradients are NOT recycled — the caller keeps them.
    let (_, held, arena2) = run_batch(&s, Tape::with_arena(arena_back), 1);
    let snapshot: Vec<Vec<u32>> =
        held.iter().map(|(_, g)| g.data().iter().map(|v| v.to_bits()).collect()).collect();
    // Two more batches over the same arena, overwriting recycled storage.
    let (_, g2, arena3) = run_batch(&s, Tape::with_arena(arena2), 2);
    let mut arena3 = arena3;
    for (_, g) in g2 {
        arena3.recycle(g);
    }
    let (_, g3, _) = run_batch(&s, Tape::with_arena(arena3), 3);
    drop(g3);
    // The held gradients must be byte-identical to their snapshot: recycled
    // buffers never alias memory the caller still owns.
    for ((_, g), snap) in held.iter().zip(&snapshot) {
        let now: Vec<u32> = g.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&now, snap, "a later tape overwrote a gradient the caller still holds");
    }
}

#[test]
fn fresh_and_arena_values_agree_on_every_node_shape_change() {
    // Shape-churn stress: alternating big/small takes from the same pool
    // classes must still zero correctly (a stale-tail bug would show here).
    let mut arena = TapeArena::new();
    for round in 0..4 {
        let big = arena.take_matrix(32, 32);
        assert_eq!(big, Matrix::zeros(32, 32), "round {round}");
        arena.recycle(big);
        let small = arena.take_matrix(3, 5);
        assert_eq!(small, Matrix::zeros(3, 5), "round {round}");
        let mut dirty = small;
        dirty.fill(9.0);
        arena.recycle(dirty);
    }
}
