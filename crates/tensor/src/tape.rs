//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an eagerly evaluated computation graph: every builder
//! method computes the forward value immediately and records the operation
//! so that [`Tape::backward`] can later push gradients from a scalar loss to
//! every parameter leaf. One tape is built per training step; persistent
//! parameters live in a [`ParamStore`].
//!
//! The operation set is exactly what the EDGE model family needs: dense and
//! sparse matrix products (GCN layers), the activation functions of
//! Eq. 2/10/11/12 (ReLU, softplus, softsign, softmax), row gather/concat,
//! 1-D convolution with max-pooling (the UnicodeCNN baseline) and two fused
//! negative-log-likelihood heads (the bivariate-Gaussian-mixture loss of
//! Eq. 13 and the fixed-component MvMF loss) whose hand-derived gradients
//! are verified against finite differences in this crate's tests.
//!
//! A training batch aggregates all of its tweets in one node:
//! [`Tape::segment_attention`] (Eq. 2–4) or [`Tape::segment_sum`] (the SUM
//! ablation) take the concatenated entity ids and per-tweet offsets, so the
//! tape's size does not grow with the batch. Their hand-written backward
//! passes are bit-identical to the per-tweet graph of primitive ops
//! (gather, matmul, bias, ReLU, transpose, softmax, matmul) they replace;
//! `tests/segment.rs` holds that graph as the oracle.
//!
//! ## Memory plan
//!
//! Tapes are built to be *recycled*, not merely dropped. Every transient
//! buffer a tape creates — node values, backward gradients, gather index
//! lists, fused-loss scratch — is carved out of a [`TapeArena`]
//! ([`Tape::with_arena`]) and returned to it by [`Tape::into_arena`], so a
//! steady-state training loop allocates nothing per batch. Parameter and
//! constant leaves are zero-copy: [`Tape::param`] and
//! [`Tape::constant_shared`] record an `Arc` onto the tape instead of
//! deep-cloning the matrix. Recycled buffers are re-zeroed before reuse, so
//! results are bit-for-bit identical to a fresh-allocation tape.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::arena::TapeArena;
use crate::matrix::Matrix;
use crate::segment::{self, AttentionGrads, Segments};
use crate::sparse::CsrMatrix;

/// Handle to a persistent parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// Persistent trainable parameters, shared across training steps.
///
/// Values are stored behind `Arc` so a tape can record a parameter leaf
/// without deep-cloning it ([`ParamStore::shared`]). Mutation goes through
/// [`ParamStore::get_mut`], which is copy-on-write: it is in-place whenever
/// no tape still holds the value (the train loop guarantees this by retiring
/// the tape before the optimizer step). `clone()` is correspondingly shallow
/// and copy-on-write.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    mats: Vec<Arc<Matrix>>,
    names: Vec<String>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.mats.push(Arc::new(value));
        self.names.push(name.into());
        ParamId(self.mats.len() - 1)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Reads a parameter value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// A shared handle to a parameter value (the zero-copy leaf for
    /// [`Tape::param`]).
    pub fn shared(&self, id: ParamId) -> Arc<Matrix> {
        Arc::clone(&self.mats[id.0])
    }

    /// Mutates a parameter value (used by optimizers). Copy-on-write: clones
    /// the matrix first iff some tape or checkpoint still shares it.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.mats[id.0])
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.mats
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (m, n))| (ParamId(i), n.as_str(), &**m))
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

/// A node's forward value: owned (arena-recyclable) or shared zero-copy with
/// a [`ParamStore`] / caller-held constant.
#[derive(Debug)]
pub(crate) enum Value {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl Value {
    #[inline]
    fn as_matrix(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(m) => m,
        }
    }
}

#[derive(Debug)]
pub(crate) enum Op {
    Constant,
    Param(ParamId),
    MatMul(NodeId, NodeId),
    /// Sparse × dense; the sparse operand is constant (no gradient).
    SpMM(Arc<CsrMatrix>, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Hadamard(NodeId, NodeId),
    Scale(NodeId, f32),
    /// `matrix + row` broadcast over rows.
    AddRowBroadcast(NodeId, NodeId),
    Relu(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Softplus(NodeId),
    Softsign(NodeId),
    /// Softmax applied independently to each row.
    SoftmaxRows(NodeId),
    Transpose(NodeId),
    GatherRows(NodeId, Vec<usize>),
    SliceCols(NodeId, usize, usize),
    ConcatRows(Vec<NodeId>),
    /// Column-wise sum, producing a single row.
    SumRows(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    /// Column-wise max over rows with cached argmax (global max pooling).
    MaxPoolRows(NodeId, Vec<usize>),
    /// Sliding-window row unfolding for 1-D convolution. Caches the kernel
    /// width; stride is 1.
    Im2Col(NodeId, usize),
    /// Fused bivariate-Gaussian-mixture NLL (Eq. 13) with gradient cached at
    /// forward time.
    GmmNll(NodeId, Matrix),
    /// Fused fixed-component mixture NLL (UnicodeCNN head) with cached
    /// gradient.
    MixtureConstNll(NodeId, Matrix),
    /// One batch's per-segment pooling of gathered `src` rows (see the
    /// `segment` module): attention-weighted (Eq. 2–4) when `scorer`
    /// holds the `(q, b)` nodes, with the pre-ReLU scores and the weights
    /// cached in `cache`; a plain row sum (the SUM ablation) when it is
    /// `None`.
    SegmentPool {
        src: NodeId,
        scorer: Option<(NodeId, NodeId)>,
        segs: Segments,
        cache: Matrix,
    },
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) value: Value,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
}

/// An eagerly evaluated autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    arena: TapeArena,
}

/// Accumulates `delta` into the gradient slot of `target`, recycling the
/// delta buffer when the slot already holds a gradient. Bit-identical to the
/// historical clone-then-add: the existing slot stays the accumulator, so
/// addition order is unchanged.
fn acc(arena: &mut TapeArena, grads: &mut [Option<Matrix>], target: NodeId, delta: Matrix) {
    match &mut grads[target.0] {
        Some(existing) => {
            existing.add_scaled_inplace(&delta, 1.0);
            arena.recycle(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

impl Tape {
    /// An empty tape with a private arena (every buffer freshly allocated —
    /// the reference mode the recycled path is tested against).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tape that carves its buffers out of `arena`'s recycled storage.
    /// Retire the tape with [`Tape::into_arena`] to keep the cycle going.
    pub fn with_arena(mut arena: TapeArena) -> Self {
        let nodes = std::mem::take(&mut arena.nodes);
        Self { nodes, arena }
    }

    /// Tears the tape down, returning every recyclable buffer (node values,
    /// index lists, cached loss gradients, the node vector itself) to the
    /// arena. Shared (`Arc`) leaves only drop their refcount — which is what
    /// lets the optimizer update parameters in place afterwards.
    pub fn into_arena(mut self) -> TapeArena {
        let mut nodes = std::mem::take(&mut self.nodes);
        let mut arena = std::mem::take(&mut self.arena);
        for node in nodes.drain(..) {
            let Node { value, op, .. } = node;
            match op {
                Op::GatherRows(_, indices) => arena.recycle_indices(indices),
                Op::MaxPoolRows(_, argmax) => arena.recycle_indices(argmax),
                Op::ConcatRows(parts) => arena.recycle_node_list(parts),
                Op::GmmNll(_, cached) | Op::MixtureConstNll(_, cached) => arena.recycle(cached),
                Op::SegmentPool { segs, cache, .. } => {
                    arena.recycle_indices(segs.ids);
                    arena.recycle_indices(segs.offsets);
                    arena.recycle(cache);
                }
                _ => {}
            }
            if let Value::Owned(m) = value {
                arena.recycle(m);
            }
        }
        arena.nodes = nodes;
        arena
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        self.nodes[id.0].value.as_matrix()
    }

    /// The scalar value of a 1×1 node.
    pub fn scalar(&self, id: NodeId) -> f32 {
        let v = self.value(id);
        assert_eq!(v.shape(), (1, 1), "scalar() on a non-scalar node {:?}", v.shape());
        v.get(0, 0)
    }

    fn push(&mut self, value: Value, op: Op, requires_grad: bool) -> NodeId {
        edge_obs::counter!("tensor.tape.ops").inc(1);
        self.nodes.push(Node { value, op, requires_grad });
        NodeId(self.nodes.len() - 1)
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// An arena matrix shaped like node `id` (split-borrow helper: computes
    /// the shape before taking the arena mutably).
    fn take_like_node(&mut self, id: NodeId) -> Matrix {
        let (rows, cols) = self.value(id).shape();
        self.arena.take_matrix(rows, cols)
    }

    // ---- leaves -----------------------------------------------------------

    /// Records a constant (no gradient flows into it).
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push(Value::Owned(value), Op::Constant, false)
    }

    /// Records a constant without copying it: the tape holds a refcount, not
    /// a clone. The buffer is returned to the caller's `Arc` (not the arena)
    /// on teardown.
    pub fn constant_shared(&mut self, value: Arc<Matrix>) -> NodeId {
        self.push(Value::Shared(value), Op::Constant, false)
    }

    /// Records a parameter leaf whose gradient will be reported by
    /// [`Tape::backward`]. Zero-copy: shares the store's matrix.
    pub fn param(&mut self, id: ParamId, store: &ParamStore) -> NodeId {
        self.push(Value::Shared(store.shared(id)), Op::Param(id), true)
    }

    // ---- linear algebra ---------------------------------------------------

    /// `a × b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = (self.value(a).rows(), self.value(b).cols());
        let mut v = self.arena.take_matrix(rows, cols);
        self.value(a).matmul_into(self.value(b), &mut v);
        let g = self.rg(a) || self.rg(b);
        self.push(Value::Owned(v), Op::MatMul(a, b), g)
    }

    /// `sparse × dense` with a constant sparse operand.
    pub fn spmm(&mut self, sparse: Arc<CsrMatrix>, dense: NodeId) -> NodeId {
        let mut v = self.arena.take_matrix(sparse.rows(), self.value(dense).cols());
        sparse.matmul_dense_into(self.value(dense), &mut v);
        let g = self.rg(dense);
        self.push(Value::Owned(v), Op::SpMM(sparse, dense), g)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.take_like_node(a);
        self.value(a).zip_map_into(self.value(b), &mut v, |x, y| x + y);
        let g = self.rg(a) || self.rg(b);
        self.push(Value::Owned(v), Op::Add(a, b), g)
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.take_like_node(a);
        self.value(a).zip_map_into(self.value(b), &mut v, |x, y| x - y);
        let g = self.rg(a) || self.rg(b);
        self.push(Value::Owned(v), Op::Sub(a, b), g)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.take_like_node(a);
        self.value(a).zip_map_into(self.value(b), &mut v, |x, y| x * y);
        let g = self.rg(a) || self.rg(b);
        self.push(Value::Owned(v), Op::Hadamard(a, b), g)
    }

    /// `a * s` for a scalar `s`.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let mut v = self.take_like_node(a);
        self.value(a).map_into(&mut v, |x| x * s);
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::Scale(a, s), g)
    }

    /// `matrix + row`, the bias-add of Eq. 2 / Eq. 7.
    pub fn add_row_broadcast(&mut self, matrix: NodeId, row: NodeId) -> NodeId {
        let mut v = self.take_like_node(matrix);
        self.value(matrix).add_row_broadcast_into(self.value(row), &mut v);
        let g = self.rg(matrix) || self.rg(row);
        self.push(Value::Owned(v), Op::AddRowBroadcast(matrix, row), g)
    }

    // ---- activations ------------------------------------------------------

    fn unary_map(&mut self, a: NodeId, op: Op, f: impl Fn(f32) -> f32) -> NodeId {
        let mut v = self.take_like_node(a);
        self.value(a).map_into(&mut v, f);
        let g = self.rg(a);
        self.push(Value::Owned(v), op, g)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.unary_map(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.unary_map(a, Op::Tanh(a), f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.unary_map(a, Op::Sigmoid(a), |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Softplus `ln(1 + eˣ)` (Eq. 10), computed stably for large |x|.
    pub fn softplus(&mut self, a: NodeId) -> NodeId {
        self.unary_map(a, Op::Softplus(a), softplus_f32)
    }

    /// Softsign `x / (1 + |x|)` (Eq. 11).
    pub fn softsign(&mut self, a: NodeId) -> NodeId {
        self.unary_map(a, Op::Softsign(a), |x| x / (1.0 + x.abs()))
    }

    /// Row-wise softmax (Eq. 3 / Eq. 12), max-shifted for stability.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let mut v = self.take_like_node(a);
        v.copy_from(self.value(a));
        for r in 0..v.rows() {
            softmax_in_place(v.row_mut(r));
        }
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::SoftmaxRows(a), g)
    }

    // ---- shape manipulation -------------------------------------------------

    /// Matrix transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let (rows, cols) = self.value(a).shape();
        let mut v = self.arena.take_matrix(cols, rows);
        self.value(a).transpose_into(&mut v);
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::Transpose(a), g)
    }

    /// Row gather (entity-set extraction); indices may repeat. Borrows the
    /// index slice — the per-tweet entity lists of the train loop are *not*
    /// cloned per batch; the tape interns them into recycled storage.
    pub fn gather_rows(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let mut interned = self.arena.take_indices(indices.len());
        interned.extend_from_slice(indices);
        let mut v = self.arena.take_matrix(indices.len(), self.value(a).cols());
        self.value(a).gather_rows_into(&interned, &mut v);
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::GatherRows(a, interned), g)
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, end: usize) -> NodeId {
        assert!(start < end && end <= self.value(a).cols(), "bad column slice {start}..{end}");
        let mut v = self.arena.take_matrix(self.value(a).rows(), end - start);
        let x = self.value(a);
        for r in 0..x.rows() {
            v.row_mut(r).copy_from_slice(&x.row(r)[start..end]);
        }
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::SliceCols(a, start, end), g)
    }

    /// Vertical concatenation of nodes with equal column counts. Borrows the
    /// part list (interned into recycled storage).
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let mut interned = self.arena.take_node_list(parts.len());
        interned.extend_from_slice(parts);
        let cols = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let mut v = self.arena.take_matrix(total, cols);
        let mut offset = 0;
        for &p in parts {
            let x = self.value(p);
            assert_eq!(x.cols(), cols, "concat_rows width mismatch");
            for r in 0..x.rows() {
                v.row_mut(offset + r).copy_from_slice(x.row(r));
            }
            offset += x.rows();
        }
        let g = parts.iter().any(|&p| self.rg(p));
        self.push(Value::Owned(v), Op::ConcatRows(interned), g)
    }

    // ---- reductions -------------------------------------------------------

    /// Column-wise sum producing a 1×cols row (the SUM ablation aggregator).
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let mut v = self.arena.take_matrix(1, self.value(a).cols());
        self.value(a).sum_rows_into(&mut v);
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::SumRows(a), g)
    }

    /// Sum of all entries (1×1).
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let mut v = self.arena.take_matrix(1, 1);
        v.set(0, 0, self.value(a).sum());
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::SumAll(a), g)
    }

    /// Mean of all entries (1×1).
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let mut v = self.arena.take_matrix(1, 1);
        {
            let x = self.value(a);
            let mean = x.sum() / x.len() as f32;
            v.set(0, 0, mean);
        }
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::MeanAll(a), g)
    }

    /// Global max pooling over rows: `L×C → 1×C` with cached argmax.
    pub fn max_pool_rows(&mut self, a: NodeId) -> NodeId {
        assert!(self.value(a).rows() > 0, "max_pool_rows on empty matrix");
        let cols = self.value(a).cols();
        let mut argmax = self.arena.take_indices(cols);
        argmax.resize(cols, 0);
        let mut v = self.arena.take_matrix(1, cols);
        {
            let x = self.value(a);
            for (c, arg) in argmax.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for r in 0..x.rows() {
                    let val = x.get(r, c);
                    if val > best {
                        best = val;
                        *arg = r;
                    }
                }
                v.set(0, c, best);
            }
        }
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::MaxPoolRows(a, argmax), g)
    }

    // ---- convolution ------------------------------------------------------

    /// Unfolds `L×C` into `(L-k+1) × (k·C)` sliding windows (stride 1), the
    /// im2col step of 1-D convolution. Requires `L ≥ k`.
    pub fn im2col(&mut self, a: NodeId, kernel: usize) -> NodeId {
        let (rows, c) = self.value(a).shape();
        assert!(kernel >= 1 && rows >= kernel, "im2col: input shorter than kernel");
        let out_rows = rows - kernel + 1;
        let mut v = self.arena.take_matrix(out_rows, kernel * c);
        {
            let x = self.value(a);
            for r in 0..out_rows {
                for k in 0..kernel {
                    v.row_mut(r)[k * c..(k + 1) * c].copy_from_slice(x.row(r + k));
                }
            }
        }
        let g = self.rg(a);
        self.push(Value::Owned(v), Op::Im2Col(a, kernel), g)
    }

    // ---- segment pooling --------------------------------------------------

    /// Attention pooling of a whole batch (Eq. 2–4) in one node. Segment
    /// `t` owns the `src` rows `indices[offsets[t]..offsets[t + 1]]`; each
    /// row is scored `ReLU(row · q + b)` (`q` is `h × 1`, `b` is `1 × 1`),
    /// the scores are softmaxed within the segment, and the weighted row
    /// sum becomes row `t` of the `B × h` output. Indices may repeat; every
    /// segment must be non-empty. Values and gradients are bit-identical to
    /// the per-segment graph of primitive ops (see the `segment` module).
    pub fn segment_attention(
        &mut self,
        src: NodeId,
        q: NodeId,
        b: NodeId,
        indices: &[usize],
        offsets: &[usize],
    ) -> NodeId {
        let h = self.value(src).cols();
        assert_eq!(self.value(q).shape(), (h, 1), "segment_attention: q must be h x 1");
        assert_eq!(self.value(b).shape(), (1, 1), "segment_attention: b must be 1 x 1");
        let segs = self.intern_segments(src, indices, offsets);
        let mut v = self.arena.take_matrix(segs.len(), h);
        let mut cache = self.arena.take_matrix(2, indices.len());
        let bias = self.value(b).get(0, 0);
        segment::attention_forward(self.value(src), self.value(q), bias, &segs, &mut v, &mut cache);
        let g = self.rg(src) || self.rg(q) || self.rg(b);
        self.push(Value::Owned(v), Op::SegmentPool { src, scorer: Some((q, b)), segs, cache }, g)
    }

    /// Row-sum pooling of a whole batch (the SUM ablation) in one node:
    /// row `t` of the `B × h` output sums the `src` rows
    /// `indices[offsets[t]..offsets[t + 1]]`. Same layout rules and
    /// exactness as [`Tape::segment_attention`].
    pub fn segment_sum(&mut self, src: NodeId, indices: &[usize], offsets: &[usize]) -> NodeId {
        let segs = self.intern_segments(src, indices, offsets);
        let mut v = self.arena.take_matrix(segs.len(), self.value(src).cols());
        segment::sum_forward(self.value(src), &segs, &mut v);
        let cache = self.arena.take_matrix(0, 0);
        let g = self.rg(src);
        self.push(Value::Owned(v), Op::SegmentPool { src, scorer: None, segs, cache }, g)
    }

    /// Validates a segment layout and copies it into recycled storage.
    fn intern_segments(&mut self, src: NodeId, indices: &[usize], offsets: &[usize]) -> Segments {
        segment::check_layout(indices, offsets, self.value(src).rows());
        let mut ids = self.arena.take_indices(indices.len());
        ids.extend_from_slice(indices);
        let mut offs = self.arena.take_indices(offsets.len());
        offs.extend_from_slice(offsets);
        Segments { ids, offsets: offs }
    }

    // ---- fused losses -----------------------------------------------------

    /// Fused negative log-likelihood of bivariate Gaussian mixtures (Eq. 13).
    ///
    /// `theta` is `B × 6M` with column layout
    /// `[π̂ | μ_lat | μ_lon | σ̂_lat | σ̂_lon | ρ̂]` (each block of width `M`);
    /// the activations of Eq. 10–12 (softplus on σ, softsign on ρ, softmax on
    /// π) are applied *inside* this op. `targets[b] = (lat, lon)` is the
    /// ground-truth location of row `b`. The output is the **summed** NLL
    /// (1×1); scale by `1/B` for a mean.
    pub fn gmm_nll(&mut self, theta: NodeId, targets: &[(f64, f64)], m: usize) -> NodeId {
        {
            let x = self.value(theta);
            assert_eq!(x.rows(), targets.len(), "one target per theta row");
            assert_eq!(x.cols(), 6 * m, "theta must be B x 6M");
        }
        let (rows, cols) = self.value(theta).shape();
        let mut grad = self.arena.take_matrix(rows, cols);
        let mut scratch = std::mem::take(&mut self.arena.loss_scratch);
        let mut loss = 0.0f64;
        {
            let x = self.value(theta);
            for (b, &(t_lat, t_lon)) in targets.iter().enumerate() {
                loss += crate::loss::gmm_nll_row_into(
                    x.row(b),
                    t_lat,
                    t_lon,
                    m,
                    &mut scratch,
                    grad.row_mut(b),
                );
            }
        }
        self.arena.loss_scratch = scratch;
        let mut v = self.arena.take_matrix(1, 1);
        v.set(0, 0, loss as f32);
        let g = self.rg(theta);
        self.push(Value::Owned(v), Op::GmmNll(theta, grad), g)
    }

    /// Fused NLL for a mixture with fixed components and learnable weights
    /// (the UnicodeCNN / MvMF head): `loss_b = -ln Σ_m softmax(logits_b)_m
    /// exp(log_comp[b][m])`.
    ///
    /// `log_comp` holds the log-density of each fixed component at row `b`'s
    /// true location. Output is the summed NLL (1×1).
    pub fn mixture_const_nll(&mut self, logits: NodeId, log_comp: &Matrix) -> NodeId {
        assert_eq!(self.value(logits).shape(), log_comp.shape(), "logits/log_comp shape mismatch");
        let (rows, cols) = self.value(logits).shape();
        let mut grad = self.arena.take_matrix(rows, cols);
        let mut scratch = std::mem::take(&mut self.arena.loss_scratch);
        let mut loss = 0.0f64;
        {
            let x = self.value(logits);
            for b in 0..rows {
                loss += crate::loss::mixture_const_nll_row_into(
                    x.row(b),
                    log_comp.row(b),
                    &mut scratch,
                    grad.row_mut(b),
                );
            }
        }
        self.arena.loss_scratch = scratch;
        let mut v = self.arena.take_matrix(1, 1);
        v.set(0, 0, loss as f32);
        let g = self.rg(logits);
        self.push(Value::Owned(v), Op::MixtureConstNll(logits, grad), g)
    }

    // ---- backward ---------------------------------------------------------

    /// Reverse-mode sweep from scalar node `loss` (must be 1×1). Returns the
    /// gradient of every [`ParamId`] leaf that the loss depends on.
    pub fn backward(&mut self, loss: NodeId) -> Vec<(ParamId, Matrix)> {
        let mut param_grads = Vec::new();
        self.backward_into(loss, &mut param_grads);
        param_grads
    }

    /// [`Tape::backward`] writing into a caller-owned vector (cleared
    /// first). The gradient matrices are arena-class buffers; hand them back
    /// via [`TapeArena::recycle`] after the optimizer step to complete the
    /// zero-allocation cycle.
    pub fn backward_into(&mut self, loss: NodeId, param_grads: &mut Vec<(ParamId, Matrix)>) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward must start from a scalar loss");
        edge_obs::counter!("tensor.tape.backward.calls").inc(1);
        let _span = edge_obs::span("backward");
        param_grads.clear();
        let Tape { nodes, arena } = self;
        let mut grads = std::mem::take(&mut arena.slots);
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        let mut seed = arena.take_matrix(1, 1);
        seed.set(0, 0, 1.0);
        grads[loss.0] = Some(seed);

        for i in (0..=loss.0).rev() {
            let Some(g_out) = grads[i].take() else { continue };
            if !nodes[i].requires_grad {
                arena.recycle(g_out);
                continue;
            }
            let val = |id: NodeId| nodes[id.0].value.as_matrix();
            let rg = |id: NodeId| nodes[id.0].requires_grad;
            match &nodes[i].op {
                Op::Constant => {}
                Op::Param(pid) => {
                    // The same parameter may appear as several leaves (e.g. a
                    // weight matrix reused across layers); merge those here so
                    // optimizers see one gradient per parameter.
                    match param_grads.iter_mut().find(|(p, _)| p == pid) {
                        Some((_, existing)) => {
                            existing.add_scaled_inplace(&g_out, 1.0);
                            arena.recycle(g_out);
                        }
                        None => param_grads.push((*pid, g_out)),
                    }
                    continue;
                }
                Op::MatMul(a, b) => {
                    if rg(*a) {
                        let bv = val(*b);
                        let mut bt = arena.take_matrix(bv.cols(), bv.rows());
                        bv.transpose_into(&mut bt);
                        let mut d = arena.take_matrix(g_out.rows(), bt.cols());
                        g_out.matmul_into(&bt, &mut d);
                        arena.recycle(bt);
                        acc(arena, &mut grads, *a, d);
                    }
                    if rg(*b) {
                        let av = val(*a);
                        let mut at = arena.take_matrix(av.cols(), av.rows());
                        av.transpose_into(&mut at);
                        let mut d = arena.take_matrix(at.rows(), g_out.cols());
                        at.matmul_into(&g_out, &mut d);
                        arena.recycle(at);
                        acc(arena, &mut grads, *b, d);
                    }
                }
                Op::SpMM(s, dense) => {
                    if rg(*dense) {
                        let mut d = arena.take_matrix(s.cols(), g_out.cols());
                        s.transpose_matmul_dense_into(&g_out, &mut d);
                        acc(arena, &mut grads, *dense, d);
                    }
                }
                Op::Add(a, b) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        d.copy_from(&g_out);
                        acc(arena, &mut grads, *a, d);
                    }
                    if rg(*b) {
                        acc(arena, &mut grads, *b, g_out);
                        continue;
                    }
                }
                Op::Sub(a, b) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        d.copy_from(&g_out);
                        acc(arena, &mut grads, *a, d);
                    }
                    if rg(*b) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.map_into(&mut d, |v| -v);
                        acc(arena, &mut grads, *b, d);
                    }
                }
                Op::Hadamard(a, b) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(val(*b), &mut d, |x, y| x * y);
                        acc(arena, &mut grads, *a, d);
                    }
                    if rg(*b) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(val(*a), &mut d, |x, y| x * y);
                        acc(arena, &mut grads, *b, d);
                    }
                }
                Op::Scale(a, s) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        let s = *s;
                        g_out.map_into(&mut d, |v| v * s);
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::AddRowBroadcast(mat, row) => {
                    if rg(*mat) {
                        let mut d = arena.take_matrix_like(&g_out);
                        d.copy_from(&g_out);
                        acc(arena, &mut grads, *mat, d);
                    }
                    if rg(*row) {
                        let mut d = arena.take_matrix(1, g_out.cols());
                        g_out.sum_rows_into(&mut d);
                        acc(arena, &mut grads, *row, d);
                    }
                }
                // The unary activations fuse mask-then-multiply into one
                // zip: `g · f'(x)` multiplies the same two factors in the
                // same order as the historical map-then-hadamard, so results
                // are bit-for-bit unchanged.
                Op::Relu(a) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(val(*a), &mut d, |g, x| {
                            g * if x > 0.0 { 1.0 } else { 0.0 }
                        });
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::Tanh(a) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(nodes[i].value.as_matrix(), &mut d, |g, y| {
                            g * (1.0 - y * y)
                        });
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::Sigmoid(a) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(nodes[i].value.as_matrix(), &mut d, |g, y| {
                            g * (y * (1.0 - y))
                        });
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::Softplus(a) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(val(*a), &mut d, |g, x| g * (1.0 / (1.0 + (-x).exp())));
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::Softsign(a) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix_like(&g_out);
                        g_out.zip_map_into(val(*a), &mut d, |g, x| {
                            let t = 1.0 + x.abs();
                            g * (1.0 / (t * t))
                        });
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::SoftmaxRows(a) => {
                    if rg(*a) {
                        let y = nodes[i].value.as_matrix();
                        let mut d = arena.take_matrix_like(y);
                        for r in 0..y.rows() {
                            let yr = y.row(r);
                            let gr = g_out.row(r);
                            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                            for c in 0..y.cols() {
                                d.set(r, c, yr[c] * (gr[c] - dot));
                            }
                        }
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::Transpose(a) => {
                    if rg(*a) {
                        let mut d = arena.take_matrix(g_out.cols(), g_out.rows());
                        g_out.transpose_into(&mut d);
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::GatherRows(a, indices) => {
                    if rg(*a) {
                        let src = val(*a);
                        let mut d = arena.take_matrix_like(src);
                        for (out_r, &src_r) in indices.iter().enumerate() {
                            let g_row = g_out.row(out_r);
                            let d_row = d.row_mut(src_r);
                            for (dst, &g) in d_row.iter_mut().zip(g_row) {
                                *dst += g;
                            }
                        }
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::SliceCols(a, start, _end) => {
                    if rg(*a) {
                        let src = val(*a);
                        let mut d = arena.take_matrix_like(src);
                        for r in 0..g_out.rows() {
                            d.row_mut(r)[*start..*start + g_out.cols()]
                                .copy_from_slice(g_out.row(r));
                        }
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let rows = val(p).rows();
                        if rg(p) {
                            let mut d = arena.take_matrix(rows, g_out.cols());
                            for r in 0..rows {
                                d.row_mut(r).copy_from_slice(g_out.row(offset + r));
                            }
                            acc(arena, &mut grads, p, d);
                        }
                        offset += rows;
                    }
                }
                Op::SumRows(a) => {
                    if rg(*a) {
                        let src = val(*a);
                        let mut d = arena.take_matrix_like(src);
                        for r in 0..src.rows() {
                            d.row_mut(r).copy_from_slice(g_out.row(0));
                        }
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::SumAll(a) => {
                    if rg(*a) {
                        let src = val(*a);
                        let mut d = arena.take_matrix_like(src);
                        d.fill(g_out.get(0, 0));
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::MeanAll(a) => {
                    if rg(*a) {
                        let src = val(*a);
                        let mut d = arena.take_matrix_like(src);
                        d.fill(g_out.get(0, 0) / src.len() as f32);
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::MaxPoolRows(a, argmax) => {
                    if rg(*a) {
                        let src = val(*a);
                        let mut d = arena.take_matrix_like(src);
                        for (c, &r) in argmax.iter().enumerate() {
                            d.set(r, c, g_out.get(0, c));
                        }
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::Im2Col(a, kernel) => {
                    if rg(*a) {
                        let src = val(*a);
                        let c = src.cols();
                        let mut d = arena.take_matrix_like(src);
                        for r in 0..g_out.rows() {
                            for k in 0..*kernel {
                                let g_seg = &g_out.row(r)[k * c..(k + 1) * c];
                                let d_row = d.row_mut(r + k);
                                for (dst, &g) in d_row.iter_mut().zip(g_seg) {
                                    *dst += g;
                                }
                            }
                        }
                        acc(arena, &mut grads, *a, d);
                    }
                }
                Op::GmmNll(theta, cached) => {
                    if rg(*theta) {
                        let mut d = arena.take_matrix_like(cached);
                        let s = g_out.get(0, 0);
                        cached.map_into(&mut d, |v| v * s);
                        acc(arena, &mut grads, *theta, d);
                    }
                }
                Op::MixtureConstNll(logits, cached) => {
                    if rg(*logits) {
                        let mut d = arena.take_matrix_like(cached);
                        let s = g_out.get(0, 0);
                        cached.map_into(&mut d, |v| v * s);
                        acc(arena, &mut grads, *logits, d);
                    }
                }
                Op::SegmentPool { src, scorer, segs, cache } => {
                    let sv = val(*src);
                    let mut d_src = rg(*src).then(|| arena.take_matrix_like(sv));
                    let mut scratch = arena.take_matrix(1, 2 * segs.max_len() + sv.cols());
                    match *scorer {
                        Some((q, b)) => {
                            let mut d_q = rg(q).then(|| arena.take_matrix_like(val(q)));
                            let mut d_b = rg(b).then(|| arena.take_matrix_like(val(b)));
                            let out = AttentionGrads {
                                src: d_src.as_mut(),
                                q: d_q.as_mut(),
                                b: d_b.as_mut(),
                            };
                            segment::attention_backward(
                                sv,
                                val(q),
                                segs,
                                cache,
                                &g_out,
                                scratch.data_mut(),
                                out,
                            );
                            if let Some(d) = d_q {
                                acc(arena, &mut grads, q, d);
                            }
                            if let Some(d) = d_b {
                                acc(arena, &mut grads, b, d);
                            }
                        }
                        None => {
                            if let Some(d) = d_src.as_mut() {
                                segment::sum_backward(segs, &g_out, d, scratch.data_mut());
                            }
                        }
                    }
                    arena.recycle(scratch);
                    if let Some(d) = d_src {
                        acc(arena, &mut grads, *src, d);
                    }
                }
            }
            arena.recycle(g_out);
        }
        // Gradients that never reached a parameter leaf (dead branches) go
        // back to the pool, and the slot vector's capacity is kept for the
        // next backward pass.
        for slot in grads.iter_mut() {
            if let Some(m) = slot.take() {
                arena.recycle(m);
            }
        }
        arena.slots = grads;
    }
}

/// Numerically stable softplus.
pub fn softplus_f32(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// In-place stable softmax of a slice.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}
