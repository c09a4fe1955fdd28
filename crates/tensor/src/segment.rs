//! Segment kernels: one training batch's per-tweet aggregation (paper
//! Eq. 2–4, or the SUM ablation) as a single tape op.
//!
//! A batch is laid out CSR-style, after PyTorch Geometric's
//! `utils.softmax(src, index)`: the tweets' entity ids are concatenated
//! into one list, and segment `t` owns `ids[offsets[t]..offsets[t + 1]]`.
//! Segment `t` gathers those rows of the `|V| × h` source matrix and pools
//! them into row `t` of a `B × h` output, either attention-weighted
//! ([`attention_forward`]) or summed ([`sum_forward`]). Each kernel has a
//! hand-written backward pass.
//!
//! ## Exactness contract
//!
//! Every kernel gives, to the bit, the same forward values and gradients as
//! the per-segment graph of primitive tape ops it replaces: `gather_rows`,
//! `matmul`, `add_row_broadcast`, `relu`, `transpose`, `softmax_rows`,
//! `matmul` (or `sum_rows`), then `concat_rows`. `tests/segment.rs` checks
//! this against that graph. Three rules keep it so:
//!
//! * Products accumulate in ascending order from `+0.0`, as an unfused
//!   multiply then add, and skip a zero left factor, as the matmul kernels
//!   do.
//! * The per-segment `q`/`b` gradients are summed across segments in
//!   reverse segment order. That is the order in which the per-segment
//!   parameter leaves merged during backward.
//! * The source gradient is scattered segment by segment in reverse order.
//!   An id repeated within a segment has its rows summed locally first, as
//!   the per-segment gather's dense temporary did.
//!
//! Each accumulator starts at `+0.0` rather than at its first term. This is
//! exact: every term is itself a sum begun at `+0.0`, so it is never `-0.0`,
//! and `0.0 + x == x` for every other `x`.

use crate::matrix::Matrix;
use crate::simd::axpy;
use crate::tape::softmax_in_place;

/// Interned segment layout: the concatenated row ids and the `B + 1`
/// offsets that split them into segments.
#[derive(Debug)]
pub(crate) struct Segments {
    pub(crate) ids: Vec<usize>,
    pub(crate) offsets: Vec<usize>,
}

impl Segments {
    /// Number of segments.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The id range of segment `t`, as positions into `ids`.
    fn range(&self, t: usize) -> std::ops::Range<usize> {
        self.offsets[t]..self.offsets[t + 1]
    }

    /// The longest segment.
    pub(crate) fn max_len(&self) -> usize {
        self.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }
}

/// Checks that `offsets` splits `ids` into non-empty segments of valid rows
/// of a `src_rows`-row source.
pub(crate) fn check_layout(ids: &[usize], offsets: &[usize], src_rows: usize) {
    assert!(offsets.len() >= 2, "a segment op needs at least one segment");
    assert_eq!(offsets[0], 0, "segment offsets must start at 0");
    assert_eq!(offsets[offsets.len() - 1], ids.len(), "segment offsets must end at ids.len()");
    assert!(
        offsets.windows(2).all(|w| w[0] < w[1]),
        "every segment needs at least one entity (offsets must strictly increase)"
    );
    if let Some(&bad) = ids.iter().find(|&&v| v >= src_rows) {
        panic!("segment id {bad} out of range {src_rows}");
    }
}

/// Attention forward (Eq. 2–4) per segment. `out` is `B × h`, zeroed; `q`
/// is `h × 1`; `cache` is `2 × ΣK`, and receives the pre-ReLU scores in
/// row 0 and the softmax weights in row 1 for the backward pass.
pub(crate) fn attention_forward(
    src: &Matrix,
    q: &Matrix,
    b: f32,
    segs: &Segments,
    out: &mut Matrix,
    cache: &mut Matrix,
) {
    let (pre, weights) = cache.data_mut().split_at_mut(segs.ids.len());
    for t in 0..segs.len() {
        let range = segs.range(t);
        let ids = &segs.ids[range.clone()];
        // Eq. 2: the ReLU of a biased linear score per entity.
        for (i, &v) in range.clone().zip(ids) {
            let mut s = 0.0f32;
            for (&a, &qj) in src.row(v).iter().zip(q.data()) {
                if a != 0.0 {
                    s += a * qj;
                }
            }
            pre[i] = s + b;
            weights[i] = pre[i].max(0.0);
        }
        // Eq. 3: softmax within the segment.
        let w = &mut weights[range];
        softmax_in_place(w);
        // Eq. 4: the weighted sum of the gathered rows.
        let z = out.row_mut(t);
        for (&v, &wc) in ids.iter().zip(w.iter()) {
            if wc != 0.0 {
                axpy(wc, src.row(v), z);
            }
        }
    }
}

/// SUM-ablation forward: row `t` of `out` (`B × h`, zeroed) is the sum of
/// segment `t`'s rows of `src`.
pub(crate) fn sum_forward(src: &Matrix, segs: &Segments, out: &mut Matrix) {
    for t in 0..segs.len() {
        let z = out.row_mut(t);
        for &v in &segs.ids[segs.range(t)] {
            for (o, &x) in z.iter_mut().zip(src.row(v)) {
                *o += x;
            }
        }
    }
}

/// Gradients an attention backward pass writes; each is zeroed on entry,
/// shaped like its input, and `None` when that input needs no gradient.
pub(crate) struct AttentionGrads<'a> {
    pub(crate) src: Option<&'a mut Matrix>,
    pub(crate) q: Option<&'a mut Matrix>,
    pub(crate) b: Option<&'a mut Matrix>,
}

/// Attention backward: pushes `g_out` (`B × h`) back to `src`, `q` and `b`.
/// `scratch` needs `2 · max_len + h` entries.
pub(crate) fn attention_backward(
    src: &Matrix,
    q: &Matrix,
    segs: &Segments,
    cache: &Matrix,
    g_out: &Matrix,
    scratch: &mut [f32],
    grads: AttentionGrads<'_>,
) {
    let AttentionGrads { src: mut d_src, q: mut d_q, b: mut d_b } = grads;
    let (pre, weights) = cache.data().split_at(segs.ids.len());
    let max_len = segs.max_len();
    let (dw, rest) = scratch.split_at_mut(max_len);
    let (gr, local) = rest.split_at_mut(max_len);
    let local = &mut local[..src.cols()];
    let scores_need_grad = d_q.is_some() || d_b.is_some();
    for t in (0..segs.len()).rev() {
        let range = segs.range(t);
        let ids = &segs.ids[range.clone()];
        let (pre, w) = (&pre[range.clone()], &weights[range]);
        let gz = g_out.row(t);
        let gr = &mut gr[..ids.len()];
        if scores_need_grad {
            // Through Eq. 4 to the weights: dw = gz · Hᵀ.
            let dw = &mut dw[..ids.len()];
            for (d, &v) in dw.iter_mut().zip(ids) {
                let mut acc = 0.0f32;
                for (&g, &x) in gz.iter().zip(src.row(v)) {
                    if g != 0.0 {
                        acc += g * x;
                    }
                }
                *d = acc;
            }
            // Through the softmax (the `softmax_rows` rule), then the ReLU.
            let dot: f32 = w.iter().zip(dw.iter()).map(|(&a, &b)| a * b).sum();
            for (((g, &wc), &dwc), &p) in gr.iter_mut().zip(w).zip(dw.iter()).zip(pre) {
                let ds = wc * (dwc - dot);
                *g = ds * if p > 0.0 { 1.0 } else { 0.0 };
            }
        } else {
            gr.fill(0.0);
        }
        if let Some(d_b) = d_b.as_deref_mut() {
            let mut acc = 0.0f32;
            for &g in gr.iter() {
                acc += g;
            }
            d_b.data_mut()[0] += acc;
        }
        if let Some(d_q) = d_q.as_deref_mut() {
            for (j, dq) in d_q.data_mut().iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&v, &g) in ids.iter().zip(gr.iter()) {
                    let a = src.get(v, j);
                    if a != 0.0 {
                        acc += a * g;
                    }
                }
                *dq += acc;
            }
        }
        if let Some(d_src) = d_src.as_deref_mut() {
            // Row c's gradient: wᶜ·gz through Eq. 4 plus grᶜ·qᵀ through
            // Eq. 2, each a one-term product begun at +0.0.
            let qd = q.data();
            let gr = &*gr;
            scatter_segment(d_src, ids, local, |c, j| {
                let via_pool = if w[c] != 0.0 { 0.0 + w[c] * gz[j] } else { 0.0 };
                let via_score = if gr[c] != 0.0 { 0.0 + gr[c] * qd[j] } else { 0.0 };
                via_pool + via_score
            });
        }
    }
}

/// SUM-ablation backward: every row of segment `t` receives `g_out`'s row
/// `t`. `local` needs `h` entries.
pub(crate) fn sum_backward(segs: &Segments, g_out: &Matrix, d_src: &mut Matrix, local: &mut [f32]) {
    let local = &mut local[..g_out.cols()];
    for t in (0..segs.len()).rev() {
        let gz = g_out.row(t);
        scatter_segment(d_src, &segs.ids[segs.range(t)], local, |_, j| gz[j]);
    }
}

/// Adds one segment's row gradients `row_grad(c, j)` into `d_src`, summing
/// the rows of a repeated id locally (from `+0.0`, ascending position)
/// before adding them in.
fn scatter_segment(
    d_src: &mut Matrix,
    ids: &[usize],
    local: &mut [f32],
    row_grad: impl Fn(usize, usize) -> f32,
) {
    for (c, &v) in ids.iter().enumerate() {
        if ids[..c].contains(&v) {
            continue; // folded into its first occurrence
        }
        for (j, l) in local.iter_mut().enumerate() {
            *l = 0.0 + row_grad(c, j);
        }
        for (c2, _) in ids.iter().enumerate().skip(c + 1).filter(|&(_, &v2)| v2 == v) {
            for (j, l) in local.iter_mut().enumerate() {
                *l += row_grad(c2, j);
            }
        }
        for (g, &l) in d_src.row_mut(v).iter_mut().zip(local.iter()) {
            *g += l;
        }
    }
}
