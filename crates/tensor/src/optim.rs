//! Optimizers: plain SGD and Adam with decoupled weight decay.
//!
//! The paper trains EDGE "using an Adam optimizer with a learning rate of
//! 0.01 and a weight decay of 0.01"; [`Adam::paper_default`] reproduces
//! those hyper-parameters.

use std::hint::black_box;

use serde::{Deserialize, Serialize};

use edge_par::KernelLevel;

use crate::matrix::Matrix;
use crate::tape::{ParamId, ParamStore};

/// A gradient-descent optimizer over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update from `(param, gradient)` pairs.
    fn step(&mut self, params: &mut ParamStore, grads: &[(ParamId, Matrix)]);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        for (id, g) in grads {
            params.get_mut(*id).add_scaled_inplace(g, -self.lr);
        }
    }
}

/// Adam (Kingma & Ba) with *decoupled* weight decay (AdamW-style): the decay
/// shrinks the weights directly instead of being folded into the gradient,
/// which is also how PyTorch's `Adam(weight_decay=...)`-trained EDGE behaves
/// for the small decay values the paper uses.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate `α`.
    pub lr: f32,
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Numerical fuzz `ε`.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
    no_decay: std::collections::HashSet<usize>,
}

impl Adam {
    /// Creates Adam with custom hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2), "betas in [0,1)");
        assert!(weight_decay >= 0.0);
        Self {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            no_decay: std::collections::HashSet::new(),
        }
    }

    /// Excludes a parameter from weight decay. Biases must be excluded when
    /// they carry non-regularizable scale — the EDGE mixture head's bias
    /// holds degree-valued component means (μ ≈ 40°, −74°) that decay would
    /// otherwise drag toward the origin every step.
    pub fn exclude_from_decay(&mut self, id: ParamId) {
        self.no_decay.insert(id.0);
    }

    /// The paper's training configuration: Adam, lr 0.01, weight decay 0.01.
    pub fn paper_default() -> Self {
        Self::new(0.01, 0.9, 0.999, 1e-8, 0.01)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshots the optimizer's evolving state (step count + moment
    /// estimates) for checkpointing. Hyper-parameters and the decay-exempt
    /// set are *not* included — they are reconstructed by the training
    /// setup, so a checkpoint cannot smuggle in different hyper-parameters.
    pub fn export_state(&self) -> AdamState {
        let slots = self
            .m
            .iter()
            .zip(&self.v)
            .enumerate()
            .filter_map(|(id, (m, v))| Some(AdamSlot { id, m: m.clone()?, v: v.clone()? }))
            .collect();
        AdamState { t: self.t, slots }
    }

    /// Restores state captured by [`Adam::export_state`]. Resuming from a
    /// checkpoint with this plus identical parameters and gradients
    /// reproduces the uninterrupted run bit-for-bit.
    pub fn load_state(&mut self, state: AdamState) {
        self.t = state.t;
        self.m.clear();
        self.v.clear();
        for slot in state.slots {
            if self.m.len() <= slot.id {
                self.m.resize_with(slot.id + 1, || None);
                self.v.resize_with(slot.id + 1, || None);
            }
            self.m[slot.id] = Some(slot.m);
            self.v[slot.id] = Some(slot.v);
        }
    }

    fn slot(states: &mut Vec<Option<Matrix>>, id: ParamId, shape: (usize, usize)) -> &mut Matrix {
        if states.len() <= id.0 {
            states.resize_with(id.0 + 1, || None);
        }
        states[id.0].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1))
    }
}

/// One parameter's Adam moment estimates, keyed by the parameter id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamSlot {
    pub id: usize,
    /// First-moment estimate `m`.
    pub m: Matrix,
    /// Second-moment estimate `v`.
    pub v: Matrix,
}

/// Serializable snapshot of an [`Adam`] optimizer's evolving state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// Moment estimates for every parameter that has received a gradient.
    pub slots: Vec<AdamSlot>,
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let lanes = Lanes {
            first: FirstMoment::new(self.beta1),
            beta2: self.beta2,
            bc2,
            eps: self.eps,
            lr: self.lr,
            level: edge_par::kernel_level(),
        };
        for (id, g) in grads {
            let shape = g.shape();
            Self::slot(&mut self.m, *id, shape);
            Self::slot(&mut self.v, *id, shape);
            let decay = if self.no_decay.contains(&id.0) { 0.0 } else { self.weight_decay };
            let m = self.m[id.0].as_mut().expect("just inserted").data_mut();
            let v = self.v[id.0].as_mut().expect("just inserted").data_mut();
            let p = params.get_mut(*id);
            assert_eq!(p.shape(), shape, "gradient shape mismatch for param {}", id.0);
            let (p, g) = (p.data_mut(), g.data());
            // Once `1 − β₁ᵗ` rounds to 1 (t ≥ 165 for β₁ = 0.9) the bias
            // correction is the identity. It gets a loop of its own: in a
            // shared loop LLVM computes both arms and selects, so the
            // division would run anyway.
            if bc1 == 1.0 {
                lanes.update_at(p, m, v, g, decay, |m| m);
            } else {
                lanes.update_at(p, m, v, g, decay, |m| lanes.first.quotient(m, bc1));
            }
        }
    }
}

/// One Adam step's constants, applied lane by lane.
struct Lanes {
    first: FirstMoment,
    beta2: f32,
    /// Bias correction `1 − β₂ᵗ`.
    bc2: f32,
    eps: f32,
    lr: f32,
    /// The kernel level the lane loop is compiled for.
    level: KernelLevel,
}

impl Lanes {
    /// [`Lanes::update`] compiled for the step's kernel level: the same
    /// loop with the same operations and roundings per lane (Rust never
    /// fuses a multiply and an add), only with wider f64 lanes than the
    /// baseline build's SSE2 pairs.
    #[inline(always)]
    fn update_at(
        &self,
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        decay: f32,
        debias: impl Fn(f32) -> f32,
    ) {
        // SAFETY: `kernel_level` never names a level the CPU lacks.
        #[cfg(target_arch = "x86_64")]
        match self.level {
            KernelLevel::Avx512 => return unsafe { self.update_avx512(p, m, v, g, decay, debias) },
            KernelLevel::Avx2 => return unsafe { self.update_avx2(p, m, v, g, decay, debias) },
            KernelLevel::Scalar => {}
        }
        self.update(p, m, v, g, decay, debias)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn update_avx2(
        &self,
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        decay: f32,
        debias: impl Fn(f32) -> f32,
    ) {
        self.update(p, m, v, g, decay, debias)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn update_avx512(
        &self,
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        decay: f32,
        debias: impl Fn(f32) -> f32,
    ) {
        self.update(p, m, v, g, decay, debias)
    }

    /// Updates one parameter's lanes: first moment, second moment, then the
    /// parameter, each lane with the f32 step's operations and roundings.
    /// `debias` is the division of the first moment by `1 − β₁ᵗ`.
    #[inline(always)]
    fn update(
        &self,
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        decay: f32,
        debias: impl Fn(f32) -> f32,
    ) {
        for (((pi, mi), vi), &gi) in p.iter_mut().zip(m).zip(v).zip(g) {
            *mi = self.first.update(*mi, gi);
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            let v_hat = *vi / self.bc2;
            let step = self.first.quotient(debias(*mi), v_hat.sqrt() + self.eps);
            *pi -= self.lr * (step + decay * *pi);
        }
    }
}

/// The f32 operations of one Adam step that compute or read the first
/// moment `m`, evaluated through f64 and rounded back to f32 once.
///
/// Dead ReLU units get gradients of exactly 0, so their `m` decays by `β₁`
/// every step until it is an f32 subnormal. On x86 an f32 multiply or
/// divide with a subnormal operand or result takes a microcode assist (~50
/// ns a lane on the Xeon measured in DESIGN.md) instead of a cycle. Widened
/// to f64 the same values are normal, and the conversions and the f32
/// additions cost nothing extra.
///
/// The bits are the f32 operation's, subnormal results included:
/// - the f64 product of two f32 values is exact (24 + 24 ≤ 53 significand
///   bits), so rounding it to f32 is the one rounding the f32 multiply does;
/// - an f32 quotient taken as a correctly rounded f64 quotient and then
///   rounded to f32 is the correctly rounded f32 quotient, because
///   53 ≥ 2·24 + 2 makes the double rounding innocuous.
///
/// LLVM's InstCombine knows both facts too and narrows
/// `(a as f64 * b as f64) as f32` back into an f32 multiply, assists and
/// all. The factors therefore pass through [`black_box`] once per step,
/// outside the lane loop, so they are f64 values the optimizer cannot prove
/// to be widened f32s; multiplying by `one` makes a quotient's numerator
/// such a value.
#[derive(Clone, Copy)]
struct FirstMoment {
    /// `β₁`.
    beta1: f64,
    /// `1 − β₁`, rounded to f32 as the f32 expression rounds it.
    one_minus_beta1: f64,
    /// `1.0`, opaque to the optimizer.
    one: f64,
}

impl FirstMoment {
    fn new(beta1: f32) -> Self {
        Self {
            beta1: black_box(beta1 as f64),
            one_minus_beta1: black_box((1.0 - beta1) as f64),
            one: black_box(1.0),
        }
    }

    /// `β₁·m + (1 − β₁)·g` with the f32 expression's bits.
    #[inline(always)]
    fn update(&self, m: f32, g: f32) -> f32 {
        (self.beta1 * m as f64) as f32 + (self.one_minus_beta1 * g as f64) as f32
    }

    /// `num / den` with the f32 expression's bits.
    #[inline(always)]
    fn quotient(&self, num: f32, den: f32) -> f32 {
        (num as f64 * self.one / den as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The f32 Adam step as three passes over the lanes (first moment,
    /// second moment, parameter update). [`Adam::step`] must reproduce its
    /// every bit; it is kept only as that oracle.
    fn reference_step(opt: &mut Adam, params: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for (id, g) in grads {
            let shape = g.shape();
            {
                let m = Adam::slot(&mut opt.m, *id, shape);
                for (mi, &gi) in m.data_mut().iter_mut().zip(g.data()) {
                    *mi = opt.beta1 * *mi + (1.0 - opt.beta1) * gi;
                }
            }
            {
                let v = Adam::slot(&mut opt.v, *id, shape);
                for (vi, &gi) in v.data_mut().iter_mut().zip(g.data()) {
                    *vi = opt.beta2 * *vi + (1.0 - opt.beta2) * gi * gi;
                }
            }
            let decay = if opt.no_decay.contains(&id.0) { 0.0 } else { opt.weight_decay };
            let m = opt.m[id.0].as_ref().expect("just inserted");
            let v = opt.v[id.0].as_ref().expect("just inserted");
            let p = params.get_mut(*id);
            for ((pi, &mi), &vi) in p.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *pi -= opt.lr * (m_hat / (v_hat.sqrt() + opt.eps) + decay * *pi);
            }
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    fn moment_bits(opt: &Adam) -> Vec<Vec<u32>> {
        opt.m.iter().chain(&opt.v).flatten().map(|m| bits(m.data())).collect()
    }

    #[test]
    fn first_moment_update_is_f32_exact_on_every_tiny_m() {
        // Every f32 whose exponent field is 0 or 1 (the subnormals and the
        // smallest normal binade, both signs, ±0 included): the regime dead
        // units decay into, where β₁·m rounds to a subnormal.
        for beta1 in [0.5f32, 0.9, 0.99] {
            let first = FirstMoment::new(beta1);
            let b1 = black_box(beta1);
            for g in [0.0f32, -0.0] {
                for magnitude in 0..(2u32 << 23) {
                    for sign in [0, 1u32 << 31] {
                        let m = f32::from_bits(sign | magnitude);
                        let want = b1 * m + (1.0 - b1) * g;
                        let got = first.update(m, g);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "beta1 {beta1}, m {m:e} ({:#010x}), g {g}: {got:e} vs {want:e}",
                            m.to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quotients_are_f32_exact_for_subnormal_and_normal_numerators() {
        let mut rng = StdRng::seed_from_u64(0xADA3);
        let first = FirstMoment::new(0.9);
        for i in 0..1_200_000u32 {
            // Half the numerators are subnormal (exponent field 0), half are
            // normal with any exponent; the denominators cover everything
            // `√v̂ + ε` can be and beyond.
            let exponent = if i % 2 == 0 { 0 } else { rng.gen_range(1u32..255) };
            let num = f32::from_bits((rng.gen::<u32>() & 0x807F_FFFF) | (exponent << 23));
            let den = f32::from_bits(rng.gen_range(1u32..0x7F80_0000));
            let want = black_box(num) / black_box(den);
            let got = first.quotient(num, den);
            assert_eq!(got.to_bits(), want.to_bits(), "{num:e} / {den:e}: {got:e} vs {want:e}");
        }
        // The bias correction divides by 1 − β₁ᵗ while that is below 1.
        for t in 1..165 {
            let bc1 = 1.0 - 0.9f32.powi(t);
            assert!(bc1 < 1.0, "t {t}");
            for _ in 0..1_000 {
                // Exponent field ≤ 31: subnormal and tiny normal moments.
                let m = f32::from_bits(rng.gen::<u32>() & 0x8FFF_FFFF);
                let want = black_box(m) / black_box(bc1);
                assert_eq!(first.quotient(m, bc1).to_bits(), want.to_bits(), "t {t}, m {m:e}");
            }
        }
        assert_eq!(1.0 - 0.9f32.powi(165), 1.0);
    }

    /// Gradients where the `dead` lanes are exactly zero after the first
    /// steps, like a ReLU unit that stopped firing.
    fn dead_lane_grads(
        params: &ParamStore,
        ids: &[ParamId],
        step: usize,
    ) -> Vec<(ParamId, Matrix)> {
        ids.iter()
            .map(|&id| {
                let mut g = quadratic_grad(params, id, 0.25);
                for (lane, gi) in g.data_mut().iter_mut().enumerate() {
                    if lane % 3 == 0 && step >= 5 {
                        *gi = if lane % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                (id, g)
            })
            .collect()
    }

    #[test]
    fn step_matches_three_pass_f32_step_through_subnormal_moments() {
        // Every kernel level the host has runs its own instance of the lane
        // loop; each must keep the f32 step's bits.
        for level in KernelLevel::ALL {
            edge_par::with_kernel_level(level, || matches_three_pass_f32_step(level));
        }
    }

    fn matches_three_pass_f32_step(level: KernelLevel) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = ParamStore::new();
        let ids = [
            params.add("w", Matrix::random_uniform(16, 24, 1e-3, &mut rng)),
            params.add("b", Matrix::random_uniform(1, 24, 1e-3, &mut rng)),
        ];
        let mut reference_params = params.clone();
        let mut opt = Adam::paper_default();
        opt.exclude_from_decay(ids[1]);
        let mut reference = opt.clone();
        let mut saw_subnormal = false;
        for step in 0..1_200 {
            let grads = dead_lane_grads(&params, &ids, step);
            opt.step(&mut params, &grads);
            let grads = dead_lane_grads(&reference_params, &ids, step);
            reference_step(&mut reference, &mut reference_params, &grads);
            for &id in &ids {
                assert_eq!(
                    bits(params.get(id).data()),
                    bits(reference_params.get(id).data()),
                    "step {step} at {level:?}"
                );
            }
            assert_eq!(moment_bits(&opt), moment_bits(&reference), "step {step} at {level:?}");
            saw_subnormal |=
                opt.m.iter().flatten().flat_map(|m| m.data()).any(|x| x.is_subnormal());
        }
        assert!(saw_subnormal, "the run never reached a subnormal first moment");
    }

    #[test]
    fn checkpoint_keeps_subnormal_and_negative_zero_moments_and_resumes_bitwise() {
        let mut params = ParamStore::new();
        let ids = [params.add("w", Matrix::full(4, 6, 0.5)), params.add("b", Matrix::zeros(1, 6))];
        let mut opt = Adam::paper_default();
        for step in 0..1_000 {
            let grads = dead_lane_grads(&params, &ids, step);
            opt.step(&mut params, &grads);
        }
        let first_moments: Vec<f32> =
            opt.m.iter().flatten().flat_map(|m| m.data()).copied().collect();
        assert!(first_moments.iter().any(|x| x.is_subnormal()), "{first_moments:?}");
        // −0 moments are rare in a run; plant one to check it survives too.
        opt.m[ids[1].0].as_mut().unwrap().data_mut()[0] = -0.0;

        let json = serde_json::to_string(&opt.export_state()).expect("serialize");
        let state: AdamState = serde_json::from_str(&json).expect("deserialize");
        let mut resumed = Adam::paper_default();
        resumed.load_state(state);
        assert_eq!(resumed.steps(), opt.steps());
        assert_eq!(moment_bits(&resumed), moment_bits(&opt));
        assert_eq!(resumed.m[ids[1].0].as_ref().unwrap().data()[0].to_bits(), (-0.0f32).to_bits());

        let mut resumed_params = params.clone();
        for step in 1_000..1_300 {
            let grads = dead_lane_grads(&params, &ids, step);
            opt.step(&mut params, &grads);
            let grads = dead_lane_grads(&resumed_params, &ids, step);
            resumed.step(&mut resumed_params, &grads);
        }
        for &id in &ids {
            assert_eq!(bits(params.get(id).data()), bits(resumed_params.get(id).data()));
        }
        assert_eq!(moment_bits(&resumed), moment_bits(&opt));
    }

    /// Minimizes f(w) = (w - target)^2 elementwise; gradient is 2(w-target).
    fn quadratic_grad(params: &ParamStore, id: ParamId, target: f32) -> Matrix {
        params.get(id).map(|w| 2.0 * (w - target))
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::full(2, 2, 5.0));
        let mut opt = Sgd::new(0.1);
        for _ in 0..200 {
            let g = quadratic_grad(&params, id, 1.5);
            opt.step(&mut params, &[(id, g)]);
        }
        for &w in params.get(id).data() {
            assert!((w - 1.5).abs() < 1e-4, "w = {w}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::full(3, 1, -4.0));
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.0);
        for _ in 0..500 {
            let g = quadratic_grad(&params, id, 2.0);
            opt.step(&mut params, &[(id, g)]);
        }
        for &w in params.get(id).data() {
            assert!((w - 2.0).abs() < 1e-2, "w = {w}");
        }
    }

    #[test]
    fn adam_weight_decay_shrinks_untouched_optimum() {
        // With decay, the fixed point of f(w) = (w - t)^2 sits below t.
        let mut with_decay = ParamStore::new();
        let id1 = with_decay.add("w", Matrix::full(1, 1, 3.0));
        let mut opt1 = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.5);
        let mut without = ParamStore::new();
        let id2 = without.add("w", Matrix::full(1, 1, 3.0));
        let mut opt2 = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.0);
        for _ in 0..800 {
            let g1 = quadratic_grad(&with_decay, id1, 2.0);
            opt1.step(&mut with_decay, &[(id1, g1)]);
            let g2 = quadratic_grad(&without, id2, 2.0);
            opt2.step(&mut without, &[(id2, g2)]);
        }
        let decayed = with_decay.get(id1).get(0, 0);
        let plain = without.get(id2).get(0, 0);
        assert!(decayed < plain - 0.05, "decayed {decayed} vs plain {plain}");
    }

    #[test]
    fn adam_handles_multiple_params_and_sparse_updates() {
        let mut params = ParamStore::new();
        let a = params.add("a", Matrix::full(1, 1, 1.0));
        let b = params.add("b", Matrix::full(1, 1, 1.0));
        let mut opt = Adam::new(0.1, 0.9, 0.999, 1e-8, 0.0);
        // Update only `b` some steps — state vectors must not get confused.
        for step in 0..300 {
            let ga = quadratic_grad(&params, a, 0.0);
            let gb = quadratic_grad(&params, b, 10.0);
            if step % 2 == 0 {
                opt.step(&mut params, &[(a, ga), (b, gb)]);
            } else {
                opt.step(&mut params, &[(b, gb)]);
            }
        }
        assert!((params.get(a).get(0, 0)).abs() < 0.05);
        assert!((params.get(b).get(0, 0) - 10.0).abs() < 0.5);
    }

    #[test]
    fn adam_step_counter() {
        let mut opt = Adam::paper_default();
        assert_eq!(opt.steps(), 0);
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::zeros(1, 1));
        opt.step(&mut params, &[(id, Matrix::zeros(1, 1))]);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn paper_default_hyperparameters() {
        let opt = Adam::paper_default();
        assert_eq!(opt.lr, 0.01);
        assert_eq!(opt.weight_decay, 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sgd_rejects_zero_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn state_round_trip_resumes_bitwise() {
        // Optimize, snapshot mid-way, keep going; then restore the snapshot
        // into a fresh optimizer and replay the tail — trajectories must be
        // bit-identical, the property checkpoint resume relies on.
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::full(2, 3, 4.0));
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.01);
        for _ in 0..10 {
            let g = quadratic_grad(&params, id, 1.0);
            opt.step(&mut params, &[(id, g)]);
        }
        let snap_params = params.clone();
        let state = opt.export_state();
        assert_eq!(state.t, 10);
        assert_eq!(state.slots.len(), 1);

        for _ in 0..10 {
            let g = quadratic_grad(&params, id, 1.0);
            opt.step(&mut params, &[(id, g)]);
        }

        let mut resumed_params = snap_params;
        let mut resumed = Adam::new(0.05, 0.9, 0.999, 1e-8, 0.01);
        resumed.load_state(state);
        assert_eq!(resumed.steps(), 10);
        for _ in 0..10 {
            let g = quadratic_grad(&resumed_params, id, 1.0);
            resumed.step(&mut resumed_params, &[(id, g)]);
        }
        assert_eq!(params.get(id).data(), resumed_params.get(id).data());
    }

    #[test]
    fn state_round_trip_preserves_sparse_slots() {
        let mut params = ParamStore::new();
        let a = params.add("a", Matrix::full(1, 1, 1.0));
        let b = params.add("b", Matrix::full(1, 1, 1.0));
        let mut opt = Adam::paper_default();
        let gb = quadratic_grad(&params, b, 0.0);
        opt.step(&mut params, &[(b, gb)]); // only `b` ever updated
        let state = opt.export_state();
        assert_eq!(state.slots.len(), 1);
        assert_eq!(state.slots[0].id, b.0);
        let mut restored = Adam::paper_default();
        restored.load_state(state);
        // The untouched slot stays lazily absent and a later step fills it.
        let ga = quadratic_grad(&params, a, 0.0);
        restored.step(&mut params, &[(a, ga)]);
        assert_eq!(restored.export_state().slots.len(), 2);
    }
}
