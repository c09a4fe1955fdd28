//! The end-to-end EDGE model: entity2vec → entity graph → GCN diffusion →
//! attention aggregation → Gaussian-mixture head, trained by maximizing the
//! likelihood of geo-tagged training tweets (Eq. 13) with Adam.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use edge_data::Tweet;
use edge_geo::{BBox, BivariateGaussian, GaussianMixture, Point};
use edge_graph::{
    build_cooccurrence_graph, graph_stats, normalized_adjacency_triplets, GraphStats,
};
use edge_tensor::init::xavier_uniform;
use edge_tensor::tape::{NodeId, ParamId, ParamStore, Tape};
use edge_tensor::{Adam, CsrMatrix, Matrix, Optimizer, TapeArena};
use edge_text::{EntityRecognizer, MentionKind, Mentions, TokenScan};

use crate::artifact::{LazyAdjacency, LazyFeatures, SmoothedStore};
use crate::attention::attention_batch;
use crate::checkpoint::{CheckpointState, Checkpointer, CHECKPOINT_VERSION};
use crate::config::EdgeConfig;
use crate::entity2vec::{run_entity2vec, EntityIndex};
use crate::error::{PredictError, TrainError};
use crate::gcn::{gcn_forward, gcn_infer};
use crate::mdn::{init_head_bias, theta_width};
use crate::predict::{PredictInput, PredictOptions, PredictRequest, PredictResponse, Predictor};

/// Per-batch staging vectors reused across a training run: the batch's
/// concatenated entity ids, the segment offsets that split them by tweet,
/// and the targets.
#[derive(Default)]
struct BatchStaging {
    seg_idx: Vec<usize>,
    seg_off: Vec<usize>,
    targets: Vec<(f64, f64)>,
}

/// A location prediction: the mixture (the paper's primary output), the
/// Eq.-14 point estimate, and the interpretability signals.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted Gaussian mixture (Eq. 6).
    pub mixture: GaussianMixture,
    /// The density-argmax location (Eq. 14).
    pub point: Point,
    /// Per-entity attention weights `(entity id, weight)`, the "which
    /// entities drove this prediction" signal (empty under the SUM
    /// ablation).
    pub attention: Vec<(String, f32)>,
}

/// Training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean per-tweet NLL per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds per epoch (same indexing as `epoch_losses`).
    pub epoch_wall_secs: Vec<f64>,
    /// Training tweets actually used (those with ≥1 recognized entity).
    pub n_train_used: usize,
    /// Entity-graph statistics.
    pub graph: GraphStats,
    /// Divergence-guard rollbacks performed over the run.
    pub rollbacks: u64,
    /// Epoch the run (re)started from: 0 for a fresh run, the resumed
    /// checkpoint's next epoch otherwise.
    pub start_epoch: usize,
    /// Minimum heap allocations observed in a single training batch —
    /// `Some(0)` demonstrates the zero-allocation steady state. `None`
    /// unless the `alloc-stats` counting allocator is compiled in.
    pub steady_batch_allocs: Option<u64>,
}

/// Fault-tolerance knobs for [`EdgeModel::train`]. The default disables
/// checkpointing entirely (`checkpoint_dir: None`), matching the previous
/// behavior of `train`.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Where to write checkpoints; `None` disables checkpointing (and with
    /// it, divergence-guard rollbacks — a diverging run then fails fast).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint after every N-th epoch (minimum 1).
    pub checkpoint_every: usize,
    /// How many recent checkpoints to retain (minimum 1).
    pub keep_last: usize,
    /// Resume from the newest verifiable checkpoint in `checkpoint_dir`
    /// instead of starting fresh. The resumed run replays the remaining
    /// epochs bit-for-bit identically to an uninterrupted run.
    pub resume: bool,
    /// Rollback budget for the divergence guard: after this many rollbacks,
    /// the run fails with [`TrainError::Diverged`].
    pub max_rollbacks: u32,
    /// Optional global-norm gradient clipping threshold.
    pub grad_clip: Option<f32>,
    /// Disable cross-batch buffer recycling and allocate every tape buffer
    /// fresh — the reference mode the arena path is verified against (its
    /// results are bit-for-bit identical; this switch only changes where the
    /// memory comes from).
    pub fresh_alloc: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            checkpoint_dir: None,
            checkpoint_every: 1,
            keep_last: 3,
            resume: false,
            max_rollbacks: 3,
            grad_clip: None,
            fresh_alloc: false,
        }
    }
}

/// Derives the batch-shuffle seed for one epoch. Shuffle order is a pure
/// function of `(master seed, epoch)` — the property that lets a resumed
/// run replay epochs identically without serializing RNG state. The odd
/// constant is the splitmix64 increment, decorrelating adjacent epochs.
fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Scales all gradients jointly so their global L2 norm is at most `clip`.
/// A non-finite norm is left untouched — the divergence guard handles it.
fn clip_global_norm(grads: &mut [(ParamId, Matrix)], clip: f32) {
    let sq: f64 = grads.iter().flat_map(|(_, g)| g.data()).map(|&v| v as f64 * v as f64).sum();
    let norm = sq.sqrt();
    if norm.is_finite() && norm > clip as f64 {
        let factor = (clip as f64 / norm) as f32;
        for (_, g) in grads.iter_mut() {
            g.scale_inplace(factor);
        }
    }
}

impl TrainReport {
    /// Total wall-clock seconds spent in the optimization loop.
    pub fn train_loop_secs(&self) -> f64 {
        self.epoch_wall_secs.iter().sum()
    }
}

/// Each of `ner`'s gazetteer phrases resolved to its entry in `index`.
fn phrase_table(ner: &EntityRecognizer, index: &EntityIndex) -> Vec<Option<usize>> {
    ner.phrase_table(|id| index.get(id))
}

/// The trained EDGE model.
pub struct EdgeModel {
    config: EdgeConfig,
    ner: EntityRecognizer,
    index: EntityIndex,
    /// `ner`'s gazetteer phrases resolved against `index` once, at build
    /// or load (see [`EntityRecognizer::phrase_table`]).
    phrases: Vec<Option<usize>>,
    /// Normalized adjacency; lazily materialized on mmap-loaded models
    /// (only re-saving or re-training ever touches it).
    adjacency: LazyAdjacency,
    /// Entity2vec features, shared with training tapes zero-copy; lazily
    /// materialized on mmap-loaded models.
    features: LazyFeatures,
    params: ParamStore,
    w_gcn: Vec<ParamId>,
    q1: ParamId,
    b1: ParamId,
    q2: ParamId,
    b2: ParamId,
    /// Cached diffused embeddings for inference (refreshed after training);
    /// on mmap-loaded models a borrowed — possibly quantized — view of the
    /// artifact's `smoothed` section.
    smoothed: SmoothedStore,
    /// Training-split location prior (one Gaussian over all training
    /// tweets), the opt-in fallback for zero-entity tweets.
    prior: Option<GaussianMixture>,
}

impl std::fmt::Debug for EdgeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeModel")
            .field("entities", &self.index.len())
            .field("params", &self.params.len())
            .field("prior", &self.prior.is_some())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl EdgeModel {
    /// Trains EDGE end-to-end on the training split.
    ///
    /// `ner` is the recognizer with the corpus gazetteer; `bbox` is the
    /// study region (used only to initialize the mixture head sanely).
    /// `opts` controls checkpointing, resume, and the divergence guard —
    /// [`TrainOptions::default`] disables all of it.
    ///
    /// Bad input is a typed [`TrainError`], never a panic: an empty corpus,
    /// a corpus without recognizable entities, an invalid configuration, or
    /// an optimization that diverges beyond recovery.
    pub fn train(
        train: &[Tweet],
        ner: EntityRecognizer,
        bbox: &BBox,
        config: EdgeConfig,
        opts: &TrainOptions,
    ) -> Result<(Self, TrainReport), TrainError> {
        config.check().map_err(TrainError::InvalidConfig)?;
        if train.is_empty() {
            return Err(TrainError::EmptyCorpus);
        }
        let _train_span = edge_obs::span("train");

        // Stage 1: entity2vec.
        let e2v = {
            let _span = edge_obs::span("entity2vec");
            run_entity2vec(train, &ner, &config.sgns, config.embed_dim)
        };
        if e2v.index.len() < 2 {
            return Err(TrainError::NoEntities(format!(
                "training corpus yielded {} entities (need at least 2)",
                e2v.index.len()
            )));
        }

        // Stage 2: co-occurrence graph + normalized adjacency.
        let _graph_span = edge_obs::span("graph.build");
        let graph =
            build_cooccurrence_graph(e2v.index.len(), e2v.tweet_entities.iter().map(Vec::as_slice));
        let stats = graph_stats(&graph);
        let adjacency = Arc::new(CsrMatrix::from_triplets(
            e2v.index.len(),
            e2v.index.len(),
            &normalized_adjacency_triplets(&graph),
        ));
        drop(_graph_span);
        edge_obs::gauge!("core.graph.nodes").set(e2v.index.len() as f64);
        edge_obs::gauge!("core.graph.edges").set(stats.n_edges as f64);

        // Stage 3: parameters.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = ParamStore::new();
        let mut w_gcn = Vec::new();
        let mut in_dim = config.embed_dim;
        for layer in 0..config.gcn_layers {
            w_gcn.push(
                params.add(
                    format!("w_gcn{layer}"),
                    xavier_uniform(in_dim, config.hidden_dim, &mut rng),
                ),
            );
            in_dim = config.hidden_dim;
        }
        let h_dim = if config.use_gcn { config.hidden_dim } else { config.embed_dim };
        let q1 = params.add("q1", xavier_uniform(h_dim, 1, &mut rng));
        // b1 starts at +1 so the Eq.-2 scores begin in the ReLU's active
        // region. At b1 = 0 roughly half the scores clamp; SGD then walks
        // the rest below zero and the whole attention layer dies (zero
        // gradient forever, permanently uniform weights). Softmax is
        // shift-invariant, so the positive offset changes nothing else.
        let b1 = params.add("b1", Matrix::full(1, 1, 1.0));
        let out = theta_width(config.n_components);
        // Small output weights + region-tiling bias: predictions start at
        // the bias mixture and move from there.
        let q2 = params.add("q2", xavier_uniform(h_dim, out, &mut rng).scale(0.1));
        let b2 = params.add("b2", init_head_bias(bbox, config.n_components));

        let features = Arc::new(Matrix::from_vec(
            e2v.index.len(),
            config.embed_dim,
            e2v.embeddings.iter().flatten().copied().collect(),
        ));

        // The training-split location prior, kept for the opt-in
        // zero-entity fallback at prediction time.
        let locations: Vec<Point> = train.iter().map(|t| t.location).collect();
        let prior = BivariateGaussian::fit(&locations).map(GaussianMixture::single);

        let mut model = Self {
            config,
            phrases: phrase_table(&ner, &e2v.index),
            ner,
            index: e2v.index,
            adjacency: LazyAdjacency::Ready(adjacency),
            features: LazyFeatures::Ready(features),
            params,
            w_gcn,
            q1,
            b1,
            q2,
            b2,
            smoothed: SmoothedStore::Owned(Matrix::zeros(0, 0)),
            prior,
        };

        // Stage 4: end-to-end optimization (Eq. 13).
        let report = model.optimize(train, &e2v.tweet_entities, stats, opts)?;
        model.refresh_smoothed();
        Ok((model, report))
    }

    /// Builds the Adam optimizer with this model's decay-exclusion set.
    fn make_optimizer(&self, lr: f32) -> Adam {
        let mut optimizer = Adam::new(lr, 0.9, 0.999, 1e-8, self.config.weight_decay);
        // Biases carry non-regularizable scale (the head bias holds the
        // degree-valued component means); decay applies to weights only.
        optimizer.exclude_from_decay(self.b1);
        optimizer.exclude_from_decay(self.b2);
        // The attention scorer q1 is a single d-vector whose gradient
        // pressure is weak early in training (the mixture head can hedge
        // instead); decaying it collapses the scores into the ReLU dead
        // zone and the attention degenerates to a uniform average. Exempt
        // it so Eq. 2-3 can actually differentiate entities.
        optimizer.exclude_from_decay(self.q1);
        optimizer
    }

    /// Can this freshly initialized model continue from `state`? Guards
    /// against resuming under a different configuration or corpus.
    fn check_resume_compat(&self, state: &CheckpointState) -> Result<(), TrainError> {
        use crate::persist::PersistError;
        if state.config != self.config {
            return Err(TrainError::Checkpoint(PersistError::Corrupt(
                "checkpoint was written under a different configuration".to_string(),
            )));
        }
        if state.params.len() != self.params.len() {
            return Err(TrainError::Checkpoint(PersistError::Corrupt(format!(
                "checkpoint stores {} parameters, this corpus initializes {}",
                state.params.len(),
                self.params.len()
            ))));
        }
        for i in 0..self.params.len() {
            let (id, fresh) = (ParamId(i), self.params.get(ParamId(i)));
            if state.params.get(id).shape() != fresh.shape() {
                return Err(TrainError::Checkpoint(PersistError::Corrupt(format!(
                    "parameter {i} is {:?} in the checkpoint but {:?} for this corpus",
                    state.params.get(id).shape(),
                    fresh.shape()
                ))));
            }
        }
        Ok(())
    }

    /// Restores parameters, Adam moments and epoch history from `state`,
    /// stepping at `lr` (the checkpoint's own rate on resume, a halved one
    /// on rollback). Returns `(next_epoch, stored rollbacks, optimizer)`.
    fn restore_from(
        &mut self,
        state: CheckpointState,
        lr: f32,
        epoch_losses: &mut Vec<f64>,
        epoch_wall_secs: &mut Vec<f64>,
    ) -> (usize, u64, Adam) {
        let mut optimizer = self.make_optimizer(lr);
        optimizer.load_state(state.adam);
        self.params = state.params;
        *epoch_losses = state.epoch_losses;
        *epoch_wall_secs = state.epoch_wall_secs;
        (state.next_epoch, state.rollbacks, optimizer)
    }

    fn optimize(
        &mut self,
        train: &[Tweet],
        tweet_entities: &[Vec<usize>],
        graph: GraphStats,
        opts: &TrainOptions,
    ) -> Result<TrainReport, TrainError> {
        // Usable tweets: at least one entity.
        let usable: Vec<usize> =
            (0..train.len()).filter(|&i| !tweet_entities[i].is_empty()).collect();
        if usable.is_empty() {
            return Err(TrainError::NoEntities(
                "no training tweet has a recognized entity".to_string(),
            ));
        }

        let checkpointer = opts
            .checkpoint_dir
            .as_ref()
            .map(|dir| Checkpointer::new(dir, opts.checkpoint_every, opts.keep_last));

        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut epoch_wall_secs = Vec::with_capacity(self.config.epochs);
        let mut lr = self.config.lr;
        let mut rollbacks = 0u64;
        let mut epoch = 0usize;
        let mut optimizer = self.make_optimizer(lr);

        if opts.resume {
            let Some(cp) = &checkpointer else {
                return Err(TrainError::InvalidConfig(
                    "resume requires a checkpoint directory".to_string(),
                ));
            };
            if let Some((path, state)) = cp.latest()? {
                self.check_resume_compat(&state)?;
                lr = state.lr;
                let (e, r, o) =
                    self.restore_from(state, lr, &mut epoch_losses, &mut epoch_wall_secs);
                (epoch, rollbacks, optimizer) = (e, r, o);
                edge_obs::counter!("checkpoint.resumes").inc(1);
                edge_obs::progress!(
                    "[checkpoint] resuming from {} at epoch {epoch}",
                    path.display()
                );
            }
        }
        let start_epoch = epoch;

        let telemetry_on = edge_obs::telemetry::active();
        let alloc_on = edge_obs::alloc::active();

        // Cross-batch recycled storage: the tape arena plus the staging
        // vectors for segment ids, targets and gradients all live for the
        // whole run, so once the first epoch has warmed the pools a
        // steady-state batch performs zero heap allocations
        // (`opts.fresh_alloc` reverts to per-batch allocation — the
        // bit-identical reference mode).
        let mut arena = TapeArena::new();
        let mut staging = BatchStaging::default();
        let mut grads: Vec<(ParamId, Matrix)> = Vec::new();
        let mut steady_batch_allocs: Option<u64> = None;

        'epochs: while epoch < self.config.epochs {
            let _epoch_span = edge_obs::span("epoch");
            let epoch_start = std::time::Instant::now();
            // Shuffle order is derived from (seed, epoch) alone so resumed
            // and uninterrupted runs walk identical batch sequences.
            let mut order = usable.clone();
            order.shuffle(&mut StdRng::seed_from_u64(epoch_seed(self.config.seed, epoch)));
            let mut epoch_nll = 0.0f64;
            let mut n_tweets = 0usize;
            // Per-group sum of squared gradient entries over the epoch
            // (gcn / attention / head), reported as L2 norms in telemetry.
            let mut grad_sq = [0.0f64; 3];
            let mut epoch_min_allocs: Option<u64> = None;
            for batch in order.chunks(self.config.batch_size) {
                let allocs_before =
                    if alloc_on { Some(edge_obs::alloc::counts().count) } else { None };
                let mut tape = if opts.fresh_alloc {
                    Tape::new()
                } else {
                    Tape::with_arena(std::mem::take(&mut arena))
                };
                let (nll_sum, loss) =
                    self.record_batch(&mut tape, batch, train, tweet_entities, &mut staging);
                let batch_nll = tape.scalar(nll_sum) as f64;
                tape.backward_into(loss, &mut grads);
                // Retire the tape *before* the optimizer step: its shared
                // parameter leaves drop their refcounts here, so Adam's
                // copy-on-write `get_mut` updates in place instead of
                // deep-cloning every parameter.
                if opts.fresh_alloc {
                    drop(tape);
                } else {
                    arena = tape.into_arena();
                }
                if edge_faults::enabled() && edge_faults::fired("train.poison_grads") {
                    // Fault-injection hook: simulate a numerically exploded
                    // step by poisoning the first gradient.
                    if let Some((_, g)) = grads.first_mut() {
                        g.fill(f32::NAN);
                    }
                }
                if let Some(clip) = opts.grad_clip {
                    clip_global_norm(&mut grads, clip);
                }

                // Divergence guard: a non-finite loss or gradient must not
                // reach the parameters. Roll back to the last checkpoint at
                // half the learning rate, or fail with a typed error.
                let loss_finite = batch_nll.is_finite();
                let finite = if !loss_finite {
                    edge_obs::counter!("guard.nonfinite_loss").inc(1);
                    false
                } else if grads.iter().any(|(_, g)| g.data().iter().any(|v| !v.is_finite())) {
                    edge_obs::counter!("guard.nonfinite_grads").inc(1);
                    false
                } else {
                    true
                };
                if !finite {
                    let detail = if loss_finite {
                        "non-finite gradient".to_string()
                    } else {
                        format!("non-finite loss {batch_nll}")
                    };
                    rollbacks += 1;
                    edge_obs::counter!("guard.rollbacks").inc(1);
                    if rollbacks > opts.max_rollbacks as u64 {
                        return Err(TrainError::Diverged {
                            epoch,
                            rollbacks,
                            detail: format!("{detail}; rollback budget exhausted"),
                        });
                    }
                    let Some(cp) = &checkpointer else {
                        return Err(TrainError::Diverged {
                            epoch,
                            rollbacks,
                            detail: format!("{detail}; checkpointing disabled"),
                        });
                    };
                    let Some((path, state)) = cp.latest()? else {
                        return Err(TrainError::Diverged {
                            epoch,
                            rollbacks,
                            detail: format!("{detail}; no checkpoint to roll back to"),
                        });
                    };
                    self.check_resume_compat(&state)?;
                    lr *= 0.5;
                    let (e, _, o) =
                        self.restore_from(state, lr, &mut epoch_losses, &mut epoch_wall_secs);
                    (epoch, optimizer) = (e, o);
                    edge_obs::progress!(
                        "[guard] {detail} at epoch {epoch}: rolled back to {} with lr {lr}",
                        path.display()
                    );
                    if !opts.fresh_alloc {
                        for (_, g) in grads.drain(..) {
                            arena.recycle(g);
                        }
                    }
                    continue 'epochs;
                }

                if telemetry_on {
                    for (pid, g) in &grads {
                        let sq: f64 = g.data().iter().map(|&x| x as f64 * x as f64).sum();
                        grad_sq[self.param_group(*pid)] += sq;
                    }
                }
                let step_span = edge_obs::span("adam.step");
                optimizer.step(&mut self.params, &grads);
                drop(step_span);
                if opts.fresh_alloc {
                    grads.clear();
                } else {
                    // Gradient buffers go back to the pool for the next batch.
                    for (_, g) in grads.drain(..) {
                        arena.recycle(g);
                    }
                }
                if let Some(before) = allocs_before {
                    let delta = edge_obs::alloc::counts().count.saturating_sub(before);
                    epoch_min_allocs = Some(epoch_min_allocs.map_or(delta, |m| m.min(delta)));
                    steady_batch_allocs = Some(steady_batch_allocs.map_or(delta, |m| m.min(delta)));
                }

                epoch_nll += batch_nll;
                n_tweets += batch.len();
            }
            let mean_nll = epoch_nll / n_tweets as f64;
            let wall_secs = epoch_start.elapsed().as_secs_f64();
            epoch_losses.push(mean_nll);
            epoch_wall_secs.push(wall_secs);
            edge_obs::counter!("core.train.epochs").inc(1);
            edge_obs::gauge!("core.train.nll").set(mean_nll);
            if telemetry_on {
                edge_obs::telemetry::record_epoch(edge_obs::EpochRecord {
                    epoch,
                    nll: mean_nll,
                    grad_norms: ["gcn", "attention", "head"]
                        .iter()
                        .zip(grad_sq)
                        .map(|(name, sq)| (name.to_string(), sq.sqrt()))
                        .collect(),
                    lr: lr as f64,
                    tweets_per_sec: n_tweets as f64 / wall_secs.max(1e-9),
                    wall_secs,
                    rollbacks,
                    batch_allocs: epoch_min_allocs,
                });
            }
            if let Some(cp) = &checkpointer {
                if cp.due_after(epoch) {
                    let state = CheckpointState {
                        schema_version: CHECKPOINT_VERSION,
                        config: self.config.clone(),
                        next_epoch: epoch + 1,
                        lr,
                        rollbacks,
                        params: self.params.clone(),
                        adam: optimizer.export_state(),
                        epoch_losses: epoch_losses.clone(),
                        epoch_wall_secs: epoch_wall_secs.clone(),
                    };
                    if let Err(e) = cp.write(&state) {
                        // A failed checkpoint write must not kill a healthy
                        // run; it only narrows recovery options.
                        edge_obs::counter!("checkpoint.write_errors").inc(1);
                        edge_obs::progress!("[checkpoint] write failed (continuing): {e}");
                    }
                }
            }
            // Fault-injection hook for interruption tests: an `err` here
            // aborts training exactly at an epoch boundary, after any due
            // checkpoint was written — the in-process analogue of SIGKILL.
            edge_faults::failpoint!("train.epoch_end");
            epoch += 1;
        }
        Ok(TrainReport {
            epoch_losses,
            epoch_wall_secs,
            n_train_used: usable.len(),
            graph,
            rollbacks,
            start_epoch,
            steady_batch_allocs,
        })
    }

    /// Records one training batch's forward pass on `tape`: diffusion
    /// (Eq. 1), one segment op aggregating every tweet (Eq. 2–4), the
    /// mixture head (Eq. 7) and the NLL (Eq. 13). Returns the summed NLL
    /// node and the batch-mean loss node. The node count does not depend
    /// on the batch size.
    fn record_batch(
        &self,
        tape: &mut Tape,
        batch: &[usize],
        train: &[Tweet],
        tweet_entities: &[Vec<usize>],
        staging: &mut BatchStaging,
    ) -> (NodeId, NodeId) {
        let x = tape.constant_shared(Arc::clone(self.features.get()));
        let smoothed = if self.config.use_gcn {
            gcn_forward(tape, self.adjacency.get(), x, &self.w_gcn, &self.params)
        } else {
            x
        };
        let BatchStaging { seg_idx, seg_off, targets } = staging;
        seg_idx.clear();
        seg_off.clear();
        targets.clear();
        seg_off.push(0);
        for &i in batch {
            seg_idx.extend_from_slice(&tweet_entities[i]);
            seg_off.push(seg_idx.len());
            targets.push((train[i].location.lat, train[i].location.lon));
        }
        let z = if self.config.use_attention {
            attention_batch(tape, smoothed, seg_idx, seg_off, self.q1, self.b1, &self.params)
        } else {
            tape.segment_sum(smoothed, seg_idx, seg_off)
        }; // B x h
        let _mdn_span = edge_obs::span("mdn");
        let w = tape.param(self.q2, &self.params);
        let b = tape.param(self.b2, &self.params);
        let lin = tape.matmul(z, w);
        let theta = tape.add_row_broadcast(lin, b); // Eq. 7
        let nll_sum = tape.gmm_nll(theta, targets, self.config.n_components);
        let loss = tape.scale(nll_sum, 1.0 / batch.len() as f32);
        (nll_sum, loss)
    }

    /// Telemetry grouping of a parameter: 0 = GCN stack, 1 = attention
    /// scorer, 2 = mixture head.
    fn param_group(&self, pid: ParamId) -> usize {
        if self.w_gcn.contains(&pid) {
            0
        } else if pid == self.q1 || pid == self.b1 {
            1
        } else {
            2
        }
    }

    /// Recomputes the cached diffused embeddings from the current weights.
    fn refresh_smoothed(&mut self) {
        self.smoothed = SmoothedStore::Owned(if self.config.use_gcn {
            let weights: Vec<&Matrix> = self.w_gcn.iter().map(|&w| self.params.get(w)).collect();
            gcn_infer(self.adjacency.get(), self.features.get(), &weights)
        } else {
            Matrix::clone(self.features.get())
        });
    }

    /// Rebuilds a model from its persisted parts (see `persist`); the
    /// diffused-embedding cache is recomputed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: EdgeConfig,
        ner: EntityRecognizer,
        index: EntityIndex,
        adjacency: Arc<CsrMatrix>,
        features: Matrix,
        params: ParamStore,
        w_gcn: Vec<ParamId>,
        q1: ParamId,
        b1: ParamId,
        q2: ParamId,
        b2: ParamId,
        prior: Option<GaussianMixture>,
    ) -> Self {
        let mut model = Self {
            config,
            phrases: phrase_table(&ner, &index),
            ner,
            index,
            adjacency: LazyAdjacency::Ready(adjacency),
            features: LazyFeatures::Ready(Arc::new(features)),
            params,
            w_gcn,
            q1,
            b1,
            q2,
            b2,
            smoothed: SmoothedStore::Owned(Matrix::zeros(0, 0)),
            prior,
        };
        model.refresh_smoothed();
        model
    }

    /// Builds a model around pre-verified artifact stores — the mmap
    /// loading path in [`crate::artifact`]. The smoothed table arrives
    /// ready (stored precomputed in the artifact), so nothing is
    /// recomputed here: this is the microsecond cold-start constructor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_stores(
        config: EdgeConfig,
        ner: EntityRecognizer,
        index: EntityIndex,
        adjacency: LazyAdjacency,
        features: LazyFeatures,
        params: ParamStore,
        w_gcn: Vec<ParamId>,
        q1: ParamId,
        b1: ParamId,
        q2: ParamId,
        b2: ParamId,
        smoothed: SmoothedStore,
        prior: Option<GaussianMixture>,
    ) -> Self {
        Self {
            config,
            phrases: phrase_table(&ner, &index),
            ner,
            index,
            adjacency,
            features,
            params,
            w_gcn,
            q1,
            b1,
            q2,
            b2,
            smoothed,
            prior,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &EdgeConfig {
        &self.config
    }

    /// The normalized adjacency operator (persistence accessor). On an
    /// mmap-loaded model this materializes the section on first touch;
    /// `fsck` has already vouched for its parseability — the fallible
    /// variant is the crate-private `try_adjacency`, which the save paths use.
    pub fn adjacency_matrix(&self) -> &Arc<CsrMatrix> {
        self.adjacency.get()
    }

    /// Like [`Self::adjacency_matrix`], but surfaces a typed error if the
    /// artifact's adjacency section cannot be parsed.
    pub(crate) fn try_adjacency(&self) -> Result<&Arc<CsrMatrix>, crate::PersistError> {
        self.adjacency.try_get()
    }

    /// The entity2vec feature matrix `X` (persistence accessor). On an
    /// mmap-loaded model this materializes the section on first touch
    /// (infallible: shape and checksum were verified at open).
    pub fn feature_matrix(&self) -> &Matrix {
        self.features.get()
    }

    /// The inference embedding table (owned, or borrowed from an mmap).
    pub(crate) fn smoothed_store(&self) -> &SmoothedStore {
        &self.smoothed
    }

    /// The trained parameters (persistence accessor).
    pub fn param_store(&self) -> &ParamStore {
        &self.params
    }

    /// The per-layer GCN weight ids (persistence accessor).
    pub fn gcn_param_ids(&self) -> &[ParamId] {
        &self.w_gcn
    }

    /// The attention parameters `(Q1, b1)` (persistence accessor).
    pub fn attention_param_ids(&self) -> (ParamId, ParamId) {
        (self.q1, self.b1)
    }

    /// The mixture-head parameters `(Q2, b2)` (persistence accessor).
    pub fn head_param_ids(&self) -> (ParamId, ParamId) {
        (self.q2, self.b2)
    }

    /// The training-split location prior (persistence accessor; `None` when
    /// the training split was too small to fit one).
    pub fn prior(&self) -> Option<&GaussianMixture> {
        self.prior.as_ref()
    }

    /// The entity inventory.
    pub fn entity_index(&self) -> &EntityIndex {
        &self.index
    }

    /// The recognizer the model uses at inference.
    pub fn recognizer(&self) -> &EntityRecognizer {
        &self.ner
    }

    /// The diffused (spatially smoothed) embedding of entity `idx`,
    /// decoded to owned floats (quantized mmap models dequantize here).
    pub fn smoothed_embedding(&self, idx: usize) -> Vec<f32> {
        self.smoothed.row_to_vec(idx)
    }

    /// The entity indices a tweet text resolves to (known entities only),
    /// sorted and distinct.
    pub fn resolve_entities(&self, text: &str) -> Vec<usize> {
        let mut tokens = TokenScan::new();
        tokens.scan(text);
        let mut ids = Vec::new();
        self.resolve_into(&tokens, &mut Mentions::new(), &mut ids);
        ids
    }

    /// [`Self::resolve_entities`] over an already tokenized text, through
    /// caller-owned buffers: runs this model's recognizer over `tokens`
    /// into `mentions`, then leaves the sorted, distinct entity indices in
    /// `out`. Allocation-free once the buffers are warm.
    pub fn resolve_into(&self, tokens: &TokenScan, mentions: &mut Mentions, out: &mut Vec<usize>) {
        self.ner.scan(tokens, mentions);
        out.clear();
        for (i, span) in mentions.spans().iter().enumerate() {
            let idx = match span.kind {
                MentionKind::Phrase(node) => self.phrases[node as usize],
                _ => self.index.get(mentions.id(i)),
            };
            out.extend(idx);
        }
        out.sort_unstable();
        out.dedup();
        edge_obs::counter!("core.ner.resolve.calls").inc(1);
        if out.is_empty() {
            // The tweet mentions no entity present in the training graph —
            // the coverage gap the paper excludes (and the quantity the
            // `evaluate` miss rate reports).
            edge_obs::counter!("core.ner.resolve.misses").inc(1);
        }
    }

    /// Predicts one request without batching plumbing: resolves entities
    /// (for text input), applies the zero-entity policy from `opts`, and
    /// runs the tape-free inference engine.
    fn locate_one(
        &self,
        request: &PredictRequest,
        opts: &PredictOptions,
    ) -> Result<PredictResponse, PredictError> {
        edge_obs::counter!("core.predict.calls").inc(1);
        let resolved;
        let entities: &[usize] = match &request.input {
            PredictInput::Text(text) => {
                resolved = self.resolve_entities(text);
                &resolved
            }
            PredictInput::Entities(ids) => {
                if let Some(&bad) = ids.iter().find(|&&id| id >= self.index.len()) {
                    return Err(PredictError::EntityOutOfRange {
                        id: bad,
                        n_entities: self.index.len(),
                    });
                }
                ids
            }
        };
        if entities.is_empty() {
            if opts.fallback_prior {
                if let Some(prior) = &self.prior {
                    edge_obs::counter!("core.predict.fallbacks").inc(1);
                    return Ok(PredictResponse {
                        prediction: Prediction {
                            mixture: prior.clone(),
                            point: prior.mode(),
                            attention: Vec::new(),
                        },
                        from_fallback: true,
                    });
                }
            }
            return Err(PredictError::NoEntities);
        }
        let p = crate::infer::InferParams {
            q1: self.params.get(self.q1),
            b1: self.params.get(self.b1),
            q2: self.params.get(self.q2),
            b2: self.params.get(self.b2),
            use_attention: self.config.use_attention,
            n_components: self.config.n_components,
        };
        let (mixture, weights) = crate::infer::infer_prediction(&self.smoothed, entities, &p);
        let point = mixture.mode();
        let attention = entities
            .iter()
            .zip(weights)
            .map(|(&e, w)| (self.index.name(e).to_string(), w))
            .collect();
        Ok(PredictResponse {
            prediction: Prediction { mixture, point, attention },
            from_fallback: false,
        })
    }
}

impl Predictor for EdgeModel {
    fn name(&self) -> &str {
        "EDGE"
    }

    /// Fans the batch across the `edge-par` pool (prediction is pure).
    /// Output is in input order, one result per request.
    fn locate_batch(
        &self,
        requests: &[PredictRequest],
        opts: &PredictOptions,
    ) -> Vec<Result<PredictResponse, PredictError>> {
        let _span = edge_obs::span("predict_batch");
        let mut out: Vec<Option<Result<PredictResponse, PredictError>>> =
            Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || None);
        edge_par::parallel_for_chunks_mut(&mut out, 1, |i, slot| {
            // Per-item stage span: `edge-par` re-adopts the submitter's
            // context on its workers, so this parents to the dispatching
            // span (and keeps its request id) even across threads.
            let _item = edge_obs::span("predict_item");
            slot[0] = Some(self.locate_one(&requests[i], opts));
        });
        out.into_iter().map(|r| r.expect("every request slot is filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{dataset_recognizer, nyma, PresetSize};
    use edge_geo::DistanceReport;

    fn trained() -> (EdgeModel, TrainReport, edge_data::Dataset) {
        let d = nyma(PresetSize::Smoke, 11);
        let ner = dataset_recognizer(&d);
        let (train, _) = d.paper_split();
        let (model, report) =
            EdgeModel::train(train, ner, &d.bbox, EdgeConfig::smoke(), &TrainOptions::default())
                .expect("train");
        (model, report, d)
    }

    #[test]
    fn training_reduces_loss() {
        let (_, report, _) = trained();
        let first = report.epoch_losses.first().copied().unwrap();
        let last = report.epoch_losses.last().copied().unwrap();
        assert!(last < first - 0.3, "loss should drop substantially: {first} -> {last}");
        assert_eq!(report.epoch_wall_secs.len(), report.epoch_losses.len());
        assert!(report.epoch_wall_secs.iter().all(|&s| s > 0.0));
        assert!(report.train_loop_secs() >= *report.epoch_wall_secs.last().unwrap());
        assert!(report.n_train_used > 1000);
        assert!(report.graph.n_edges > 100);
    }

    #[test]
    fn predictions_are_sane_and_interpretable() {
        let (model, _, d) = trained();
        let (_, test) = d.paper_split();
        let opts = PredictOptions::default();
        let mut covered = 0;
        for t in test.iter().take(200) {
            let Ok(r) = model.locate(&PredictRequest::text(&t.text), &opts) else { continue };
            let p = r.prediction;
            covered += 1;
            assert_eq!(p.mixture.len(), model.config().n_components);
            assert!(p.point.is_finite());
            assert!(
                d.bbox.expand(0.5).contains(&p.point),
                "prediction far outside region: {:?}",
                p.point
            );
            // Attention weights form a distribution over the tweet's entities.
            if !p.attention.is_empty() {
                let sum: f32 = p.attention.iter().map(|(_, w)| w).sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
        assert!(covered > 150, "coverage too low: {covered}/200");
    }

    #[test]
    fn model_beats_region_center_baseline() {
        let (model, _, d) = trained();
        let (_, test) = d.paper_split();
        let outcome = model.evaluate(test, &PredictOptions::default());
        assert!(outcome.coverage > 0.7, "coverage {}", outcome.coverage);
        assert_eq!(outcome.pairs.len() + outcome.abstained, test.len());
        let report = DistanceReport::from_pairs(&outcome.point_pairs()).unwrap();
        // The fixed center-of-region guess.
        let center_pairs: Vec<(Point, Point)> =
            outcome.pairs.iter().map(|(_, t)| (d.bbox.center(), *t)).collect();
        let center = DistanceReport::from_pairs(&center_pairs).unwrap();
        assert!(
            report.median_km < center.median_km,
            "EDGE median {} !< center {}",
            report.median_km,
            center.median_km
        );
        assert!(report.at_3km > center.at_3km);
    }

    #[test]
    fn unknown_text_is_a_typed_abstention() {
        let (model, _, _) = trained();
        let err = model
            .locate(&PredictRequest::text("zzz qqq completely unknown words"), &Default::default())
            .unwrap_err();
        assert_eq!(err, PredictError::NoEntities);
    }

    #[test]
    fn locate_batch_matches_serial_locate() {
        let (model, _, d) = trained();
        let (_, test) = d.paper_split();
        let opts = PredictOptions::default();
        let requests: Vec<PredictRequest> =
            test.iter().take(64).map(|t| PredictRequest::text(&t.text)).collect();
        let batched = model.locate_batch(&requests, &opts);
        assert_eq!(batched.len(), requests.len());
        for (req, got) in requests.iter().zip(&batched) {
            let serial = model.locate(req, &opts);
            match (serial, got) {
                (Err(a), Err(b)) => assert_eq!(a, *b),
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.prediction.point, b.prediction.point);
                    assert_eq!(a.prediction.attention, b.prediction.attention);
                }
                (a, b) => {
                    panic!("coverage mismatch for {req:?}: {:?} vs {:?}", a.is_ok(), b.is_ok())
                }
            }
        }
    }

    #[test]
    fn stale_entity_indices_are_a_typed_error() {
        let (model, _, _) = trained();
        let n = model.entity_index().len();
        let err = model.locate(&PredictRequest::entities(vec![0, n]), &Default::default());
        assert_eq!(err.unwrap_err(), PredictError::EntityOutOfRange { id: n, n_entities: n });
    }

    #[test]
    fn batch_tape_size_does_not_grow_with_the_batch() {
        // One segment op aggregates the whole batch, so a batch's tape has
        // as many nodes for 8 tweets as for 64. The per-tweet graph it
        // replaced added nine nodes per tweet.
        let (mut model, _, d) = trained();
        let (train, _) = d.paper_split();
        let tweet_entities: Vec<Vec<usize>> =
            train.iter().map(|t| model.resolve_entities(&t.text)).collect();
        let usable: Vec<usize> =
            (0..train.len()).filter(|&i| !tweet_entities[i].is_empty()).collect();
        for use_attention in [true, false] {
            model.config.use_attention = use_attention;
            let nodes = |n: usize| {
                let mut tape = Tape::new();
                let mut staging = BatchStaging::default();
                model.record_batch(&mut tape, &usable[..n], train, &tweet_entities, &mut staging);
                tape.len()
            };
            assert_eq!(nodes(8), nodes(64), "use_attention = {use_attention}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let d = nyma(PresetSize::Smoke, 21);
        let ner = dataset_recognizer(&d);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 2;
        let opts = TrainOptions::default();
        let (m1, r1) =
            EdgeModel::train(&train[..800], dataset_recognizer(&d), &d.bbox, cfg.clone(), &opts)
                .unwrap();
        let (m2, r2) = EdgeModel::train(&train[..800], ner, &d.bbox, cfg, &opts).unwrap();
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        let req = PredictRequest::entities(vec![0, 1]);
        let p1 = m1.locate(&req, &Default::default()).unwrap();
        let p2 = m2.locate(&req, &Default::default()).unwrap();
        assert_eq!(p1.prediction.point, p2.prediction.point);
    }

    #[test]
    fn fresh_alloc_reference_mode_is_bit_identical() {
        // The arena path re-carves recycled (re-zeroed) buffers; the
        // fresh-alloc path allocates everything. Same numbers, to the bit —
        // losses, parameters, and predictions.
        let d = nyma(PresetSize::Smoke, 21);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 2;
        let (m1, r1) = EdgeModel::train(
            &train[..800],
            dataset_recognizer(&d),
            &d.bbox,
            cfg.clone(),
            &TrainOptions::default(),
        )
        .unwrap();
        let opts = TrainOptions { fresh_alloc: true, ..TrainOptions::default() };
        let (m2, r2) =
            EdgeModel::train(&train[..800], dataset_recognizer(&d), &d.bbox, cfg, &opts).unwrap();
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
        for ((_, name, a), (_, _, b)) in m1.param_store().iter().zip(m2.param_store().iter()) {
            assert_eq!(a.shape(), b.shape(), "{name}");
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!(x.to_bits() == y.to_bits(), "{name}: {x} vs {y}");
            }
        }
        let req = PredictRequest::entities(vec![0, 1]);
        let p1 = m1.locate(&req, &Default::default()).unwrap().prediction;
        let p2 = m2.locate(&req, &Default::default()).unwrap().prediction;
        assert_eq!(p1.point, p2.point);
        assert_eq!(p1.attention, p2.attention);
    }

    #[test]
    fn ablation_variants_train() {
        let d = nyma(PresetSize::Smoke, 31);
        let ner = dataset_recognizer(&d);
        let (train, _) = d.paper_split();
        let mut base = EdgeConfig::smoke();
        base.epochs = 3;
        for cfg in [
            base.clone().ablation_no_gcn(),
            base.clone().ablation_sum(),
            base.clone().ablation_no_mixture(),
        ] {
            let (model, report) = EdgeModel::train(
                &train[..1000],
                dataset_recognizer(&d),
                &d.bbox,
                cfg.clone(),
                &TrainOptions::default(),
            )
            .unwrap();
            assert!(report.epoch_losses.last().unwrap().is_finite());
            let p = model
                .locate(&PredictRequest::entities(vec![0]), &Default::default())
                .unwrap()
                .prediction;
            assert_eq!(p.mixture.len(), cfg.n_components);
            if !cfg.use_attention {
                assert!(p.attention.is_empty(), "SUM ablation reports no attention");
            }
        }
        let _ = ner;
    }

    #[test]
    fn empty_entity_request_is_a_typed_abstention() {
        let (model, _, _) = trained();
        let err = model.locate(&PredictRequest::entities(Vec::new()), &Default::default());
        assert_eq!(err.unwrap_err(), PredictError::NoEntities);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let d = nyma(PresetSize::Smoke, 11);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.gcn_layers = 0;
        let err =
            EdgeModel::train(train, dataset_recognizer(&d), &d.bbox, cfg, &TrainOptions::default())
                .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fallback_prior_covers_unknown_text() {
        let (model, _, d) = trained();
        let req = PredictRequest::text("zzz qqq completely unknown words");
        let opts = PredictOptions::default();
        assert_eq!(model.locate(&req, &opts).unwrap_err(), PredictError::NoEntities);
        let with_prior = opts.with_fallback_prior(true);
        let r = model.locate(&req, &with_prior).expect("prior fallback");
        assert!(r.from_fallback, "the response records its prior provenance");
        assert!(r.prediction.attention.is_empty(), "prior prediction carries no attention");
        assert!(
            d.bbox.expand(0.5).contains(&r.prediction.point),
            "prior mode should sit in the study region: {:?}",
            r.prediction.point
        );
        // Entity-bearing tweets are unaffected by the option.
        let (_, test) = d.paper_split();
        let t = test.iter().find(|t| !model.resolve_entities(&t.text).is_empty()).unwrap();
        let treq = PredictRequest::text(&t.text);
        let with = model.locate(&treq, &with_prior).unwrap();
        let without = model.locate(&treq, &opts).unwrap();
        assert_eq!(with.prediction.point, without.prediction.point);
        assert!(!with.from_fallback);
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_from_scratch() {
        let _fp = edge_faults::FailScenario::setup();
        // Checkpointing must not perturb training; `resume` with an empty
        // directory is a fresh start. (Failpoint-driven interruption tests
        // live in `tests/faults.rs` — a separate process — because the
        // failpoint registry is global.)
        let d = nyma(PresetSize::Smoke, 41);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 3;
        let slice = &train[..600];
        let (_, plain) = EdgeModel::train(
            slice,
            dataset_recognizer(&d),
            &d.bbox,
            cfg.clone(),
            &TrainOptions::default(),
        )
        .unwrap();

        let dir = std::env::temp_dir().join(format!("edge_train_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = TrainOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            resume: true, // empty dir: must behave as a fresh start
            ..TrainOptions::default()
        };
        let (_, ckpt) =
            EdgeModel::train(slice, dataset_recognizer(&d), &d.bbox, cfg, &opts).unwrap();
        assert_eq!(plain.epoch_losses, ckpt.epoch_losses);
        assert_eq!(ckpt.start_epoch, 0);
        assert_eq!(ckpt.rollbacks, 0);
        let cp = Checkpointer::new(&dir, 2, 3);
        assert!(!cp.list().is_empty(), "checkpoints should have been written");
        let (_, state) = cp.latest().unwrap().expect("latest checkpoint");
        assert_eq!(state.next_epoch, 2, "epochs=3, every=2 → one checkpoint after epoch 1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_dir_is_invalid_config() {
        let d = nyma(PresetSize::Smoke, 41);
        let (train, _) = d.paper_split();
        let opts = TrainOptions { resume: true, ..TrainOptions::default() };
        let err = EdgeModel::train(
            &train[..600],
            dataset_recognizer(&d),
            &d.bbox,
            EdgeConfig::smoke(),
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }
}
