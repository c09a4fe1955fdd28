//! Fault-injection suite: drives training and persistence through the
//! `edge-faults` failpoints and asserts that every injected fault ends in a
//! typed error or a logged recovery — never a panic, never silent
//! corruption.
//!
//! These tests live in their own integration binary (= their own process)
//! because the failpoint registry is global: a failpoint armed here must
//! not be observable by the unit tests training models concurrently. Within
//! this binary, every test grabs `FailScenario::setup()` as its first
//! statement — the scenario holds a global lock, serializing the tests, so
//! a reference (fault-free) run in one test can never trip a failpoint
//! armed by another. Faults are armed/disarmed mid-test with
//! `configure`/`remove` while the scenario stays held.

use std::path::PathBuf;

use edge_core::{
    inspect_artifact, load_checkpoint, ArtifactLoad, Checkpointer, EdgeConfig, EdgeModel,
    PredictRequest, Predictor, QuantMode, TrainError, TrainOptions,
};
use edge_data::{SimDate, Tweet};
use edge_geo::{BBox, Point};
use edge_tensor::tape::ParamId;
use edge_text::{EntityCategory, EntityRecognizer};

fn bbox() -> BBox {
    BBox::new(40.0, 41.0, -75.0, -74.0)
}

fn tweet(id: u64, text: &str, lat: f64, lon: f64) -> Tweet {
    Tweet {
        id,
        text: text.to_string(),
        location: Point::new(lat, lon),
        date: SimDate::new(2020, 3, 12),
        gold_entities: vec![],
    }
}

fn venue_ner() -> EntityRecognizer {
    EntityRecognizer::with_gazetteer([
        ("alpha cafe", EntityCategory::Facility),
        ("beta park", EntityCategory::Geolocation),
        ("gamma pier", EntityCategory::Geolocation),
    ])
}

/// 30 tweets per venue, every one carrying a recognizable entity.
fn corpus() -> Vec<Tweet> {
    let mut tweets = Vec::new();
    let venues =
        [("alpha cafe", 40.2, -74.8), ("beta park", 40.5, -74.5), ("gamma pier", 40.8, -74.2)];
    let mut id = 0;
    for (name, lat, lon) in venues {
        for k in 0..30usize {
            tweets.push(tweet(
                id,
                &format!("spent time at {name} again {k}"),
                lat + 1e-4 * (k % 7) as f64,
                lon,
            ));
            id += 1;
        }
    }
    tweets
}

fn cfg(epochs: usize) -> EdgeConfig {
    let mut c = EdgeConfig::smoke();
    c.epochs = epochs;
    c.batch_size = 16;
    c
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edge_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_params_identical(a: &EdgeModel, b: &EdgeModel, context: &str) {
    assert_eq!(a.param_store().len(), b.param_store().len(), "{context}");
    for i in 0..a.param_store().len() {
        let id = ParamId(i);
        assert_eq!(
            a.param_store().get(id).data(),
            b.param_store().get(id).data(),
            "parameter {i} differs: {context}"
        );
    }
}

#[test]
fn interrupted_training_resumes_bit_identically() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let config = cfg(6);

    // Reference: one uninterrupted run.
    let (reference, ref_report) =
        EdgeModel::train(&tweets, venue_ner(), &bbox(), config.clone(), &TrainOptions::default())
            .unwrap();

    // Interrupted run: checkpoint every 2 epochs, die via an injected fault
    // after epoch 3 finishes — the newest checkpoint then holds next_epoch=4.
    let dir = tmp_dir("resume");
    let opts = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        ..TrainOptions::default()
    };
    edge_faults::configure("train.epoch_end", "3*off->err(simulated crash)").unwrap();
    let err = EdgeModel::train(&tweets, venue_ner(), &bbox(), config.clone(), &opts).unwrap_err();
    assert!(matches!(err, TrainError::Interrupted(_)), "{err}");
    edge_faults::remove("train.epoch_end");

    // The checkpoint on disk verifies end-to-end (fsck path).
    let cp = Checkpointer::new(&dir, 2, 3);
    let (ckpt_path, state) = cp.latest().unwrap().expect("checkpoint written");
    assert_eq!(state.next_epoch, 4);
    let info = inspect_artifact(&ckpt_path).expect("fsck");
    assert_eq!(info.kind, "checkpoint");
    assert!(info.detail.contains("next epoch 4"), "{}", info.detail);

    // Resume and finish: must be indistinguishable from the uninterrupted
    // run — same loss trajectory, bit-identical parameters.
    let resume_opts = TrainOptions { resume: true, ..opts.clone() };
    let (resumed, res_report) =
        EdgeModel::train(&tweets, venue_ner(), &bbox(), config.clone(), &resume_opts).unwrap();
    assert_eq!(res_report.start_epoch, 4);
    assert_eq!(ref_report.epoch_losses, res_report.epoch_losses);
    assert_params_identical(&reference, &resumed, "resume after interruption");

    // Corrupt the newest checkpoint (the resumed run's final `ckpt-000006`):
    // resume falls back to the older `ckpt-000004` and still converges to
    // the identical final state.
    let (newest, newest_state) = cp.latest().unwrap().unwrap();
    assert_eq!(newest_state.next_epoch, 6);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).unwrap();
    assert!(load_checkpoint(&newest).is_err(), "corruption must be detected");
    let (resumed2, res2) =
        EdgeModel::train(&tweets, venue_ner(), &bbox(), config, &resume_opts).unwrap();
    assert_eq!(res2.start_epoch, 4, "must fall back past the corrupt checkpoint");
    assert_eq!(ref_report.epoch_losses, res2.epoch_losses);
    assert_params_identical(&reference, &resumed2, "resume past a corrupt checkpoint");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn divergence_guard_rolls_back_and_recovers() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let config = cfg(4);
    // All 90 tweets carry an entity; batch 16 → 6 batches per epoch.
    let n_batches = tweets.len().div_ceil(config.batch_size);

    let dir = tmp_dir("guard");
    // Poison one gradient in epoch 1's first batch — after the epoch-0
    // checkpoint exists, so the guard has somewhere to roll back to.
    edge_faults::configure("train.poison_grads", &format!("{n_batches}*off->1*err->off")).unwrap();
    let opts = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..TrainOptions::default()
    };
    let (_, report) =
        EdgeModel::train(&tweets, venue_ner(), &bbox(), config.clone(), &opts).unwrap();
    assert_eq!(report.rollbacks, 1, "exactly one rollback expected");
    assert_eq!(report.epoch_losses.len(), config.epochs);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    // The halved learning rate lands in the post-rollback checkpoints.
    let cp = Checkpointer::new(&dir, 1, 3);
    let (_, state) = cp.latest().unwrap().unwrap();
    assert!((state.lr - config.lr * 0.5).abs() < 1e-9, "lr {} not halved", state.lr);
    assert_eq!(state.rollbacks, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn divergence_without_checkpoints_is_a_typed_error() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    edge_faults::configure("train.poison_grads", "1*err->off").unwrap();
    let err = EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(2), &TrainOptions::default())
        .unwrap_err();
    match err {
        TrainError::Diverged { epoch, rollbacks, detail } => {
            assert_eq!(epoch, 0);
            assert_eq!(rollbacks, 1);
            assert!(detail.contains("checkpointing disabled"), "{detail}");
        }
        other => panic!("expected Diverged, got {other}"),
    }
}

#[test]
fn rollback_budget_exhaustion_is_a_typed_error() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let dir = tmp_dir("budget");
    // Every batch of epoch ≥1 is poisoned: the guard rolls back over and
    // over until the budget runs out.
    let n_batches = tweets.len().div_ceil(16);
    edge_faults::configure("train.poison_grads", &format!("{n_batches}*off->err")).unwrap();
    let opts = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        max_rollbacks: 2,
        ..TrainOptions::default()
    };
    let err = EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(4), &opts).unwrap_err();
    match err {
        TrainError::Diverged { rollbacks, detail, .. } => {
            assert_eq!(rollbacks, 3, "budget of 2 → fails on the third rollback");
            assert!(detail.contains("budget exhausted"), "{detail}");
        }
        other => panic!("expected Diverged, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_write_failures_do_not_kill_training() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let dir = tmp_dir("wfail");
    edge_faults::configure("checkpoint.save", "err(disk full)").unwrap();
    let opts = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..TrainOptions::default()
    };
    let (model, report) = EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(3), &opts)
        .expect("checkpoint write failures are non-fatal");
    assert_eq!(report.epoch_losses.len(), 3);
    assert!(model.locate(&PredictRequest::text("beta park"), &Default::default()).is_ok());
    assert!(
        Checkpointer::new(&dir, 1, 3).list().is_empty(),
        "no checkpoint should have survived the injected failure"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_save_failures_leave_previous_model_on_disk() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let (m1, _) =
        EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(2), &TrainOptions::default()).unwrap();
    let dir = tmp_dir("save");
    let path = dir.join("model.edge");
    m1.save_artifact(&path, QuantMode::None).unwrap();

    for (fp, spec) in
        [("persist.save", "err"), ("fsio.write", "partial(64)"), ("fsio.fsync", "err")]
    {
        edge_faults::configure(fp, spec).unwrap();
        assert!(m1.save_artifact(&path, QuantMode::None).is_err(), "{fp} should fail the save");
        edge_faults::remove(fp);
        let reloaded = EdgeModel::load_artifact(&path).expect("previous artifact must stay valid");
        assert_params_identical(&m1, &reloaded, fp);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_checkpoint_write_is_invisible_to_resume() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let dir = tmp_dir("torn");
    let opts = TrainOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..TrainOptions::default()
    };
    // First two checkpoints land; the third write tears mid-file; the run
    // is then interrupted at the same epoch boundary.
    edge_faults::configure("fsio.write", "2*off->partial(100)").unwrap();
    edge_faults::configure("train.epoch_end", "2*off->err(crash)").unwrap();
    let err = EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(6), &opts).unwrap_err();
    assert!(matches!(err, TrainError::Interrupted(_)), "{err}");
    edge_faults::remove("fsio.write");
    edge_faults::remove("train.epoch_end");

    // The torn write never surfaced a file: the newest visible checkpoint
    // is the epoch-2 one, and it verifies.
    let cp = Checkpointer::new(&dir, 1, 3);
    let (_, state) = cp.latest().unwrap().expect("intact checkpoint remains");
    assert_eq!(state.next_epoch, 2);
    let resume_opts = TrainOptions { resume: true, ..opts };
    let (_, report) =
        EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(6), &resume_opts).unwrap();
    assert_eq!(report.start_epoch, 2);
    assert_eq!(report.epoch_losses.len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grad_clip_keeps_training_stable_and_deterministic() {
    let _s = edge_faults::FailScenario::setup();
    let tweets = corpus();
    let opts = TrainOptions { grad_clip: Some(0.5), ..TrainOptions::default() };
    let (m1, r1) = EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(3), &opts).unwrap();
    let (m2, r2) = EdgeModel::train(&tweets, venue_ner(), &bbox(), cfg(3), &opts).unwrap();
    assert_eq!(r1.epoch_losses, r2.epoch_losses);
    assert_params_identical(&m1, &m2, "clipped training determinism");
    assert!(r1.epoch_losses.iter().all(|l| l.is_finite()));
}
