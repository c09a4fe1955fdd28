//! Crash-safe training checkpoints.
//!
//! A checkpoint captures everything `EdgeModel::train` needs to continue a
//! run as if it had never stopped: the trained parameters, the Adam moment
//! estimates, the current learning rate, the per-epoch history, and the
//! index of the next epoch to run. Batch shuffling is a pure function of
//! `(config.seed, epoch)`, so no RNG state needs to be stored — a resumed
//! run replays the remaining epochs bit-for-bit identically to an
//! uninterrupted one.
//!
//! Files are named `ckpt-NNNNNN.edge` (NNNNNN = next epoch, zero-padded so
//! lexicographic order is chronological order), written through the same
//! checksummed crash-safe envelope as saved models ([`crate::persist`]),
//! and pruned to a retention window. Corrupt checkpoints are *skipped* at
//! resume time — the loader falls back to the newest one that verifies.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use edge_faults::failpoint;
use edge_tensor::optim::AdamState;
use edge_tensor::tape::ParamStore;

use crate::config::EdgeConfig;
use crate::persist::{read_artifact, write_artifact, PersistError, KIND_CHECKPOINT};

/// Checkpoint payload schema version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Everything needed to resume training mid-run.
#[derive(Serialize, Deserialize)]
pub struct CheckpointState {
    pub schema_version: u32,
    /// The configuration of the run that wrote this checkpoint; resume
    /// refuses to continue under a different configuration.
    pub config: EdgeConfig,
    /// First epoch the resumed run should execute.
    pub next_epoch: usize,
    /// Learning rate in effect (differs from `config.lr` after divergence
    /// rollbacks, which halve it).
    pub lr: f32,
    /// Cumulative divergence-guard rollbacks at checkpoint time.
    pub rollbacks: u64,
    /// All trained parameters.
    pub params: ParamStore,
    /// Adam first/second-moment estimates and step count.
    pub adam: AdamState,
    /// Per-epoch mean NLL so far.
    pub epoch_losses: Vec<f64>,
    /// Per-epoch wall-clock so far (same indexing as `epoch_losses`).
    pub epoch_wall_secs: Vec<f64>,
}

impl CheckpointState {
    pub(crate) fn validate(&self) -> Result<(), PersistError> {
        if self.schema_version != CHECKPOINT_VERSION {
            return Err(PersistError::Corrupt(format!(
                "checkpoint schema version {} (expected {CHECKPOINT_VERSION})",
                self.schema_version
            )));
        }
        self.config
            .check()
            .map_err(|msg| PersistError::Corrupt(format!("invalid config: {msg}")))?;
        if self.next_epoch == 0 || self.next_epoch > self.config.epochs {
            return Err(PersistError::Corrupt(format!(
                "next epoch {} outside 1..={}",
                self.next_epoch, self.config.epochs
            )));
        }
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(PersistError::Corrupt(format!("non-positive learning rate {}", self.lr)));
        }
        if self.params.is_empty() {
            return Err(PersistError::Corrupt("checkpoint stores no parameters".to_string()));
        }
        if self.epoch_losses.len() != self.epoch_wall_secs.len() {
            return Err(PersistError::Corrupt(format!(
                "{} losses vs {} wall times",
                self.epoch_losses.len(),
                self.epoch_wall_secs.len()
            )));
        }
        if self.adam.slots.iter().any(|s| s.id >= self.params.len()) {
            return Err(PersistError::Corrupt("Adam slot id out of range".to_string()));
        }
        Ok(())
    }
}

/// Loads and fully verifies one checkpoint file.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<CheckpointState, PersistError> {
    let payload = read_artifact(path, KIND_CHECKPOINT)?;
    let state: CheckpointState = serde_json::from_str(&payload)?;
    state.validate()?;
    Ok(state)
}

/// Writes checkpoints into a directory on a fixed epoch cadence and prunes
/// old ones.
pub struct Checkpointer {
    dir: PathBuf,
    every: usize,
    keep: usize,
}

impl Checkpointer {
    /// Checkpoints into `dir` after every `every`-th epoch (0 is treated as
    /// 1), keeping the newest `keep` files (0 is treated as 1).
    pub fn new(dir: impl Into<PathBuf>, every: usize, keep: usize) -> Self {
        Self { dir: dir.into(), every: every.max(1), keep: keep.max(1) }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a checkpoint is due after `finished_epoch` completed.
    pub fn due_after(&self, finished_epoch: usize) -> bool {
        (finished_epoch + 1) % self.every == 0
    }

    fn path_for(&self, next_epoch: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{next_epoch:06}.edge"))
    }

    /// All checkpoint files in the directory, oldest first. Files that
    /// merely *look* like checkpoints are included — verification happens
    /// at load time.
    pub fn list(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".edge"))
            })
            .collect();
        files.sort();
        files
    }

    /// Writes `state` crash-safely and prunes beyond the retention window.
    ///
    /// Failpoint: `checkpoint.save` (plus the `persist.save` / `fsio.*`
    /// points underneath).
    pub fn write(&self, state: &CheckpointState) -> Result<PathBuf, PersistError> {
        failpoint!("checkpoint.save");
        let path = self.path_for(state.next_epoch);
        let json = serde_json::to_string(state)?;
        write_artifact(&path, KIND_CHECKPOINT, &json)?;
        edge_obs::counter!("checkpoint.writes").inc(1);
        self.prune();
        Ok(path)
    }

    /// Deletes all but the newest `keep` checkpoints (best-effort: pruning
    /// failures never fail training).
    fn prune(&self) {
        let files = self.list();
        if files.len() > self.keep {
            for old in &files[..files.len() - self.keep] {
                let _ = std::fs::remove_file(old);
            }
        }
    }

    /// The newest checkpoint that verifies. Corrupt or unreadable files are
    /// skipped (counted under `checkpoint.corrupt_skipped`) and the next
    /// older one is tried; `Ok(None)` when nothing usable exists.
    pub fn latest(&self) -> Result<Option<(PathBuf, CheckpointState)>, PersistError> {
        for path in self.list().into_iter().rev() {
            match load_checkpoint(&path) {
                Ok(state) => return Ok(Some((path, state))),
                Err(e) => {
                    edge_obs::counter!("checkpoint.corrupt_skipped").inc(1);
                    edge_obs::progress!(
                        "[checkpoint] skipping unusable checkpoint {}: {e}",
                        path.display()
                    );
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_tensor::Matrix;

    fn tiny_state(next_epoch: usize) -> CheckpointState {
        let mut params = ParamStore::new();
        params.add("w", Matrix::full(2, 2, next_epoch as f32));
        CheckpointState {
            schema_version: CHECKPOINT_VERSION,
            config: EdgeConfig::smoke(),
            next_epoch,
            lr: 0.01,
            rollbacks: 0,
            params,
            adam: AdamState { t: 3, slots: vec![] },
            epoch_losses: vec![2.0; next_epoch],
            epoch_wall_secs: vec![0.1; next_epoch],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edge_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_and_retention() {
        let _fp = edge_faults::FailScenario::setup();
        let dir = tmp_dir("rt");
        let cp = Checkpointer::new(&dir, 2, 2);
        assert!(!cp.due_after(0) && cp.due_after(1) && !cp.due_after(2) && cp.due_after(3));
        for e in [2, 4, 6, 8] {
            cp.write(&tiny_state(e)).unwrap();
        }
        // Retention keeps only the last two.
        let names: Vec<String> = cp
            .list()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["ckpt-000006.edge", "ckpt-000008.edge"]);
        let (path, state) = cp.latest().unwrap().expect("has checkpoints");
        assert!(path.ends_with("ckpt-000008.edge"));
        assert_eq!(state.next_epoch, 8);
        assert_eq!(state.params.get(edge_tensor::tape::ParamId(0)).data()[0], 8.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_skips_corrupt_and_falls_back() {
        let _fp = edge_faults::FailScenario::setup();
        let dir = tmp_dir("fallback");
        let cp = Checkpointer::new(&dir, 1, 10);
        cp.write(&tiny_state(2)).unwrap();
        let newest = cp.write(&tiny_state(4)).unwrap();
        // Flip one payload bit in the newest checkpoint.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        assert!(matches!(load_checkpoint(&newest), Err(PersistError::Corrupt(_))));
        let (_, state) = cp.latest().unwrap().expect("older checkpoint survives");
        assert_eq!(state.next_epoch, 2, "must fall back to the older good checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_dir_is_not_an_error() {
        let dir = tmp_dir("empty");
        let cp = Checkpointer::new(dir.join("never-created"), 1, 1);
        assert!(cp.list().is_empty());
        assert!(cp.latest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_inconsistent_state() {
        let mut s = tiny_state(2);
        s.schema_version = 9;
        assert!(matches!(s.validate(), Err(PersistError::Corrupt(_))));
        let mut s = tiny_state(2);
        s.lr = f32::NAN;
        assert!(matches!(s.validate(), Err(PersistError::Corrupt(_))));
        let mut s = tiny_state(2);
        s.next_epoch = 10_000;
        assert!(matches!(s.validate(), Err(PersistError::Corrupt(_))));
        let mut s = tiny_state(2);
        s.adam.slots.push(edge_tensor::optim::AdamSlot {
            id: 99,
            m: Matrix::zeros(1, 1),
            v: Matrix::zeros(1, 1),
        });
        assert!(matches!(s.validate(), Err(PersistError::Corrupt(_))));
        assert!(tiny_state(2).validate().is_ok());
    }
}
