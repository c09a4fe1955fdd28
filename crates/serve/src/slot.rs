//! The hot-reloadable model slot: an atomically swappable `Arc<EdgeModel>`
//! plus a generation counter that invalidates queued work and cached
//! responses from older models.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use edge_core::{inspect_artifact, ArtifactLoad, EdgeModel};

/// Holds the currently served model. Readers clone the `Arc` out from
/// under a plain `Mutex` — an uncontended lock is a few nanoseconds,
/// dwarfed by inference, and unlike a hand-rolled lock-free ArcSwap it
/// cannot leak or double-free under races. Swapping installs the new
/// model and bumps the generation; in-flight batches keep their old
/// `Arc` and finish on the model they started with.
pub struct ModelSlot {
    current: Mutex<Arc<EdgeModel>>,
    generation: AtomicU64,
}

impl ModelSlot {
    /// Wraps an already-loaded model as generation 1.
    pub fn new(model: EdgeModel) -> Self {
        Self { current: Mutex::new(Arc::new(model)), generation: AtomicU64::new(1) }
    }

    /// The current model and the generation it belongs to, taken under one
    /// lock so they cannot tear against a concurrent reload.
    pub fn get(&self) -> (Arc<EdgeModel>, u64) {
        let guard = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let model = Arc::clone(&guard);
        let generation = self.generation.load(Ordering::Acquire);
        (model, generation)
    }

    /// The current generation (monotonically increasing from 1).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Atomically replaces the served model from a saved artifact.
    ///
    /// Verification happens *before* the swap: the container (magic and
    /// per-section CRC64) is checked by [`inspect_artifact`] and the payload
    /// by the loader, which also refuses a legacy JSON envelope, so a torn,
    /// corrupt or legacy artifact leaves the old model serving untouched.
    /// Returns the new generation.
    pub fn reload_from(&self, path: &str) -> Result<u64, String> {
        edge_faults::check("serve.reload").map_err(|e| e.to_string())?;
        inspect_artifact(path).map_err(|e| format!("artifact rejected: {e}"))?;
        let model =
            EdgeModel::load_artifact(path).map_err(|e| format!("artifact rejected: {e}"))?;
        let mut guard = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Arc::new(model);
        // Release-store while still holding the lock: a reader that sees
        // the new generation is guaranteed to also see the new model.
        let generation = self.generation.load(Ordering::Acquire) + 1;
        self.generation.store(generation, Ordering::Release);
        Ok(generation)
    }
}
