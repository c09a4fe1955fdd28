//! The checksummed JSON envelope, plus the typed error and `fsck`
//! machinery shared with the mapped model layout.
//!
//! Models are written only in the zero-copy mapped layout of
//! [`crate::artifact`] (`EdgeModel::save_artifact`) and loaded through
//! [`crate::artifact::ModelArtifact`]. The envelope remains the format of
//! training checkpoints ([`crate::checkpoint`]): they are read-modify-write
//! state, not serve-time weights, so zero-copy buys nothing there. Models
//! saved in the envelope by older releases are read only by `edge-cli fsck`
//! ([`inspect_artifact`]) and `edge-cli fsck --upgrade`
//! ([`crate::artifact::upgrade_artifact`]), which rewrites them in the
//! mapped layout; [`crate::artifact::ModelArtifact::open`] refuses them with
//! [`PersistError::LegacyEnvelope`].
//!
//! Every envelope is written crash-safely — temp file, fsync, atomic
//! rename — and has two lines:
//!
//! ```text
//! {"magic":"EDGEART","envelope_version":1,"kind":"checkpoint","payload_bytes":N,"crc64":"…"}
//! { …payload JSON… }
//! ```
//!
//! The header carries the byte length and CRC-64/XZ of the payload, so the
//! reader distinguishes a truncated or bit-flipped file from a valid one and
//! returns [`PersistError::Corrupt`] instead of misreading it.

use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use edge_faults::{crc64, failpoint, fsio};
use edge_geo::GaussianMixture;
use edge_tensor::tape::{ParamId, ParamStore};
use edge_tensor::{CsrMatrix, Matrix};
use edge_text::EntityRecognizer;

use crate::config::EdgeConfig;
use crate::entity2vec::EntityIndex;
use crate::model::EdgeModel;

/// Errors from saving/loading a model.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Serialization/deserialization failure.
    Format(serde_json::Error),
    /// The document was readable but internally inconsistent: bad magic,
    /// checksum mismatch, truncation, or invalid cross-references.
    Corrupt(String),
    /// A model saved in the JSON envelope of older releases, which only
    /// `edge-cli fsck` and `edge-cli fsck --upgrade` read.
    LegacyEnvelope,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "artifact I/O error: {e}"),
            PersistError::Format(e) => write!(f, "artifact format error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            PersistError::LegacyEnvelope => write!(
                f,
                "legacy JSON-envelope model artifact: convert it to the mapped layout with \
                 `edge-cli fsck --upgrade <path>`"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
            PersistError::Corrupt(_) | PersistError::LegacyEnvelope => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// First bytes of every EDGE artifact.
pub const MAGIC: &str = "EDGEART";
/// Version of the envelope itself (header line + checksummed payload line).
pub const ENVELOPE_VERSION: u32 = 1;
/// `kind` tag for models (legacy envelopes, and what `fsck` reports for
/// mapped artifacts).
pub const KIND_MODEL: &str = "model";
/// `kind` tag for training checkpoints.
pub const KIND_CHECKPOINT: &str = "checkpoint";

/// The first line of every artifact file.
#[derive(Serialize, Deserialize)]
struct ArtifactHeader {
    magic: String,
    envelope_version: u32,
    kind: String,
    payload_bytes: usize,
    crc64: String,
}

fn crc_hex(payload: &[u8]) -> String {
    format!("{:016x}", crc64::checksum(payload))
}

/// The bytes every envelope starts with (its header's first field).
const ENVELOPE_PREFIX: &[u8] = b"{\"magic\":\"EDGEART\"";

/// Whether the file at `path` starts like an envelope (a legacy model or a
/// checkpoint) rather than a mapped artifact. Reads only the prefix; no
/// verification.
pub(crate) fn is_envelope_file(path: &Path) -> Result<bool, PersistError> {
    use std::io::Read;
    let mut head = Vec::with_capacity(ENVELOPE_PREFIX.len());
    std::fs::File::open(path)?.take(ENVELOPE_PREFIX.len() as u64).read_to_end(&mut head)?;
    Ok(head == ENVELOPE_PREFIX)
}

/// Writes `payload` (a JSON document) to `path` under a checksummed envelope,
/// via temp-file + fsync + atomic rename. A crash at any point leaves either
/// the previous artifact or the complete new one — never a hybrid.
///
/// Failpoint: `persist.save` (fails before anything touches the disk); the
/// underlying `fsio.*` failpoints exercise the write/fsync/rename steps.
pub(crate) fn write_artifact(
    path: impl AsRef<Path>,
    kind: &str,
    payload: &str,
) -> Result<(), PersistError> {
    failpoint!("persist.save");
    let header = ArtifactHeader {
        magic: MAGIC.to_string(),
        envelope_version: ENVELOPE_VERSION,
        kind: kind.to_string(),
        payload_bytes: payload.len(),
        crc64: crc_hex(payload.as_bytes()),
    };
    let mut doc = serde_json::to_string(&header)?;
    doc.reserve(payload.len() + 1);
    doc.push('\n');
    doc.push_str(payload);
    fsio::atomic_write(path, doc.as_bytes())?;
    Ok(())
}

/// Reads and verifies the envelope at `path`, returning the header and the
/// checksum-verified payload. Any damage — missing header line, bad magic,
/// length mismatch, CRC mismatch — is a typed error, never a panic.
fn read_envelope(path: impl AsRef<Path>) -> Result<(ArtifactHeader, String), PersistError> {
    let raw = std::fs::read_to_string(path)?;
    let (header_line, payload) = raw
        .split_once('\n')
        .ok_or_else(|| PersistError::Corrupt("missing envelope header line".to_string()))?;
    let header: ArtifactHeader = serde_json::from_str(header_line)?;
    if header.magic != MAGIC {
        return Err(PersistError::Corrupt(format!(
            "bad magic {:?} (not an EDGE artifact)",
            header.magic
        )));
    }
    if header.envelope_version != ENVELOPE_VERSION {
        return Err(PersistError::Corrupt(format!(
            "envelope version {} (expected {ENVELOPE_VERSION})",
            header.envelope_version
        )));
    }
    if payload.len() != header.payload_bytes {
        return Err(PersistError::Corrupt(format!(
            "payload is {} bytes, header says {} (truncated or padded file)",
            payload.len(),
            header.payload_bytes
        )));
    }
    let actual = crc_hex(payload.as_bytes());
    if actual != header.crc64 {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch: computed {actual}, header says {}",
            header.crc64
        )));
    }
    Ok((header, payload.to_string()))
}

/// Like [`read_envelope`] but additionally checks the artifact `kind`.
pub(crate) fn read_artifact(
    path: impl AsRef<Path>,
    expected_kind: &str,
) -> Result<String, PersistError> {
    let (header, payload) = read_envelope(path)?;
    if header.kind != expected_kind {
        return Err(PersistError::Corrupt(format!(
            "artifact is a {:?} (expected {expected_kind:?})",
            header.kind
        )));
    }
    Ok(payload)
}

/// What `edge-cli fsck` reports for a healthy artifact.
#[derive(Debug)]
pub struct ArtifactInfo {
    /// `"model"` or `"checkpoint"`.
    pub kind: String,
    /// Envelope version (legacy) or mapped-layout version.
    pub envelope_version: u32,
    /// Payload size in bytes (whole file for mapped artifacts).
    pub payload_bytes: usize,
    /// Payload CRC-64/XZ (hex) for legacy envelopes; the section-table
    /// CRC for mapped artifacts. Verified either way.
    pub crc64: String,
    /// Payload schema version.
    pub payload_version: u32,
    /// One-line human summary of the payload contents.
    pub detail: String,
    /// Quantization mode of a mapped model (`None` for legacy artifacts).
    pub quant: Option<String>,
    /// Verified section table of a mapped artifact (empty for legacy).
    pub sections: Vec<crate::artifact::SectionInfo>,
}

/// Fully verifies the artifact at `path`: envelope + checksum + payload
/// parse + internal consistency. This is the engine behind `edge-cli fsck`.
/// Routes on the first bytes: envelopes get the checks below, everything
/// else the section-table verification in [`crate::artifact`].
pub fn inspect_artifact(path: impl AsRef<Path>) -> Result<ArtifactInfo, PersistError> {
    if !is_envelope_file(path.as_ref())? {
        return crate::artifact::inspect_mapped(path.as_ref());
    }
    let (header, payload) = read_envelope(&path)?;
    let (payload_version, detail) = match header.kind.as_str() {
        KIND_MODEL => {
            let doc: SavedModel = serde_json::from_str(&payload)?;
            doc.validate()?;
            let detail = format!(
                "model: {} entities, {} parameter matrices, {} GCN layers, prior {}",
                doc.index.len(),
                doc.params.len(),
                doc.w_gcn.len(),
                if doc.prior.is_some() { "present" } else { "absent" }
            );
            (doc.format_version, detail)
        }
        KIND_CHECKPOINT => {
            let doc: crate::checkpoint::CheckpointState = serde_json::from_str(&payload)?;
            doc.validate()?;
            let detail = format!(
                "checkpoint: next epoch {}, lr {:.6}, {} parameter matrices, {} rollbacks",
                doc.next_epoch,
                doc.lr,
                doc.params.len(),
                doc.rollbacks
            );
            (doc.schema_version, detail)
        }
        other => {
            return Err(PersistError::Corrupt(format!("unknown artifact kind {other:?}")));
        }
    };
    Ok(ArtifactInfo {
        kind: header.kind,
        envelope_version: header.envelope_version,
        payload_bytes: header.payload_bytes,
        crc64: header.crc64,
        payload_version,
        detail,
        quant: None,
        sections: Vec::new(),
    })
}

/// The legacy envelope's model payload. Version-tagged so format changes
/// are detected instead of misread.
#[derive(Deserialize)]
pub(crate) struct SavedModel {
    pub(crate) format_version: u32,
    pub(crate) config: EdgeConfig,
    pub(crate) ner: EntityRecognizer,
    pub(crate) index: EntityIndex,
    pub(crate) adjacency: CsrMatrix,
    pub(crate) features: Matrix,
    pub(crate) params: ParamStore,
    pub(crate) w_gcn: Vec<ParamId>,
    pub(crate) q1: ParamId,
    pub(crate) b1: ParamId,
    pub(crate) q2: ParamId,
    pub(crate) b2: ParamId,
    /// Training-split location prior, used (opt-in) as a fallback for
    /// zero-entity tweets. `None` on models saved before it existed.
    pub(crate) prior: Option<GaussianMixture>,
}

/// Payload schema version. v2 added the envelope and the optional prior.
pub(crate) const FORMAT_VERSION: u32 = 2;

impl SavedModel {
    pub(crate) fn validate(&self) -> Result<(), PersistError> {
        if self.format_version != FORMAT_VERSION {
            return Err(PersistError::Corrupt(format!(
                "format version {} (expected {FORMAT_VERSION})",
                self.format_version
            )));
        }
        self.config
            .check()
            .map_err(|msg| PersistError::Corrupt(format!("invalid config: {msg}")))?;
        let n = self.index.len();
        if self.adjacency.rows() != n || self.adjacency.cols() != n {
            return Err(PersistError::Corrupt(format!(
                "adjacency is {}x{} but the index has {n} entities",
                self.adjacency.rows(),
                self.adjacency.cols()
            )));
        }
        if self.features.rows() != n || self.features.cols() != self.config.embed_dim {
            return Err(PersistError::Corrupt(format!(
                "feature matrix is {:?}, expected {n}x{}",
                self.features.shape(),
                self.config.embed_dim
            )));
        }
        let max_param = self
            .w_gcn
            .iter()
            .chain([&self.q1, &self.b1, &self.q2, &self.b2])
            .map(|p| p.0)
            .max()
            .unwrap_or(0);
        if max_param >= self.params.len() {
            return Err(PersistError::Corrupt(format!(
                "parameter id {max_param} out of range ({} stored)",
                self.params.len()
            )));
        }
        if self.w_gcn.len() != self.config.gcn_layers {
            return Err(PersistError::Corrupt(format!(
                "{} GCN weight matrices for {} configured layers",
                self.w_gcn.len(),
                self.config.gcn_layers
            )));
        }
        Ok(())
    }
}

/// Reads, verifies and rebuilds the model in a legacy envelope — the input
/// side of `fsck --upgrade`. The diffused-embedding cache is recomputed, so
/// the result predicts bit-identically to the model that was saved.
pub(crate) fn read_legacy_model(path: impl AsRef<Path>) -> Result<EdgeModel, PersistError> {
    let doc: SavedModel = serde_json::from_str(&read_artifact(path, KIND_MODEL)?)?;
    doc.validate()?;
    Ok(EdgeModel::from_parts(
        doc.config,
        doc.ner,
        doc.index,
        Arc::new(doc.adjacency),
        doc.features,
        doc.params,
        doc.w_gcn,
        doc.q1,
        doc.b1,
        doc.q2,
        doc.b2,
        doc.prior,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::artifact::{ModelArtifact, QuantMode};
    use crate::predict::{PredictOptions, PredictRequest, Predictor};
    use edge_data::{nyma, PresetSize};

    /// A model the legacy writer saved: `edge-cli generate --preset nyma
    /// --size smoke --seed 11`, then `train --profile smoke --epochs 2` in
    /// the envelope layout.
    pub(crate) const FIXTURE: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/legacy_v2_smoke.edge");

    fn fixture_doc() -> SavedModel {
        serde_json::from_str(&read_artifact(FIXTURE, KIND_MODEL).unwrap()).unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("edge_persist_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let _fp = edge_faults::FailScenario::setup();
        // A legacy-loaded model re-saved in the mapped layout and opened
        // again predicts bit-identically.
        let legacy = read_legacy_model(FIXTURE).expect("legacy read");
        let dir = tmp_dir("roundtrip");
        let path = dir.join("model.edge");
        legacy.save_artifact(&path, QuantMode::None).expect("save");
        let loaded = ModelArtifact::open(&path).and_then(|a| a.load_model()).expect("load");

        let d = nyma(PresetSize::Smoke, 11);
        let (_, test) = d.paper_split();
        let mut compared = 0;
        for t in test.iter().take(60) {
            let req = PredictRequest::text(&t.text);
            let opts = PredictOptions::default();
            match (legacy.locate(&req, &opts), loaded.locate(&req, &opts)) {
                (Ok(a), Ok(b)) => {
                    let (a, b) = (a.prediction, b.prediction);
                    assert_eq!(a.point, b.point, "points differ for: {}", t.text);
                    assert_eq!(a.attention, b.attention);
                    assert_eq!(a.mixture.weights(), b.mixture.weights());
                    compared += 1;
                }
                (Err(_), Err(_)) => {}
                _ => panic!("coverage differs after reload"),
            }
        }
        assert!(compared > 20, "compared only {compared}");

        // fsck reads the legacy envelope and reports it as a v2 model.
        let info = inspect_artifact(FIXTURE).expect("fsck");
        assert_eq!(info.kind, KIND_MODEL);
        assert_eq!(info.payload_version, FORMAT_VERSION);
        assert!(info.detail.contains("entities"), "{}", info.detail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_wrong_version() {
        let mut doc = fixture_doc();
        doc.validate().expect("the fixture is consistent");
        doc.format_version = 999;
        assert!(matches!(doc.validate(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn load_rejects_inconsistent_shapes() {
        let mut doc = fixture_doc();
        doc.features = Matrix::zeros(3, 3);
        assert!(matches!(doc.validate(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn load_rejects_garbage_file() {
        let dir = tmp_dir("garbage");
        // No newline at all: the envelope itself is missing → Corrupt.
        let path = dir.join("garbage.edge");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(read_legacy_model(&path), Err(PersistError::Corrupt(_))));
        // A header line that is not valid JSON → Format.
        std::fs::write(&path, "{not json\n{}").unwrap();
        assert!(matches!(read_legacy_model(&path), Err(PersistError::Format(_))));
        // Valid JSON header with the wrong magic → Corrupt.
        std::fs::write(
            &path,
            "{\"magic\":\"NOPE\",\"envelope_version\":1,\"kind\":\"model\",\"payload_bytes\":2,\"crc64\":\"0\"}\n{}",
        )
        .unwrap();
        assert!(matches!(read_legacy_model(&path), Err(PersistError::Corrupt(_))));
        // Missing file → Io.
        assert!(matches!(read_legacy_model(dir.join("missing.edge")), Err(PersistError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
    #[test]
    fn envelope_detects_bit_flips_and_truncation() {
        let _fp = edge_faults::FailScenario::setup();
        let dir = tmp_dir("flips");
        let path = dir.join("tiny.edge");
        write_artifact(&path, KIND_MODEL, "{\"x\":12345}").unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one bit in the payload: CRC catches it (the payload here is
        // not a valid SavedModel anyway, but the envelope must fail FIRST —
        // corrupt data should never even reach the deserializer).
        let mut flipped = good.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(read_artifact(&path, KIND_MODEL), Err(PersistError::Corrupt(_))));

        // Truncate: length check catches it.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(read_artifact(&path, KIND_MODEL), Err(PersistError::Corrupt(_))));

        // Intact file round-trips.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(read_artifact(&path, KIND_MODEL).unwrap(), "{\"x\":12345}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_artifact_rejects_wrong_kind() {
        let _fp = edge_faults::FailScenario::setup();
        let dir = tmp_dir("kind");
        let path = dir.join("thing.edge");
        write_artifact(&path, KIND_CHECKPOINT, "{}").unwrap();
        match read_artifact(&path, KIND_MODEL) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("checkpoint"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}", other = other.err()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_leaves_previous_artifact_intact() {
        let _s = edge_faults::FailScenario::setup();
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.edge");
        write_artifact(&path, KIND_MODEL, "{\"v\":1}").unwrap();

        for (fp, spec) in
            [("persist.save", "err"), ("fsio.write", "partial(10)"), ("fsio.rename", "err")]
        {
            edge_faults::configure(fp, spec).unwrap();
            let err = write_artifact(&path, KIND_MODEL, "{\"v\":2}").unwrap_err();
            assert!(matches!(err, PersistError::Io(_)), "{fp}: {err}");
            edge_faults::remove(fp);
            // The original artifact still verifies and carries the old payload.
            assert_eq!(read_artifact(&path, KIND_MODEL).unwrap(), "{\"v\":1}", "after {fp}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_error_display_and_source() {
        let e = PersistError::Corrupt("boom".into());
        assert!(e.to_string().contains("boom"));
        let io = PersistError::from(std::io::Error::other("disk"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
