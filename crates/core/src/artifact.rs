//! Zero-copy, memory-mappable model artifacts — the redesigned persistence
//! API behind [`ModelArtifact`].
//!
//! The one on-disk model layout: a page-aligned, section-table binary file
//! the loader `mmap`s and borrows tensor slices from, so a serve replica's
//! cold start does not scale with model size:
//!
//! ```text
//! ┌─────────────────────────────────────────────────────────────────┐
//! │ header (64 B): "EDGEMAP1" · version u32 · sections u32 ·        │
//! │                table CRC-64 u64 · reserved                      │
//! ├─────────────────────────────────────────────────────────────────┤
//! │ section table: per section tag[8] · dtype u32 · offset u64 ·    │
//! │                len u64 · rows u64 · cols u64 · CRC-64 u64       │
//! ├──────────────── 4096-aligned ───────────────────────────────────┤
//! │ "meta"     json  config · ner · index · param names/shapes ·    │
//! │                  head ids · prior · quant mode                  │
//! │ "params"   f32   attention + head + GCN weights (concatenated)  │
//! │ "smoothed" f32 | f16 | i8   precomputed diffused embeddings     │
//! │ "scales"   f32   per-row absmax scales (int8 artifacts only)    │
//! │ "features" f32   entity2vec X (lazily materialized)             │
//! │ "adj"      json  normalized adjacency (lazily materialized)     │
//! └─────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every multi-byte field is little-endian; every section offset is a page
//! multiple, so `&[u8] → &[f32]` reborrows are always aligned. Each section
//! carries its own CRC-64/XZ, verified at open, so a truncated or
//! bit-flipped file is a typed error, never a misread.
//!
//! Three properties carry the design:
//!
//! * **Cold start.** The artifact stores the *diffused* embedding table, so
//!   opening skips both the big JSON parse and the `gcn_infer` recompute.
//!   [`ModelArtifact::load_model`] touches only the small `meta` section and
//!   the head parameters; `features`/`adj` materialize lazily (needed only
//!   to re-save or re-train). N replicas mapping one artifact share one
//!   physical copy of the weights through the page cache.
//! * **Bit-identity.** An f32 artifact stores exactly the bytes
//!   `refresh_smoothed` produced at save time, and the inference gather
//!   copies rows from the mapping, so predictions are bit-for-bit identical
//!   to the in-memory model's.
//! * **Quantization.** `--quantize f16|int8` stores the smoothed table as
//!   IEEE binary16 or per-row-absmax int8 ([`edge_tensor::quant`]), with
//!   dequant-on-the-fly in the gather path (AVX2/F16C + scalar, both
//!   bit-identical, `EDGE_NO_SIMD`-respecting).
//!
//! Models saved in the JSON envelope of older releases are refused by
//! [`ModelArtifact::open`] with [`PersistError::LegacyEnvelope`]; `edge-cli
//! fsck --upgrade` ([`upgrade_artifact`]) rewrites them in this layout
//! atomically.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use edge_faults::mmap::Mmap;
use edge_faults::{crc64, failpoint, fsio};
use edge_geo::GaussianMixture;
use edge_tensor::quant;
use edge_tensor::tape::{ParamId, ParamStore};
use edge_tensor::{CsrMatrix, Matrix};
use edge_text::EntityRecognizer;

use crate::config::EdgeConfig;
use crate::entity2vec::EntityIndex;
use crate::model::EdgeModel;
use crate::persist::{ArtifactInfo, PersistError};
use crate::predict::Predictor;

/// First 8 bytes of every mapped artifact.
pub const MAP_MAGIC: &[u8; 8] = b"EDGEMAP1";
/// Version of the mapped container layout.
pub const MAP_VERSION: u32 = 1;
/// Model format version carried in the `meta` section (v3 = mmap layout;
/// v2 was the JSON envelope payload).
pub const MAP_FORMAT_VERSION: u32 = 3;

const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 56;
const PAGE: usize = 4096;

const TAG_META: [u8; 8] = *b"meta\0\0\0\0";
const TAG_PARAMS: [u8; 8] = *b"params\0\0";
const TAG_SMOOTHED: [u8; 8] = *b"smoothed";
const TAG_SCALES: [u8; 8] = *b"scales\0\0";
const TAG_FEATURES: [u8; 8] = *b"features";
const TAG_ADJ: [u8; 8] = *b"adj\0\0\0\0\0";

const DT_JSON: u32 = 0;
const DT_F32: u32 = 1;
const DT_F16: u32 = 2;
const DT_I8: u32 = 3;

fn dtype_name(dtype: u32) -> &'static str {
    match dtype {
        DT_JSON => "json",
        DT_F32 => "f32",
        DT_F16 => "f16",
        DT_I8 => "i8",
        _ => "unknown",
    }
}

fn tag_name(tag: &[u8; 8]) -> String {
    let end = tag.iter().position(|&b| b == 0).unwrap_or(8);
    String::from_utf8_lossy(&tag[..end]).into_owned()
}

/// How the smoothed-embedding table is encoded in an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Full-precision f32 — bit-identical to the in-memory model.
    #[default]
    None,
    /// IEEE binary16 (half the bytes; decode is exact, encode rounds).
    F16,
    /// Per-row absmax int8 (quarter the bytes; bounded affine error).
    Int8,
}

impl QuantMode {
    /// The CLI / meta-section spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            QuantMode::None => "none",
            QuantMode::F16 => "f16",
            QuantMode::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for QuantMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "none" | "f32" => Ok(QuantMode::None),
            "f16" => Ok(QuantMode::F16),
            "int8" | "i8" => Ok(QuantMode::Int8),
            other => Err(format!("unknown quantization mode {other:?} (none|f16|int8)")),
        }
    }
}

/// One verified row of the section table (what `fsck` prints).
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section tag (`meta`, `params`, `smoothed`, …).
    pub tag: String,
    /// Element type: `json`, `f32`, `f16`, or `i8`.
    pub dtype: String,
    /// Byte offset in the file (always a 4096 multiple).
    pub offset: u64,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Logical row count (0 for JSON sections).
    pub rows: u64,
    /// Logical column count (0 for JSON sections).
    pub cols: u64,
    /// Verified CRC-64/XZ of the payload, in hex.
    pub crc64: String,
}

/// The non-tensor model state, stored as one small JSON section so opening
/// an artifact parses kilobytes, not the whole model.
#[derive(Serialize, Deserialize)]
struct MapMeta {
    format_version: u32,
    quant: String,
    config: EdgeConfig,
    ner: EntityRecognizer,
    index: EntityIndex,
    param_names: Vec<String>,
    param_shapes: Vec<(usize, usize)>,
    w_gcn: Vec<ParamId>,
    q1: ParamId,
    b1: ParamId,
    q2: ParamId,
    b2: ParamId,
    prior: Option<GaussianMixture>,
}

struct Section {
    tag: [u8; 8],
    dtype: u32,
    offset: usize,
    len: usize,
    rows: usize,
    cols: usize,
    crc64: u64,
}

/// An opened, fully CRC-verified mapped artifact. Shared (via `Arc`) by
/// every lazily-materialized view borrowed from it.
pub(crate) struct MappedArtifact {
    map: Mmap,
    sections: Vec<Section>,
    meta: MapMeta,
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// JSON sections are stored as raw bytes in the map; they must be UTF-8.
fn json_from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, PersistError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| corrupt(format!("JSON section is not UTF-8: {e}")))?;
    Ok(serde_json::from_str(text)?)
}

fn json_to_vec<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, PersistError> {
    Ok(serde_json::to_string(value)?.into_bytes())
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Decodes a little-endian f32 section into owned floats (exact; used for
/// the small eagerly-copied sections and the lazy `features` materialize).
fn le_f32_vec(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Reborrows a little-endian f32 section zero-copy. Alignment holds by
/// construction: the mapping base is page- (or 8-byte-) aligned and every
/// section offset is a page multiple.
#[cfg(target_endian = "little")]
fn f32_view(bytes: &[u8]) -> &[f32] {
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0, "section lost its alignment");
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: any bit pattern is a valid f32; alignment checked above.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f32, bytes.len() / 4) }
}

#[cfg(target_endian = "little")]
fn u16_view(bytes: &[u8]) -> &[u16] {
    debug_assert_eq!(bytes.as_ptr() as usize % 2, 0);
    debug_assert_eq!(bytes.len() % 2, 0);
    // SAFETY: any bit pattern is a valid u16; alignment checked above.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u16, bytes.len() / 2) }
}

fn i8_view(bytes: &[u8]) -> &[i8] {
    // SAFETY: i8 and u8 have identical layout and no invalid patterns.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const i8, bytes.len()) }
}

impl MappedArtifact {
    /// Maps and verifies `path`: magic, version, table CRC, per-section
    /// bounds and CRCs, and the `meta` section's internal consistency.
    /// Damage of any kind is a typed [`PersistError`], never a panic.
    fn open(path: &Path) -> Result<MappedArtifact, PersistError> {
        let map = Mmap::open(path)?;
        let bytes = map.as_slice();
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!("file is {} bytes, smaller than the header", bytes.len())));
        }
        if &bytes[..8] != MAP_MAGIC {
            return Err(corrupt("bad magic (not an EDGE mapped artifact)"));
        }
        let version = read_u32(bytes, 8);
        if version != MAP_VERSION {
            return Err(corrupt(format!("mapped version {version} (expected {MAP_VERSION})")));
        }
        let n_sections = read_u32(bytes, 12) as usize;
        let table_crc = read_u64(bytes, 16);
        let table_len = n_sections
            .checked_mul(ENTRY_LEN)
            .ok_or_else(|| corrupt("section count overflows the table"))?;
        let table_end = HEADER_LEN
            .checked_add(table_len)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| corrupt("section table extends past end of file (truncated)"))?;
        let table = &bytes[HEADER_LEN..table_end];
        let actual = crc64::checksum(table);
        if actual != table_crc {
            return Err(corrupt(format!(
                "section table checksum mismatch: computed {actual:016x}, header says {table_crc:016x}"
            )));
        }
        let mut sections = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let e = &table[i * ENTRY_LEN..(i + 1) * ENTRY_LEN];
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&e[..8]);
            let sec = Section {
                tag,
                dtype: read_u32(e, 8),
                offset: read_u64(e, 16) as usize,
                len: read_u64(e, 24) as usize,
                rows: read_u64(e, 32) as usize,
                cols: read_u64(e, 40) as usize,
                crc64: read_u64(e, 48),
            };
            if !sec.offset.is_multiple_of(PAGE) {
                return Err(corrupt(format!(
                    "section {:?} offset {} is not page-aligned",
                    tag_name(&sec.tag),
                    sec.offset
                )));
            }
            let end =
                sec.offset.checked_add(sec.len).filter(|&end| end <= bytes.len()).ok_or_else(
                    || {
                        corrupt(format!(
                            "section {:?} extends past end of file (truncated)",
                            tag_name(&sec.tag)
                        ))
                    },
                )?;
            let payload = &bytes[sec.offset..end];
            let actual = crc64::checksum(payload);
            if actual != sec.crc64 {
                return Err(corrupt(format!(
                    "section {:?} checksum mismatch: computed {actual:016x}, table says {:016x}",
                    tag_name(&sec.tag),
                    sec.crc64
                )));
            }
            sections.push(sec);
        }
        let meta_bytes = {
            let sec = sections
                .iter()
                .find(|s| s.tag == TAG_META)
                .ok_or_else(|| corrupt("artifact has no meta section"))?;
            &bytes[sec.offset..sec.offset + sec.len]
        };
        let meta: MapMeta = json_from_slice(meta_bytes)?;
        let artifact = MappedArtifact { map, sections, meta };
        artifact.validate()?;
        Ok(artifact)
    }

    /// The consistency checks legacy envelopes get from
    /// `SavedModel::validate`, adapted to the sectioned layout.
    fn validate(&self) -> Result<(), PersistError> {
        let meta = &self.meta;
        if meta.format_version != MAP_FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {} (expected {MAP_FORMAT_VERSION})",
                meta.format_version
            )));
        }
        meta.config.check().map_err(|msg| corrupt(format!("invalid config: {msg}")))?;
        let quant: QuantMode =
            meta.quant.parse().map_err(|e: String| corrupt(format!("meta quant: {e}")))?;
        if meta.param_names.len() != meta.param_shapes.len() {
            return Err(corrupt("param name/shape lists disagree"));
        }
        let max_param = meta
            .w_gcn
            .iter()
            .chain([&meta.q1, &meta.b1, &meta.q2, &meta.b2])
            .map(|p| p.0)
            .max()
            .unwrap_or(0);
        if max_param >= meta.param_shapes.len() {
            return Err(corrupt(format!(
                "parameter id {max_param} out of range ({} stored)",
                meta.param_shapes.len()
            )));
        }
        if meta.w_gcn.len() != meta.config.gcn_layers {
            return Err(corrupt(format!(
                "{} GCN weight matrices for {} configured layers",
                meta.w_gcn.len(),
                meta.config.gcn_layers
            )));
        }
        let n = meta.index.len();
        let h_dim =
            if meta.config.use_gcn { meta.config.hidden_dim } else { meta.config.embed_dim };
        let params = self.require(TAG_PARAMS, DT_F32)?;
        let total: usize = meta.param_shapes.iter().map(|&(r, c)| r * c).sum();
        if params.len != total * 4 {
            return Err(corrupt(format!(
                "params section is {} bytes, shapes sum to {}",
                params.len,
                total * 4
            )));
        }
        let smoothed_dtype = match quant {
            QuantMode::None => DT_F32,
            QuantMode::F16 => DT_F16,
            QuantMode::Int8 => DT_I8,
        };
        let smoothed = self.require(TAG_SMOOTHED, smoothed_dtype)?;
        if smoothed.rows != n || smoothed.cols != h_dim {
            return Err(corrupt(format!(
                "smoothed table is {}x{}, expected {n}x{h_dim}",
                smoothed.rows, smoothed.cols
            )));
        }
        let elem = match smoothed_dtype {
            DT_F32 => 4,
            DT_F16 => 2,
            _ => 1,
        };
        if smoothed.len != n * h_dim * elem {
            return Err(corrupt(format!(
                "smoothed section is {} bytes for a {n}x{h_dim} {} table",
                smoothed.len,
                dtype_name(smoothed_dtype)
            )));
        }
        if quant == QuantMode::Int8 {
            let scales = self.require(TAG_SCALES, DT_F32)?;
            if scales.len != n * 4 {
                return Err(corrupt(format!(
                    "scales section is {} bytes for {n} rows",
                    scales.len
                )));
            }
        }
        let feat = self.require(TAG_FEATURES, DT_F32)?;
        if feat.rows != n || feat.cols != meta.config.embed_dim {
            return Err(corrupt(format!(
                "feature matrix is {}x{}, expected {n}x{}",
                feat.rows, feat.cols, meta.config.embed_dim
            )));
        }
        if feat.len != feat.rows * feat.cols * 4 {
            return Err(corrupt("feature section length disagrees with its shape"));
        }
        self.require(TAG_ADJ, DT_JSON)?;
        Ok(())
    }

    fn require(&self, tag: [u8; 8], dtype: u32) -> Result<&Section, PersistError> {
        let sec = self
            .sections
            .iter()
            .find(|s| s.tag == tag)
            .ok_or_else(|| corrupt(format!("artifact has no {:?} section", tag_name(&tag))))?;
        if sec.dtype != dtype {
            return Err(corrupt(format!(
                "section {:?} is {}, expected {}",
                tag_name(&tag),
                dtype_name(sec.dtype),
                dtype_name(dtype)
            )));
        }
        Ok(sec)
    }

    fn bytes_of(&self, sec: &Section) -> &[u8] {
        &self.map.as_slice()[sec.offset..sec.offset + sec.len]
    }

    fn tagged_bytes(&self, tag: [u8; 8]) -> &[u8] {
        // Presence was proven by validate(); unwrap is unreachable.
        let sec = self.sections.iter().find(|s| s.tag == tag).expect("validated section");
        self.bytes_of(sec)
    }

    fn quant(&self) -> QuantMode {
        self.meta.quant.parse().expect("validated quant mode")
    }

    fn section_infos(&self) -> Vec<SectionInfo> {
        self.sections
            .iter()
            .map(|s| SectionInfo {
                tag: tag_name(&s.tag),
                dtype: dtype_name(s.dtype).to_string(),
                offset: s.offset as u64,
                bytes: s.len as u64,
                rows: s.rows as u64,
                cols: s.cols as u64,
                crc64: format!("{:016x}", s.crc64),
            })
            .collect()
    }
}

/// The diffused-embedding table an [`EdgeModel`] predicts from: either an
/// owned matrix (trained / legacy-loaded models) or a borrowed view of a
/// mapped artifact section, dequantized on the fly during the per-call row
/// gather in `infer` (where rows are copied into scratch anyway, so
/// dequantization rides the existing copy).
pub(crate) enum SmoothedStore {
    Owned(Matrix),
    MappedF32 { artifact: Arc<MappedArtifact> },
    MappedF16 { artifact: Arc<MappedArtifact> },
    MappedI8 { artifact: Arc<MappedArtifact>, scales: Vec<f32> },
}

impl SmoothedStore {
    fn shape(&self) -> (usize, usize) {
        match self {
            SmoothedStore::Owned(m) => m.shape(),
            SmoothedStore::MappedF32 { artifact }
            | SmoothedStore::MappedF16 { artifact }
            | SmoothedStore::MappedI8 { artifact, .. } => {
                let sec = artifact
                    .sections
                    .iter()
                    .find(|s| s.tag == TAG_SMOOTHED)
                    .expect("validated section");
                (sec.rows, sec.cols)
            }
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.shape().0
    }

    pub(crate) fn cols(&self) -> usize {
        self.shape().1
    }

    /// Gathers `indices` into the rows of `out` (`out` is
    /// `indices.len() × cols`), dequantizing on the fly for quantized
    /// stores. The f32 paths copy bytes verbatim, so mapped-f32 inference
    /// is bit-identical to owned inference.
    pub(crate) fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        let cols = self.cols();
        match self {
            SmoothedStore::Owned(m) => m.gather_rows_into(indices, out),
            SmoothedStore::MappedF32 { artifact } => {
                let table = f32_view(artifact.tagged_bytes(TAG_SMOOTHED));
                for (k, &i) in indices.iter().enumerate() {
                    out.row_mut(k).copy_from_slice(&table[i * cols..(i + 1) * cols]);
                }
            }
            SmoothedStore::MappedF16 { artifact } => {
                let table = u16_view(artifact.tagged_bytes(TAG_SMOOTHED));
                for (k, &i) in indices.iter().enumerate() {
                    quant::decode_f16_into(&table[i * cols..(i + 1) * cols], out.row_mut(k));
                }
            }
            SmoothedStore::MappedI8 { artifact, scales } => {
                let table = i8_view(artifact.tagged_bytes(TAG_SMOOTHED));
                for (k, &i) in indices.iter().enumerate() {
                    quant::dequant_i8_into(
                        &table[i * cols..(i + 1) * cols],
                        scales[i],
                        out.row_mut(k),
                    );
                }
            }
        }
    }

    /// One decoded row as owned floats (the `smoothed_embedding` accessor).
    pub(crate) fn row_to_vec(&self, idx: usize) -> Vec<f32> {
        let cols = self.cols();
        let mut out = vec![0f32; cols];
        match self {
            SmoothedStore::Owned(m) => out.copy_from_slice(m.row(idx)),
            SmoothedStore::MappedF32 { artifact } => {
                let table = f32_view(artifact.tagged_bytes(TAG_SMOOTHED));
                out.copy_from_slice(&table[idx * cols..(idx + 1) * cols]);
            }
            SmoothedStore::MappedF16 { artifact } => {
                let table = u16_view(artifact.tagged_bytes(TAG_SMOOTHED));
                quant::decode_f16_into(&table[idx * cols..(idx + 1) * cols], &mut out);
            }
            SmoothedStore::MappedI8 { artifact, scales } => {
                let table = i8_view(artifact.tagged_bytes(TAG_SMOOTHED));
                quant::dequant_i8_into(&table[idx * cols..(idx + 1) * cols], scales[idx], &mut out);
            }
        }
        out
    }

    /// The whole table, decoded to an owned f32 matrix (re-save paths).
    fn to_matrix(&self) -> Matrix {
        let (rows, cols) = self.shape();
        match self {
            SmoothedStore::Owned(m) => m.clone(),
            _ => {
                let mut out = Matrix::zeros(rows, cols);
                let indices: Vec<usize> = (0..rows).collect();
                self.gather_rows_into(&indices, &mut out);
                out
            }
        }
    }
}

/// The entity2vec feature matrix, materialized from its artifact section
/// on first touch (training and re-save need it; inference never does).
pub(crate) enum LazyFeatures {
    Ready(Arc<Matrix>),
    Mapped { artifact: Arc<MappedArtifact>, cell: OnceLock<Arc<Matrix>> },
}

impl LazyFeatures {
    /// Materialization is infallible: the section's shape and checksum
    /// were verified at open, and byte → f32 decoding is total.
    pub(crate) fn get(&self) -> &Arc<Matrix> {
        match self {
            LazyFeatures::Ready(m) => m,
            LazyFeatures::Mapped { artifact, cell } => cell.get_or_init(|| {
                let sec = artifact.require(TAG_FEATURES, DT_F32).expect("validated section");
                let data = le_f32_vec(artifact.bytes_of(sec));
                Arc::new(Matrix::from_vec(sec.rows, sec.cols, data))
            }),
        }
    }
}

/// The normalized adjacency operator, parsed from its artifact section on
/// first touch.
pub(crate) enum LazyAdjacency {
    Ready(Arc<CsrMatrix>),
    Mapped { artifact: Arc<MappedArtifact>, cell: OnceLock<Arc<CsrMatrix>> },
}

impl LazyAdjacency {
    /// Fallible materialization for the save paths: the section CRC was
    /// verified at open, but the JSON inside is parsed only here.
    pub(crate) fn try_get(&self) -> Result<&Arc<CsrMatrix>, PersistError> {
        match self {
            LazyAdjacency::Ready(m) => Ok(m),
            LazyAdjacency::Mapped { artifact, cell } => {
                if let Some(m) = cell.get() {
                    return Ok(m);
                }
                let parsed: CsrMatrix = json_from_slice(artifact.tagged_bytes(TAG_ADJ))?;
                Ok(cell.get_or_init(|| Arc::new(parsed)))
            }
        }
    }

    /// Infallible accessor for non-persistence callers. A CRC-valid
    /// artifact whose adjacency JSON fails to parse can only come from a
    /// writer bug; `fsck` parses it eagerly and reports it as corruption.
    pub(crate) fn get(&self) -> &Arc<CsrMatrix> {
        self.try_get().expect("artifact adjacency section unreadable despite verified checksum")
    }
}

/// A mapped model artifact opened and verified for loading.
pub struct ModelArtifact {
    path: PathBuf,
    artifact: Arc<MappedArtifact>,
}

impl ModelArtifact {
    /// Opens the artifact at `path`, verifying the section table and every
    /// section CRC. A legacy JSON envelope is refused with
    /// [`PersistError::LegacyEnvelope`] (`edge-cli fsck --upgrade` converts
    /// it).
    pub fn open(path: impl AsRef<Path>) -> Result<ModelArtifact, PersistError> {
        let path = path.as_ref();
        if crate::persist::is_envelope_file(path)? {
            return Err(PersistError::LegacyEnvelope);
        }
        let artifact = Arc::new(MappedArtifact::open(path)?);
        Ok(ModelArtifact { path: path.to_path_buf(), artifact })
    }

    /// The path this artifact was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How the inference weights are encoded.
    pub fn quant(&self) -> QuantMode {
        self.artifact.quant()
    }

    /// Loads the model. This parses only the small meta section and copies
    /// the head parameters — the embedding table stays borrowed from the
    /// mapping (dequantized per gather), and `features`/`adj` materialize
    /// lazily on first (re-)save or retrain.
    pub fn load_model(&self) -> Result<EdgeModel, PersistError> {
        load_mapped_model(&self.artifact)
    }
}

/// Open-then-load in one trait, so every call site — CLI, serve, bench,
/// baselines behind [`Predictor`] — shares one loading idiom regardless of
/// the concrete model type (the PR-5 `Predictor` migration pattern).
pub trait ArtifactLoad: Sized {
    /// Builds `Self` from an opened artifact.
    fn load_from_artifact(artifact: &ModelArtifact) -> Result<Self, PersistError>;

    /// Opens `path` and loads in one step.
    fn load_artifact(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        ModelArtifact::open(path).and_then(|a| Self::load_from_artifact(&a))
    }
}

impl ArtifactLoad for EdgeModel {
    fn load_from_artifact(artifact: &ModelArtifact) -> Result<Self, PersistError> {
        artifact.load_model()
    }
}

/// Type-erased loading for callers that serve any [`Predictor`].
impl ArtifactLoad for Box<dyn Predictor + Send + Sync> {
    fn load_from_artifact(artifact: &ModelArtifact) -> Result<Self, PersistError> {
        Ok(Box::new(artifact.load_model()?))
    }
}

fn load_mapped_model(artifact: &Arc<MappedArtifact>) -> Result<EdgeModel, PersistError> {
    let meta = &artifact.meta;
    // Head + GCN parameters: eagerly copied from the raw f32 section
    // (kilobytes; bit-exact, no JSON float round-trip).
    let bytes = artifact.tagged_bytes(TAG_PARAMS);
    let mut params = ParamStore::new();
    let mut at = 0usize;
    for (name, &(r, c)) in meta.param_names.iter().zip(&meta.param_shapes) {
        let len = r * c * 4;
        let data = le_f32_vec(&bytes[at..at + len]);
        params.add(name.clone(), Matrix::from_vec(r, c, data));
        at += len;
    }
    let smoothed = make_smoothed(artifact)?;
    let features = LazyFeatures::Mapped { artifact: Arc::clone(artifact), cell: OnceLock::new() };
    let adjacency = LazyAdjacency::Mapped { artifact: Arc::clone(artifact), cell: OnceLock::new() };
    Ok(EdgeModel::from_stores(
        meta.config.clone(),
        meta.ner.clone(),
        meta.index.clone(),
        adjacency,
        features,
        params,
        meta.w_gcn.clone(),
        meta.q1,
        meta.b1,
        meta.q2,
        meta.b2,
        smoothed,
        meta.prior.clone(),
    ))
}

#[cfg(target_endian = "little")]
fn make_smoothed(artifact: &Arc<MappedArtifact>) -> Result<SmoothedStore, PersistError> {
    Ok(match artifact.quant() {
        QuantMode::None => SmoothedStore::MappedF32 { artifact: Arc::clone(artifact) },
        QuantMode::F16 => SmoothedStore::MappedF16 { artifact: Arc::clone(artifact) },
        QuantMode::Int8 => SmoothedStore::MappedI8 {
            artifact: Arc::clone(artifact),
            scales: le_f32_vec(artifact.tagged_bytes(TAG_SCALES)),
        },
    })
}

/// Big-endian fallback: decode every table into owned memory (the mapped
/// layout is little-endian on disk).
#[cfg(target_endian = "big")]
fn make_smoothed(artifact: &Arc<MappedArtifact>) -> Result<SmoothedStore, PersistError> {
    let sec = artifact.require(
        TAG_SMOOTHED,
        match artifact.quant() {
            QuantMode::None => DT_F32,
            QuantMode::F16 => DT_F16,
            QuantMode::Int8 => DT_I8,
        },
    )?;
    let (rows, cols) = (sec.rows, sec.cols);
    let bytes = artifact.bytes_of(sec);
    let data = match artifact.quant() {
        QuantMode::None => le_f32_vec(bytes),
        QuantMode::F16 => bytes
            .chunks_exact(2)
            .map(|c| quant::f16_to_f32(u16::from_le_bytes([c[0], c[1]])))
            .collect(),
        QuantMode::Int8 => {
            let scales = le_f32_vec(artifact.tagged_bytes(TAG_SCALES));
            let codes = i8_view(bytes);
            let mut data = vec![0f32; rows * cols];
            for r in 0..rows {
                quant::dequant_i8_into(
                    &codes[r * cols..(r + 1) * cols],
                    scales[r],
                    &mut data[r * cols..(r + 1) * cols],
                );
            }
            data
        }
    };
    Ok(SmoothedStore::Owned(Matrix::from_vec(rows, cols, data)))
}

fn f32_le_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

struct SectionSpec {
    tag: [u8; 8],
    dtype: u32,
    rows: usize,
    cols: usize,
    bytes: Vec<u8>,
}

fn assemble(specs: &[SectionSpec]) -> Vec<u8> {
    let table_end = HEADER_LEN + specs.len() * ENTRY_LEN;
    let mut offsets = Vec::with_capacity(specs.len());
    let mut at = table_end.next_multiple_of(PAGE);
    for s in specs {
        offsets.push(at);
        at = (at + s.bytes.len()).next_multiple_of(PAGE);
    }
    let total = offsets.last().map_or(table_end, |&o| o + specs.last().unwrap().bytes.len());

    let mut table = Vec::with_capacity(specs.len() * ENTRY_LEN);
    for (s, &offset) in specs.iter().zip(&offsets) {
        table.extend_from_slice(&s.tag);
        table.extend_from_slice(&s.dtype.to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
        table.extend_from_slice(&(offset as u64).to_le_bytes());
        table.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
        table.extend_from_slice(&(s.rows as u64).to_le_bytes());
        table.extend_from_slice(&(s.cols as u64).to_le_bytes());
        table.extend_from_slice(&crc64::checksum(&s.bytes).to_le_bytes());
    }

    let mut out = vec![0u8; total];
    out[..8].copy_from_slice(MAP_MAGIC);
    out[8..12].copy_from_slice(&MAP_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(specs.len() as u32).to_le_bytes());
    out[16..24].copy_from_slice(&crc64::checksum(&table).to_le_bytes());
    out[HEADER_LEN..HEADER_LEN + table.len()].copy_from_slice(&table);
    for (s, &offset) in specs.iter().zip(&offsets) {
        out[offset..offset + s.bytes.len()].copy_from_slice(&s.bytes);
    }
    out
}

impl EdgeModel {
    /// Saves this model in the zero-copy mapped layout, quantizing the
    /// smoothed-embedding table per `quant`. Crash-safe like every other
    /// artifact write (temp file + fsync + atomic rename), and re-saving
    /// an already-quantized model in its own mode copies the stored codes
    /// verbatim (lossless re-save).
    ///
    /// Failpoint: `persist.save` (shared with the checkpoint writer).
    pub fn save_artifact(
        &self,
        path: impl AsRef<Path>,
        quant: QuantMode,
    ) -> Result<(), PersistError> {
        failpoint!("persist.save");
        let bytes = self.to_mapped_bytes(quant)?;
        fsio::atomic_write(path, &bytes)?;
        Ok(())
    }

    fn to_mapped_bytes(&self, quant: QuantMode) -> Result<Vec<u8>, PersistError> {
        let store = self.smoothed_store();
        let (rows, cols) = (store.rows(), store.cols());

        let mut param_names = Vec::new();
        let mut param_shapes = Vec::new();
        let mut param_bytes = Vec::new();
        for (_, name, m) in self.param_store().iter() {
            param_names.push(name.to_string());
            param_shapes.push((m.rows(), m.cols()));
            param_bytes.extend_from_slice(&f32_le_bytes(m.data()));
        }

        let meta = MapMeta {
            format_version: MAP_FORMAT_VERSION,
            quant: quant.as_str().to_string(),
            config: self.config().clone(),
            ner: self.recognizer().clone(),
            index: self.entity_index().clone(),
            param_names,
            param_shapes,
            w_gcn: self.gcn_param_ids().to_vec(),
            q1: self.attention_param_ids().0,
            b1: self.attention_param_ids().1,
            q2: self.head_param_ids().0,
            b2: self.head_param_ids().1,
            prior: self.prior().cloned(),
        };

        let mut specs = vec![
            SectionSpec {
                tag: TAG_META,
                dtype: DT_JSON,
                rows: 0,
                cols: 0,
                bytes: json_to_vec(&meta)?,
            },
            SectionSpec { tag: TAG_PARAMS, dtype: DT_F32, rows: 0, cols: 0, bytes: param_bytes },
        ];

        match (quant, store) {
            // Lossless re-save: copy the stored codes byte-for-byte.
            (QuantMode::F16, SmoothedStore::MappedF16 { artifact }) => {
                specs.push(SectionSpec {
                    tag: TAG_SMOOTHED,
                    dtype: DT_F16,
                    rows,
                    cols,
                    bytes: artifact.tagged_bytes(TAG_SMOOTHED).to_vec(),
                });
            }
            (QuantMode::Int8, SmoothedStore::MappedI8 { artifact, .. }) => {
                specs.push(SectionSpec {
                    tag: TAG_SMOOTHED,
                    dtype: DT_I8,
                    rows,
                    cols,
                    bytes: artifact.tagged_bytes(TAG_SMOOTHED).to_vec(),
                });
                specs.push(SectionSpec {
                    tag: TAG_SCALES,
                    dtype: DT_F32,
                    rows,
                    cols: 1,
                    bytes: artifact.tagged_bytes(TAG_SCALES).to_vec(),
                });
            }
            (quant, store) => {
                let table = store.to_matrix();
                match quant {
                    QuantMode::None => specs.push(SectionSpec {
                        tag: TAG_SMOOTHED,
                        dtype: DT_F32,
                        rows,
                        cols,
                        bytes: f32_le_bytes(table.data()),
                    }),
                    QuantMode::F16 => {
                        let codes = quant::encode_f16(table.data());
                        let mut bytes = Vec::with_capacity(codes.len() * 2);
                        for c in &codes {
                            bytes.extend_from_slice(&c.to_le_bytes());
                        }
                        specs.push(SectionSpec {
                            tag: TAG_SMOOTHED,
                            dtype: DT_F16,
                            rows,
                            cols,
                            bytes,
                        });
                    }
                    QuantMode::Int8 => {
                        let (codes, scales) = quant::quantize_rows_i8(table.data(), rows, cols);
                        specs.push(SectionSpec {
                            tag: TAG_SMOOTHED,
                            dtype: DT_I8,
                            rows,
                            cols,
                            bytes: codes.iter().map(|&q| q as u8).collect(),
                        });
                        specs.push(SectionSpec {
                            tag: TAG_SCALES,
                            dtype: DT_F32,
                            rows,
                            cols: 1,
                            bytes: f32_le_bytes(&scales),
                        });
                    }
                }
            }
        }

        let feat = self.feature_matrix();
        specs.push(SectionSpec {
            tag: TAG_FEATURES,
            dtype: DT_F32,
            rows: feat.rows(),
            cols: feat.cols(),
            bytes: f32_le_bytes(feat.data()),
        });
        specs.push(SectionSpec {
            tag: TAG_ADJ,
            dtype: DT_JSON,
            rows: 0,
            cols: 0,
            bytes: json_to_vec(self.try_adjacency()?.as_ref())?,
        });

        Ok(assemble(&specs))
    }
}

/// Rewrites the artifact at `path` (legacy envelope or mapped) in the
/// mapped layout at `out`, optionally (re-)quantizing — the `fsck
/// --upgrade` migration. `out` may equal `path`: the write is atomic, so
/// the original survives any failure.
pub fn upgrade_artifact(
    path: impl AsRef<Path>,
    out: impl AsRef<Path>,
    quant: QuantMode,
) -> Result<ArtifactInfo, PersistError> {
    let model = if crate::persist::is_envelope_file(path.as_ref())? {
        crate::persist::read_legacy_model(&path)?
    } else {
        ModelArtifact::open(&path)?.load_model()?
    };
    model.save_artifact(&out, quant)?;
    crate::persist::inspect_artifact(&out)
}

/// Full verification of a mapped artifact for `fsck`: every CRC, the meta
/// consistency checks, plus an eager parse of the lazy sections (shapes of
/// `features`, JSON of `adj`) that normal loading defers.
pub(crate) fn inspect_mapped(path: &Path) -> Result<ArtifactInfo, PersistError> {
    let artifact = Arc::new(MappedArtifact::open(path)?);
    // Parse what load_model defers, so fsck vouches for the whole file.
    let adj: CsrMatrix = json_from_slice(artifact.tagged_bytes(TAG_ADJ))?;
    let n = artifact.meta.index.len();
    if adj.rows() != n || adj.cols() != n {
        return Err(corrupt(format!(
            "adjacency is {}x{} but the index has {n} entities",
            adj.rows(),
            adj.cols()
        )));
    }
    let meta = &artifact.meta;
    let detail = format!(
        "model (mmap, quant={}): {} entities, {} parameter matrices, {} GCN layers, prior {}",
        meta.quant,
        meta.index.len(),
        meta.param_names.len(),
        meta.w_gcn.len(),
        if meta.prior.is_some() { "present" } else { "absent" }
    );
    Ok(ArtifactInfo {
        kind: crate::persist::KIND_MODEL.to_string(),
        envelope_version: MAP_VERSION,
        payload_bytes: artifact.map.len(),
        crc64: {
            let table = &artifact.map.as_slice()
                [HEADER_LEN..HEADER_LEN + artifact.sections.len() * ENTRY_LEN];
            format!("{:016x}", crc64::checksum(table))
        },
        payload_version: meta.format_version,
        detail,
        quant: Some(meta.quant.clone()),
        sections: artifact.section_infos(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainOptions;
    use crate::predict::{PredictOptions, PredictRequest};
    use edge_data::{dataset_recognizer, nyma, PresetSize};

    fn trained() -> (EdgeModel, edge_data::Dataset) {
        let d = nyma(PresetSize::Smoke, 71);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 3;
        let (model, _) = EdgeModel::train(
            &train[..1000],
            dataset_recognizer(&d),
            &d.bbox,
            cfg,
            &TrainOptions::default(),
        )
        .expect("train");
        (model, d)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edge_artifact_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Compares predictions over the test split; returns (compared, mean km
    /// between the two models' point estimates).
    fn compare_predictions(a: &EdgeModel, b: &EdgeModel, d: &edge_data::Dataset) -> (usize, f64) {
        let (_, test) = d.paper_split();
        let opts = PredictOptions::default();
        let (mut compared, mut total_km) = (0usize, 0.0f64);
        for t in test.iter().take(80) {
            let req = PredictRequest::text(&t.text);
            match (a.locate(&req, &opts), b.locate(&req, &opts)) {
                (Ok(pa), Ok(pb)) => {
                    total_km += pa.prediction.point.haversine_km(&pb.prediction.point);
                    compared += 1;
                }
                (Err(_), Err(_)) => {}
                _ => panic!("coverage differs between encodings"),
            }
        }
        assert!(compared > 20, "compared only {compared}");
        (compared, total_km / compared as f64)
    }

    #[test]
    fn mapped_f32_round_trip_is_bit_identical() {
        let _fp = edge_faults::FailScenario::setup();
        let (model, d) = trained();
        let dir = tmp_dir("f32");
        let mapped = dir.join("model.edgemap");
        model.save_artifact(&mapped, QuantMode::None).expect("mapped save");

        let art = ModelArtifact::open(&mapped).expect("open");
        assert_eq!(art.quant(), QuantMode::None);
        let via_map = art.load_model().expect("load");

        let (_, test) = d.paper_split();
        let opts = PredictOptions::default();
        let mut compared = 0;
        for t in test.iter().take(80) {
            let req = PredictRequest::text(&t.text);
            match (model.locate(&req, &opts), via_map.locate(&req, &opts)) {
                (Ok(a), Ok(b)) => {
                    let (a, b) = (a.prediction, b.prediction);
                    assert_eq!(a.point, b.point, "points differ for: {}", t.text);
                    assert_eq!(a.attention, b.attention);
                    assert_eq!(a.mixture.weights(), b.mixture.weights());
                    compared += 1;
                }
                (Err(_), Err(_)) => {}
                _ => panic!("coverage differs after mmap reload"),
            }
        }
        assert!(compared > 20, "compared only {compared}");

        // fsck understands the format: section table + quant mode.
        let info = crate::persist::inspect_artifact(&mapped).expect("fsck");
        assert_eq!(info.quant.as_deref(), Some("none"));
        let tags: Vec<&str> = info.sections.iter().map(|s| s.tag.as_str()).collect();
        assert!(tags.contains(&"meta") && tags.contains(&"smoothed"), "{tags:?}");
        assert!(info.detail.contains("mmap"), "{}", info.detail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_round_trips_have_bounded_drift() {
        let _fp = edge_faults::FailScenario::setup();
        let (model, d) = trained();
        let dir = tmp_dir("quant");
        for (quant, bound_km) in [(QuantMode::F16, 5.0), (QuantMode::Int8, 25.0)] {
            let path = dir.join(format!("model.{quant}"));
            model.save_artifact(&path, quant).expect("save");
            let art = ModelArtifact::open(&path).expect("open");
            assert_eq!(art.quant(), quant);
            let loaded = art.load_model().expect("load");
            let (_, mean_km) = compare_predictions(&model, &loaded, &d);
            assert!(mean_km < bound_km, "{quant} drifted {mean_km:.3} km (bound {bound_km})");

            // Re-saving a quantized model in its own mode is lossless.
            let resaved = dir.join(format!("resave.{quant}"));
            loaded.save_artifact(&resaved, quant).expect("re-save");
            let again =
                ModelArtifact::open(&resaved).expect("reopen").load_model().expect("reload");
            let (_, drift) = compare_predictions(&loaded, &again, &d);
            assert_eq!(drift, 0.0, "{quant} re-save was not lossless");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn upgrade_rewrites_legacy_envelope_in_place() {
        let _fp = edge_faults::FailScenario::setup();
        let dir = tmp_dir("upgrade");
        let path = dir.join("model.edge");
        std::fs::copy(crate::persist::tests::FIXTURE, &path).unwrap();
        let legacy = crate::persist::read_legacy_model(&path).expect("legacy read");

        let info = upgrade_artifact(&path, &path, QuantMode::None).expect("upgrade");
        assert_eq!(info.quant.as_deref(), Some("none"));
        let upgraded = ModelArtifact::open(&path).expect("open upgraded").load_model().unwrap();
        let (_, drift) = compare_predictions(&legacy, &upgraded, &nyma(PresetSize::Smoke, 11));
        assert_eq!(drift, 0.0, "upgrade changed predictions");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_a_legacy_envelope_and_names_the_upgrade() {
        let err = ModelArtifact::open(crate::persist::tests::FIXTURE).err().expect("refused");
        assert!(matches!(err, PersistError::LegacyEnvelope), "{err:?}");
        assert!(err.to_string().contains("edge-cli fsck --upgrade"), "{err}");
        let err = EdgeModel::load_artifact(crate::persist::tests::FIXTURE).err().unwrap();
        assert!(matches!(err, PersistError::LegacyEnvelope), "{err:?}");
    }

    #[test]
    fn artifact_load_trait_serves_predictors() {
        let _fp = edge_faults::FailScenario::setup();
        let (model, _) = trained();
        let dir = tmp_dir("trait");
        let path = dir.join("model.edgemap");
        model.save_artifact(&path, QuantMode::F16).expect("save");
        let boxed: Box<dyn Predictor + Send + Sync> =
            ArtifactLoad::load_artifact(&path).expect("predictor load");
        let got = boxed.locate(
            &PredictRequest::text("from manhattan to brooklyn"),
            &PredictOptions::default(),
        );
        // Either outcome is fine; the point is the trait object works.
        let _ = got;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_corruption_without_panicking() {
        let _fp = edge_faults::FailScenario::setup();
        let (model, _) = trained();
        let dir = tmp_dir("corrupt");
        let path = dir.join("model.edgemap");
        model.save_artifact(&path, QuantMode::None).expect("save");
        let pristine = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bytes = pristine.clone();
        bytes[0] ^= 0xff;
        let bad = dir.join("magic.edgemap");
        std::fs::write(&bad, &bytes).unwrap();
        // Magic no longer matches → typed error at open.
        assert!(matches!(ModelArtifact::open(&bad), Err(PersistError::Corrupt(_))));

        // Truncations at every stage: header, table, payload.
        for cut in [5, HEADER_LEN - 1, HEADER_LEN + 10, pristine.len() / 2, pristine.len() - 3] {
            let t = dir.join(format!("trunc{cut}.edgemap"));
            std::fs::write(&t, &pristine[..cut]).unwrap();
            let got = ModelArtifact::open(&t).and_then(|a| a.load_model());
            assert!(got.is_err(), "truncation at {cut} loaded");
        }

        // A bit flip in the table or inside any section payload trips a
        // CRC (bytes in inter-section page padding carry no meaning and are
        // deliberately not covered).
        let info = crate::persist::inspect_artifact(&path).expect("fsck");
        let mut flip_sites = vec![HEADER_LEN + 4];
        flip_sites.extend(info.sections.iter().map(|s| (s.offset + s.bytes / 2) as usize));
        for at in flip_sites {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x10;
            let f = dir.join(format!("flip{at}.edgemap"));
            std::fs::write(&f, &bytes).unwrap();
            let got = ModelArtifact::open(&f).and_then(|a| a.load_model());
            assert!(
                matches!(got, Err(PersistError::Corrupt(_)) | Err(PersistError::Format(_))),
                "bit flip at {at} not caught: {got:?}"
            );
        }

        // The pristine copy still loads after all that.
        ModelArtifact::open(&path).unwrap().load_model().expect("pristine");
        std::fs::remove_dir_all(&dir).ok();
    }
}
