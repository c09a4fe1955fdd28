//! Property tests for artifact-corruption handling: a saved model damaged
//! by truncation at any offset or by any single flipped bit must always
//! fail to load with a typed [`PersistError`] — never a panic, never a
//! silently wrong model. Both formats are covered: the zero-copy mapped
//! layout through `ModelArtifact`, and a committed legacy JSON envelope
//! through the only paths that still read it, `inspect_artifact` (`fsck`)
//! and `upgrade_artifact` (`fsck --upgrade`).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use edge_core::{
    inspect_artifact, upgrade_artifact, EdgeConfig, EdgeModel, ModelArtifact, PersistError,
    PredictRequest, Predictor, QuantMode, TrainOptions,
};
use edge_data::{SimDate, Tweet};
use edge_geo::{BBox, Point};
use edge_text::{EntityCategory, EntityRecognizer};

/// One valid model, trained once for the whole binary.
fn trained_model() -> &'static EdgeModel {
    static MODEL: OnceLock<EdgeModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let tweets: Vec<Tweet> = (0..40)
            .map(|i| {
                let (name, lat, lon) = if i % 2 == 0 {
                    ("alpha cafe", 40.2, -74.8)
                } else {
                    ("beta park", 40.7, -74.3)
                };
                Tweet {
                    id: i,
                    text: format!("at {name} today {i}"),
                    location: Point::new(lat, lon),
                    date: SimDate::new(2020, 3, 12),
                    gold_entities: vec![],
                }
            })
            .collect();
        let ner = EntityRecognizer::with_gazetteer([
            ("alpha cafe", EntityCategory::Facility),
            ("beta park", EntityCategory::Geolocation),
        ]);
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 2;
        let bbox = BBox::new(40.0, 41.0, -75.0, -74.0);
        let (model, _) =
            EdgeModel::train(&tweets, ner, &bbox, cfg, &TrainOptions::default()).expect("train");
        model
    })
}

/// Bytes of a model the legacy writer saved in the JSON envelope
/// (`generate --preset nyma --size smoke --seed 11`, then `train --profile
/// smoke --epochs 2`).
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/legacy_v2_smoke.edge"))
            .expect("read the legacy fixture")
    })
}

/// Bytes of the same model in the mapped layout, plus the byte ranges the
/// format actually checks (magic/header fields, section table, section
/// payloads). Bytes outside these ranges — header reserved area and
/// inter-section page padding — carry no meaning and no checksum.
fn mapped_bytes() -> &'static (Vec<u8>, Vec<std::ops::Range<usize>>) {
    static BYTES: OnceLock<(Vec<u8>, Vec<std::ops::Range<usize>>)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = scratch_path("pristine_map");
        trained_model().save_artifact(&path, QuantMode::None).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        let info = edge_core::inspect_artifact(&path).expect("fsck");
        std::fs::remove_file(&path).ok();
        let mut checked = vec![0..24, 64..64 + info.sections.len() * 56];
        for s in &info.sections {
            checked.push(s.offset as usize..(s.offset + s.bytes) as usize);
        }
        (bytes, checked)
    })
}

fn scratch_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edge_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}.edge"))
}

/// Writes `bytes` and asserts that both `fsck` and `fsck --upgrade` reject
/// them with a typed error without panicking (and that the upgrade writes
/// nothing), returning the error's display for diagnostics.
fn load_must_fail(bytes: &[u8], tag: &str) -> Result<String, String> {
    let path = scratch_path(tag);
    let out = scratch_path(&format!("{tag}_upgraded"));
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let inspected = inspect_artifact(&path);
    let upgraded = upgrade_artifact(&path, &out, QuantMode::None);
    let wrote = out.exists();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&out).ok();
    match (inspected, upgraded) {
        (Err(_), Err(e)) if !wrote => Ok(e.to_string()),
        _ => Err(format!("damaged artifact ({tag}) passed fsck or upgraded")),
    }
}

/// Like [`load_must_fail`] but through the redesigned mapped-artifact path.
fn load_mapped_must_fail(bytes: &[u8], tag: &str) -> Result<String, String> {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    let outcome = ModelArtifact::open(&path).and_then(|a| a.load_model());
    std::fs::remove_file(&path).ok();
    match outcome {
        Err(e @ (PersistError::Io(_) | PersistError::Format(_) | PersistError::Corrupt(_))) => {
            Ok(e.to_string())
        }
        Err(PersistError::LegacyEnvelope) => Err(format!("{tag} read as a legacy envelope")),
        Ok(_) => Err(format!("damaged artifact ({tag}) loaded successfully")),
    }
}

proptest! {
    #[test]
    fn truncation_at_any_offset_is_a_typed_error(frac in 0.0f64..1.0) {
        let bytes = model_bytes();
        // frac < 1.0 strictly, so the file always loses at least one byte.
        let keep = (bytes.len() as f64 * frac) as usize;
        let msg = load_must_fail(&bytes[..keep], "trunc");
        prop_assert!(msg.is_ok(), "truncated to {keep}/{}: {}", bytes.len(), msg.unwrap_err());
    }

    #[test]
    fn any_single_bit_flip_is_a_typed_error(frac in 0.0f64..1.0, bit in 0usize..8) {
        let mut bytes = model_bytes().to_vec();
        let idx = (bytes.len() as f64 * frac) as usize;
        let idx = idx.min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        let msg = load_must_fail(&bytes, "flip");
        prop_assert!(msg.is_ok(), "flipped bit {bit} of byte {idx}: {}", msg.unwrap_err());
    }

    #[test]
    fn truncated_mapped_artifact_is_a_typed_error(frac in 0.0f64..1.0) {
        let (bytes, _) = mapped_bytes();
        let keep = (bytes.len() as f64 * frac) as usize;
        let msg = load_mapped_must_fail(&bytes[..keep], "map_trunc");
        prop_assert!(msg.is_ok(), "truncated to {keep}/{}: {}", bytes.len(), msg.unwrap_err());
    }

    #[test]
    fn bit_flip_in_mapped_artifact_never_goes_unnoticed(frac in 0.0f64..1.0, bit in 0usize..8) {
        let (pristine, checked) = mapped_bytes();
        let mut bytes = pristine.clone();
        let idx = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        let path = scratch_path("map_flip");
        std::fs::write(&path, &bytes).expect("write corrupted copy");
        let outcome = ModelArtifact::open(&path).and_then(|a| a.load_model());
        std::fs::remove_file(&path).ok();
        if checked.iter().any(|r| r.contains(&idx)) {
            // Flip in magic, header fields, section table, or a payload:
            // must surface as a typed error.
            prop_assert!(outcome.is_err(), "flip in checked byte {idx} loaded");
        } else {
            // Flip in reserved/padding bytes: meaningless, so the artifact
            // still loads — but it must load, not panic.
            prop_assert!(outcome.is_ok(), "flip in padding byte {idx} failed to load");
        }
    }

    #[test]
    fn mapped_magic_with_garbage_body_is_a_typed_error(len in 0usize..4096, seed in 0u64..u64::MAX) {
        let mut state = seed;
        let mut bytes = b"EDGEMAP1".to_vec();
        bytes.extend((0..len).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        }));
        let msg = load_mapped_must_fail(&bytes, "map_garbage");
        prop_assert!(msg.is_ok(), "magic + {len} garbage bytes: {}", msg.unwrap_err());
    }

    #[test]
    fn random_garbage_is_a_typed_error(len in 0usize..4096, seed in 0u64..u64::MAX) {
        // Arbitrary bytes, sometimes starting with plausible-looking JSON.
        let mut state = seed;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let msg = load_must_fail(&bytes, "garbage");
        prop_assert!(msg.is_ok(), "{len} garbage bytes: {}", msg.unwrap_err());
    }
}

#[test]
fn pristine_mapped_bytes_load() {
    let path = scratch_path("sane_map");
    std::fs::write(&path, &mapped_bytes().0).unwrap();
    let model = ModelArtifact::open(&path).expect("open").load_model().expect("load");
    assert!(model.locate(&PredictRequest::text("alpha cafe"), &Default::default()).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn pristine_bytes_load() {
    // Sanity check for the suite itself: the undamaged envelope passes fsck
    // and upgrades to a model that serves.
    let path = scratch_path("sane");
    let out = scratch_path("sane_upgraded");
    std::fs::write(&path, model_bytes()).unwrap();
    assert_eq!(inspect_artifact(&path).expect("pristine envelope passes fsck").kind, "model");
    upgrade_artifact(&path, &out, QuantMode::None).expect("pristine envelope upgrades");
    let model = ModelArtifact::open(&out).expect("open").load_model().expect("load");
    assert!(model.locate(&PredictRequest::entities([0]), &Default::default()).is_ok());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&out).ok();
}
