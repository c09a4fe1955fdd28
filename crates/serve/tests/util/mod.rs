//! Shared fixture for the serve integration suites: one smoke-scale model
//! trained per test binary, saved as an artifact so every test (and the
//! server) loads bit-identical parameters.

use std::sync::OnceLock;

use edge_core::{
    ArtifactLoad, EdgeConfig, EdgeModel, PredictOptions, PredictRequest, Predictor, QuantMode,
    TrainOptions,
};
use edge_data::{dataset_recognizer, lama, nyma, Dataset, PresetSize};
use edge_serve::{ServeConfig, Server};

pub struct TestWorld {
    /// Saved artifact (zero-copy mapped layout) both the server and
    /// direct-comparison models load.
    pub model_path: String,
    /// The in-memory model the trainer returned, before any save: the
    /// parity baseline for the artifact.
    #[allow(dead_code)] // not every test binary uses every fixture
    pub trained: EdgeModel,
    /// A direct handle on the same parameters (loaded from the artifact).
    pub model: EdgeModel,
    pub dataset: Dataset,
}

static WORLD: OnceLock<TestWorld> = OnceLock::new();

pub fn world() -> &'static TestWorld {
    WORLD.get_or_init(|| {
        let dataset = nyma(PresetSize::Smoke, 4242);
        let (train, _) = dataset.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 2;
        let (model, _) = EdgeModel::train(
            train,
            dataset_recognizer(&dataset),
            &dataset.bbox,
            cfg,
            &TrainOptions::default(),
        )
        .expect("train");
        let path =
            std::env::temp_dir().join(format!("edge_serve_test_{}.edgemap", std::process::id()));
        model.save_artifact(&path, QuantMode::None).expect("save");
        let model_path = path.to_string_lossy().into_owned();
        let trained = model;
        let model = EdgeModel::load_artifact(&model_path).expect("load");
        TestWorld { model_path, trained, model, dataset }
    })
}

/// Starts a server on an ephemeral port with the shared model.
pub fn start_server(mut config: ServeConfig) -> Server {
    config.addr = "127.0.0.1:0".to_string();
    let model = EdgeModel::load_artifact(&world().model_path).expect("load");
    Server::start(model, config).expect("server starts")
}

/// Test-split texts the model covers (at least one resolved entity).
pub fn covered_texts(n: usize) -> Vec<String> {
    let w = world();
    let (_, test) = w.dataset.paper_split();
    test.iter()
        .filter(|t| !w.model.resolve_entities(&t.text).is_empty())
        .take(n)
        .map(|t| t.text.clone())
        .collect()
}

/// A test-split text with no recognized entity (abstention fixture).
#[allow(dead_code)] // not every test binary uses every fixture
pub fn uncovered_text() -> String {
    let w = world();
    let (_, test) = w.dataset.paper_split();
    test.iter()
        .find(|t| w.model.resolve_entities(&t.text).is_empty())
        .map(|t| t.text.clone())
        .unwrap_or_else(|| "nothing recognizable here".to_string())
}

/// What the server must answer for `text`, byte for byte: the rendered
/// direct `Predictor::locate` result.
#[allow(dead_code)] // not every test binary uses every fixture
pub fn expected_fragment(text: &str) -> Vec<u8> {
    let w = world();
    match w.model.locate(&PredictRequest::text(text), &PredictOptions::default()) {
        Ok(resp) => edge_serve::json::render_response(&resp),
        Err(err) => edge_serve::json::render_error(&err),
    }
}

/// Second metro shard (Los Angeles) alongside the New York world.
#[allow(dead_code)] // not every test binary uses every fixture
pub struct LamaWorld {
    pub model_path: String,
    pub model: EdgeModel,
    pub dataset: Dataset,
}

static LAMA: OnceLock<LamaWorld> = OnceLock::new();

#[allow(dead_code)] // not every test binary uses every fixture
pub fn lama_world() -> &'static LamaWorld {
    LAMA.get_or_init(|| {
        let dataset = lama(PresetSize::Smoke, 9393);
        let (train, _) = dataset.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 2;
        let (model, _) = EdgeModel::train(
            train,
            dataset_recognizer(&dataset),
            &dataset.bbox,
            cfg,
            &TrainOptions::default(),
        )
        .expect("train");
        let path = std::env::temp_dir()
            .join(format!("edge_serve_router_lama_{}.model.json", std::process::id()));
        model.save_artifact(&path, QuantMode::None).expect("save");
        let model_path = path.to_string_lossy().into_owned();
        let model = EdgeModel::load_artifact(&model_path).expect("load");
        LamaWorld { model_path, model, dataset }
    })
}

/// Covered test-split texts from the lama dataset.
#[allow(dead_code)] // not every test binary uses every fixture
pub fn lama_texts(n: usize) -> Vec<String> {
    let w = lama_world();
    let (_, test) = w.dataset.paper_split();
    test.iter()
        .filter(|t| !w.model.resolve_entities(&t.text).is_empty())
        .take(n)
        .map(|t| t.text.clone())
        .collect()
}
