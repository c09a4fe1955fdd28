//! Training, in a child process of its own (`perfbench trainer ...`).
//!
//! The child does what `edge-cli train` does — read and parse a corpus
//! file (or generate the seed's corpus in memory), train with the `fast`
//! profile, save the mapped artifact — then evaluates the model on the
//! 25% test split and reports on stdout, one `name value...` line per
//! figure. A child of its own keeps the trainer's peak RSS and its worker
//! threads apart from the load generator.
//!
//! With `--trace` it also replays the training layers one by one under
//! spans (entity2vec, graph build) and counts kernel work through the
//! `edge-obs` counters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use edge_core::{EdgeConfig, EdgeModel, PredictOptions, Predictor, QuantMode, TrainOptions};
use edge_data::{dataset_recognizer, Dataset};

use crate::trace::Tracer;

/// Where the child's corpus comes from.
#[derive(Debug, Clone)]
pub enum Corpus {
    /// A corpus JSON file, parsed `repeats` times (setup time is their
    /// median).
    File { path: PathBuf, repeats: usize },
    /// A metro's smoke corpus, generated in memory.
    Generated { metro: String },
}

/// One trainer invocation.
#[derive(Debug, Clone)]
pub struct TrainJob {
    pub corpus: Corpus,
    pub out: PathBuf,
    /// Keep re-training (identically) until this much time has passed;
    /// at least one training always runs.
    pub seconds: f64,
    /// Span file; `Some` turns on the per-layer replay and counters.
    pub trace: Option<PathBuf>,
}

/// The child's report: figure name → values.
pub type Report = BTreeMap<String, Vec<f64>>;

/// Runs the trainer child for `job` and parses its report.
pub fn run(job: &TrainJob) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    crate::server::die_with_parent(&mut cmd);
    cmd.arg("trainer").arg("--out").arg(&job.out).arg("--seconds").arg(job.seconds.to_string());
    match &job.corpus {
        Corpus::File { path, repeats } => {
            cmd.arg("--corpus").arg(path).arg("--repeats").arg(repeats.to_string());
        }
        Corpus::Generated { metro } => {
            cmd.args(["--metro", metro]);
        }
    }
    if let Some(trace) = &job.trace {
        cmd.arg("--trace").arg(trace);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning trainer: {e}"))?;
    if !out.status.success() {
        return Err(format!("trainer failed ({})", out.status));
    }
    let mut report = Report::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let values: Result<Vec<f64>, _> = parts.map(str::parse::<f64>).collect();
        report.insert(name.to_string(), values.map_err(|_| format!("bad trainer line: {line}"))?);
    }
    Ok(report)
}

/// One value of a report figure.
pub fn one(report: &Report, name: &str) -> Result<f64, String> {
    all(report, name)?.first().copied().ok_or(format!("trainer reported no {name}"))
}

/// Every value of a report figure.
pub fn all<'a>(report: &'a Report, name: &str) -> Result<&'a [f64], String> {
    report.get(name).map(Vec::as_slice).ok_or(format!("trainer reported no {name}"))
}

/// The paper's accuracy figures for a model on a test split.
pub fn accuracy(
    model: &EdgeModel,
    test: &[edge_data::Tweet],
) -> Vec<(edge_geo::Point, edge_geo::Point)> {
    model.evaluate(test, &PredictOptions::default()).point_pairs()
}

fn emit(name: &str, values: &[f64]) {
    let rendered: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    println!("{name} {}", rendered.join(" "));
}

/// Entry point of the child: `trainer --out P --seconds S (--corpus F
/// --repeats K | --metro M) [--trace SPANS]`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| -> Option<&str> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let out = PathBuf::from(flag("--out").ok_or("trainer needs --out")?);
    let seconds: f64 = flag("--seconds").unwrap_or("0").parse().map_err(|_| "bad --seconds")?;
    let trace_path = flag("--trace").map(PathBuf::from);
    let mut tracer = Tracer::default();

    let dataset = if let Some(path) = flag("--corpus") {
        let repeats: usize =
            flag("--repeats").unwrap_or("1").parse().map_err(|_| "bad --repeats")?;
        let mut parse_s = Vec::new();
        let mut dataset = None;
        for r in 0..repeats.max(1) {
            drop(dataset.take());
            let t = Instant::now();
            let d = tracer.span("serde_json.load", r as u64, |_| load_corpus(Path::new(path)))?;
            parse_s.push(t.elapsed().as_secs_f64());
            dataset = Some(d);
        }
        emit("corpus_bytes", &[std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64]);
        emit("parse_s", &parse_s);
        dataset.expect("at least one parse")
    } else {
        let metro = flag("--metro").ok_or("trainer needs --corpus or --metro")?;
        let d = crate::inputs::corpus(metro);
        if trace_path.is_some() {
            // The traced run times the corpus parser on this corpus too.
            let json = serde_json::to_string(&d).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let parsed: Dataset = tracer
                .span("serde_json.load", 0, |_| serde_json::from_str(&json))
                .map_err(|e| e.to_string())?;
            emit("parse_s", &[t.elapsed().as_secs_f64()]);
            emit("corpus_bytes", &[json.len() as f64]);
            if parsed.tweets != d.tweets {
                return Err("corpus did not survive a JSON round trip".to_string());
            }
        }
        d
    };
    let (train, test) = dataset.paper_split();
    // The CLI's default profile and training seed.
    let config = EdgeConfig::fast();

    if trace_path.is_some() {
        replay_training_layers(&mut tracer, &dataset, &config);
        edge_obs::set_metrics_enabled(true);
    }
    let counters_before = counters();
    let started = Instant::now();
    let mut first_bytes: Option<Vec<u8>> = None;
    let mut runs: Vec<Training> = Vec::new();
    let mut identical = true;
    let mut model = None;
    let mut run = 0u64;
    // Train for `seconds`, and past that until one training ran with the
    // host taking little of the CPU (a bounded number of trainings).
    let quiet = |r: &Training| r.steal <= crate::server::STEAL_LIMIT;
    // Another training starts only if it should end within `seconds`.
    let fits = |runs: &[Training]| {
        started.elapsed().as_secs_f64() + runs.last().map_or(0.0, |r| r.train_s) <= seconds
    };
    while runs.is_empty()
        || fits(&runs)
        || (!runs.iter().any(quiet) && runs.len() < crate::server::ATTEMPTS)
    {
        drop(model.take());
        let cpu = crate::server::CpuTicks::read();
        let t = Instant::now();
        let (m, report) = tracer
            .span("core.train", run, |_| {
                EdgeModel::train(
                    train,
                    dataset_recognizer(&dataset),
                    &dataset.bbox,
                    config.clone(),
                    &TrainOptions::default(),
                )
            })
            .map_err(|e| format!("training failed: {e}"))?;
        let s = Instant::now();
        tracer
            .span("core.artifact.save", run, |_| m.save_artifact(&out, QuantMode::None))
            .map_err(|e| format!("saving artifact: {e}"))?;
        let save = s.elapsed().as_secs_f64();
        let texts = (report.n_train_used * report.epoch_wall_secs.len()) as f64;
        runs.push(Training {
            train_s: t.elapsed().as_secs_f64(),
            loop_s: report.train_loop_secs(),
            epoch_s: report.epoch_wall_secs.clone(),
            texts_per_s: texts / report.train_loop_secs(),
            save_s: save,
            steal: cpu.steal_share(&crate::server::CpuTicks::read()),
        });
        // Training is bitwise deterministic: every repeat must save the
        // same bytes.
        let bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
        match &first_bytes {
            None => first_bytes = Some(bytes),
            Some(first) => identical &= *first == bytes,
        }
        if run == 0 && trace_path.is_some() {
            let after = counters();
            let delta: Vec<f64> =
                after.iter().zip(&counters_before).map(|(a, b)| (a - b) as f64).collect();
            emit("counters", &delta);
        }
        model = Some(m);
        run += 1;
    }
    let model = model.expect("trained");
    let t = Instant::now();
    let pairs = tracer.span("core.evaluate", 0, |_| accuracy(&model, test));
    emit("evaluate_s", &[t.elapsed().as_secs_f64()]);
    emit("steal", &runs.iter().map(|r| r.steal).collect::<Vec<_>>());
    // Figures come from the trainings the host left alone, or from the
    // quietest one when it left none alone.
    let least = runs.iter().map(|r| r.steal).fold(f64::INFINITY, f64::min);
    let kept: Vec<&Training> = runs.iter().filter(|r| quiet(r) || r.steal == least).collect();
    let each = |f: fn(&Training) -> f64| kept.iter().map(|r| f(r)).collect::<Vec<_>>();
    emit("train_s", &each(|r| r.train_s));
    emit("loop_s", &each(|r| r.loop_s));
    emit("epoch_s", &kept.iter().flat_map(|r| r.epoch_s.iter().copied()).collect::<Vec<_>>());
    emit("texts_per_s", &each(|r| r.texts_per_s));
    emit("save_s", &each(|r| r.save_s));
    emit("identical", &[if identical { 1.0 } else { 0.0 }]);
    let report = edge_geo::DistanceReport::from_pairs(&pairs).ok_or("no test tweet covered")?;
    emit("accuracy", &[report.mean_km, report.median_km, report.at_3km, pairs.len() as f64]);
    let rss = crate::server::peak_rss_mb("/proc/self/status").ok_or("no VmHWM")?;
    emit("peak_rss_mb", &[rss]);
    if let Some(path) = trace_path {
        for (name, us) in tracer.self_times_us(0) {
            emit(&format!("span.{name}"), &us);
        }
        tracer.write_jsonl(&path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(())
}

/// One training's figures.
struct Training {
    /// Parsed corpus to saved artifact.
    train_s: f64,
    loop_s: f64,
    epoch_s: Vec<f64>,
    texts_per_s: f64,
    save_s: f64,
    /// Share of CPU time the host took meanwhile.
    steal: f64,
}

/// Kernel work counters, in [`COUNTERS`] order.
pub const COUNTERS: [&str; 3] = ["tensor.matmul.flops", "tensor.spmm.flops", "embed.sgns.pairs"];

fn counters() -> Vec<u64> {
    let snap = edge_obs::metrics::snapshot();
    COUNTERS.iter().map(|name| snap.counter(name).unwrap_or(0)).collect()
}

fn load_corpus(path: &Path) -> Result<Dataset, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading corpus: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing corpus: {e}"))
}

/// Runs entity2vec and the graph build once each under their own spans —
/// the stages `EdgeModel::train` runs internally before its loop.
fn replay_training_layers(tracer: &mut Tracer, dataset: &Dataset, config: &EdgeConfig) {
    let (train, _) = dataset.paper_split();
    let ner = dataset_recognizer(dataset);
    let e2v = tracer.span("core.entity2vec", 0, |_| {
        edge_core::run_entity2vec(train, &ner, &config.sgns, config.embed_dim)
    });
    tracer.span("graph.build", 0, |_| {
        let n = e2v.index.len();
        let graph =
            edge_graph::build_cooccurrence_graph(n, e2v.tweet_entities.iter().map(Vec::as_slice));
        let triplets = edge_graph::normalized_adjacency_triplets(&graph);
        edge_tensor::CsrMatrix::from_triplets(n, n, &triplets)
    });
}
