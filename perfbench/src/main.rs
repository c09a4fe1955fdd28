//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-routed|cold-single|train-file --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints the measured input properties
//! and every metric by name with its unit, then, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero when an output check fails.
//! See `perfbench/README.md` for what each workload and metric means.

mod inputs;
mod layers;
mod loadgen;
mod server;
mod serving;
mod stats;
mod trace;
mod train;

use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{median, tail};
use train::{Corpus, TrainJob};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "texts/s"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_s", "s"),
    ("mean_km", "km"),
    ("median_km", "km"),
    ("acc_3km", "share"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.frame_us", "us"),
    ("serve.json.decode_us", "us"),
    ("serve.json.body_bytes", "bytes"),
    ("serve.router.route_us", "us"),
    ("text.ner.recognize_us", "us"),
    ("core.resolve_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.hit_rate", "share"),
    ("serve.cache.insert_us", "us"),
    ("serve.batch.texts_per_batch", "texts"),
    ("serve.stage.parse_us", "us"),
    ("serve.stage.queue_us", "us"),
    ("serve.stage.batch_us", "us"),
    ("serve.stage.inference_us", "us"),
    ("serve.stage.serialize_us", "us"),
    ("core.infer_us", "us"),
    ("geo.mixture.mode_us", "us"),
    ("serve.json.render_us", "us"),
    ("serve.unattributed_us", "us"),
    ("core.artifact.load_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("serde_json.load_s", "s"),
    ("core.entity2vec_s", "s"),
    ("graph.build_s", "s"),
    ("core.train_loop_s", "s"),
    ("core.epoch_s", "s"),
    ("core.artifact.save_s", "s"),
    ("core.evaluate_s", "s"),
    ("tensor.matmul.flops", "count"),
    ("tensor.spmm.flops", "count"),
    ("embed.sgns.pairs", "count"),
    ("trace.latency_p50_us", "us"),
    ("trace.throughput_tps", "texts/s"),
];

/// Corpus parses per `train-file` run; set-up time is their median.
const PARSE_REPEATS: usize = 3;

/// One run's settings and scratch space.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    root: PathBuf,
    /// Deleted when the run ends.
    pub run_dir: PathBuf,
    /// Span files and per-run reports, kept.
    pub out_dir: PathBuf,
    /// `<workload>-seed<seed>-trace<0|1>`, naming the run's files.
    pub tag: String,
    edge_cli: OnceCell<PathBuf>,
}

impl Ctx {
    /// The `edge-cli` binary, built on first use.
    pub fn edge_cli(&self) -> Result<PathBuf, String> {
        if let Some(bin) = self.edge_cli.get() {
            return Ok(bin.clone());
        }
        let bin = server::build_edge_cli(&self.root)?;
        Ok(self.edge_cli.get_or_init(|| bin).clone())
    }
}

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The training-layer figures of a traced trainer report.
pub fn training_layers(report: &train::Report) -> Result<Vec<(&'static str, f64)>, String> {
    let span = |name: &str| -> Result<f64, String> {
        Ok(trace::mean(train::all(report, &format!("span.{name}"))?) / 1e6)
    };
    let counters = train::all(report, "counters")?;
    let mut out = vec![
        ("serde_json.load_s", median(train::all(report, "parse_s")?).ok_or("no parse")?),
        ("core.entity2vec_s", span("core.entity2vec")?),
        ("graph.build_s", span("graph.build")?),
        ("core.train_loop_s", median(train::all(report, "loop_s")?).ok_or("no loop")?),
        ("core.epoch_s", median(train::all(report, "epoch_s")?).ok_or("no epoch")?),
        ("core.artifact.save_s", median(train::all(report, "save_s")?).ok_or("no save")?),
        ("core.evaluate_s", train::one(report, "evaluate_s")?),
    ];
    out.extend(train::COUNTERS.iter().copied().zip(counters.iter().copied()));
    Ok(out)
}

/// `train-file`: what `edge-cli train --data` does on the
/// NYMA-smoke corpus file, then the test-split evaluation, checked
/// against the reopened artifact.
fn train_file(ctx: &Ctx) -> Result<Outcome, String> {
    let dataset = inputs::corpus("nyma");
    let corpus = ctx.run_dir.join("corpus.json");
    std::fs::write(&corpus, serde_json::to_string(&dataset).map_err(|e| e.to_string())?)
        .map_err(|e| format!("writing corpus: {e}"))?;
    let out = ctx.run_dir.join("nyma.edgemap");
    let job = TrainJob {
        corpus: Corpus::File { path: corpus, repeats: PARSE_REPEATS },
        out: out.clone(),
        seconds: ctx.seconds,
        trace: ctx.trace.then(|| ctx.out_dir.join(format!("{}-train-spans.jsonl", ctx.tag))),
    };
    let report = train::run(&job)?;

    // The artifact must reopen and reproduce the trainer's accuracy.
    let model = edge_core::ModelArtifact::open(&out)
        .and_then(|a| a.load_model())
        .map_err(|e| format!("reopening the artifact: {e}"))?;
    let pairs = train::accuracy(&model, dataset.paper_split().1);
    let acc = edge_geo::DistanceReport::from_pairs(&pairs).ok_or("no test tweet covered")?;
    let reported = train::all(&report, "accuracy")?;
    let reproduced = [acc.mean_km, acc.median_km, acc.at_3km, pairs.len() as f64];
    let same_accuracy = reported.iter().zip(&reproduced).all(|(a, b)| a.to_bits() == b.to_bits());
    let identical = train::one(&report, "identical")? == 1.0;

    let train_s = train::all(&report, "train_s")?;
    let trainings = train::all(&report, "steal")?;
    let parses = train::all(&report, "parse_s")?.len();
    let epochs_us: Vec<f64> = train::all(&report, "epoch_s")?.iter().map(|s| s * 1e6).collect();
    let epoch_p50 = median(&epochs_us).ok_or("no epochs")?;
    let epoch_tail = tail(&epochs_us, 90.0).ok_or("too few epochs")?;
    let throughput = median(train::all(&report, "texts_per_s")?).ok_or("no training")?;
    let notes = vec![
        format!("input.corpus_bytes {}", train::one(&report, "corpus_bytes")?),
        format!("input.test_tweets_covered {}", pairs.len()),
        format!(
            "phase.parse runs {parses}; phase.train runs {} (identical artifacts: {identical}), host steal shares {trainings:.4?}, figures from {} of them",
            trainings.len(),
            train_s.len()
        ),
        format!("check.reopened_artifact_accuracy_matches {same_accuracy}"),
        format!(
            "latency.p90_us {:.1} (epoch wall time at p{:.2}, {} samples beyond, {} total), not gated",
            epoch_tail.value,
            epoch_tail.percentile,
            epoch_tail.beyond,
            epochs_us.len()
        ),
    ];
    let correct = same_accuracy && identical;
    let attempted = parses + trainings.len() + 1;
    let metrics = if ctx.trace {
        let served = serving::serve_trained(ctx, "nyma", dataset, &report)?;
        if !served.correct {
            return Err("the traced serving session failed its checks".to_string());
        }
        served
            .metrics
            .into_iter()
            .map(|(name, v)| match name {
                "trace.latency_p50_us" => (name, epoch_p50),
                "trace.throughput_tps" => (name, throughput),
                _ => (name, v),
            })
            .collect()
    } else {
        vec![
            ("throughput_tps", throughput),
            ("latency_p50_us", epoch_p50),
            ("setup_s", median(train::all(&report, "parse_s")?).ok_or("no parse")?),
            ("peak_rss_mb", train::one(&report, "peak_rss_mb")?),
            ("train_s", median(train_s).ok_or("no training")?),
            ("mean_km", acc.mean_km),
            ("median_km", acc.median_km),
            ("acc_3km", acc.at_3km),
        ]
    };
    Ok(Outcome { correct, attempted, failed: usize::from(!correct), metrics, notes })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {name}"))
    };
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: flag("--workload")?.to_string(),
        seed: flag("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match flag("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace '{other}' (0|1)")),
        },
    })
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        root: root.to_path_buf(),
        run_dir: root.join(".perfbench").join("run").join(format!("{tag}-{}", std::process::id())),
        out_dir: root.join(".perfbench").join("out"),
        tag,
        edge_cli: OnceCell::new(),
    };
    for dir in [&ctx.run_dir, &ctx.out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // The load generator and the in-process replays stay on this thread
    // (plus one more for the second connection): no worker pool here.
    edge_par::set_num_threads(1);
    let result = match args.workload.as_str() {
        "warm-routed" => serving::run(&ctx, &serving::WARM_ROUTED),
        "cold-single" => serving::run(&ctx, &serving::COLD_SINGLE),
        "train-file" => train_file(&ctx),
        other => Err(format!("unknown workload '{other}' (warm-routed|cold-single|train-file)")),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trainer") {
        return match train::child_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("trainer: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The repository root: this package sits one level below it.
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package has a parent").to_path_buf();
    let outcome = match run(&args, &root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct;
    for line in &outcome.notes {
        println!("{line}");
    }
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        match outcome.metrics.iter().find(|(n, _)| n == name) {
            Some((_, value)) if value.is_finite() => {
                println!("{name:<28} {value:>16.4} {unit}");
                fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
            }
            _ => {
                eprintln!("error: metric {name} was not measured");
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
