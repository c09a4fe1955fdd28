//! Subcommand implementations for `edge-cli`.
//!
//! Human-facing progress goes to stderr via [`edge_obs::progress!`]; stdout
//! carries only the command's machine-parseable result (predictions, metric
//! lines, profile tables).

use std::collections::HashMap;
use std::path::Path;

use edge_core::{
    inspect_artifact, upgrade_artifact, ArtifactInfo, ArtifactLoad, EdgeConfig, EdgeModel,
    PredictError, PredictOptions, PredictRequest, Predictor, QuantMode, TrainError, TrainOptions,
};
use edge_data::{dataset_recognizer, Dataset, PresetSize};

/// The help text.
pub const USAGE: &str = "\
edge-cli - interpretable tweet geolocation (EDGE, ICDE 2021 reproduction)

USAGE:
    edge-cli <COMMAND> [OPTIONS]

COMMANDS:
    generate   create a synthetic corpus
                 --preset nyma|lama|ny2020|covid19   (default nyma)
                 --size smoke|default|paper          (default default)
                 --seed <u64>                        (default 42)
                 --out <path>                        (required)
    train      train EDGE on a corpus's 75% chronological split
                 --data <path>                       (required)
                 --profile smoke|fast|paper          (default fast)
                 --epochs <n>                        (override profile)
                 --components <M>                    (override profile)
                 --seed <u64>                        (default 42)
                 --threads <n>                       (worker threads; default: all
                                                      cores, or EDGE_NUM_THREADS)
                 --out <path>                        (required)
                 --checkpoint-dir <dir>              (write crash-safe checkpoints)
                 --checkpoint-every <n>              (epochs between checkpoints;
                                                      default 1)
                 --resume                            (continue from the newest
                                                      checkpoint in --checkpoint-dir)
                 --fresh-alloc                       (disable the tape arena; allocate
                                                      every batch fresh — bit-identical,
                                                      for A/B timing)
                 --trace <path>                      (dump span trace as JSONL)
                 --metrics-out <path>                (dump metrics snapshot as JSON)
                 --telemetry-out <dir>               (write per-epoch telemetry JSONL)
                 --quantize none|f16|int8            (smoothed-table encoding of the
                                                      saved artifact; default none)
    predict    predict one tweet's location mixture
                 --model <path>                      (required)
                 --text <tweet text>                 (required)
                 --fallback-prior                    (answer zero-entity tweets with
                                                      the training-split prior)
    evaluate   score a model on a corpus's 25% test split
                 --model <path>                      (required)
                 --data <path>                       (required)
                 --fallback-prior                    (score zero-entity tweets with
                                                      the training-split prior)
                 --threads <n>                       (worker threads)
                 --trace <path>                      (dump span trace as JSONL)
                 --metrics-out <path>                (dump metrics snapshot as JSON)
    serve      run the event-loop HTTP inference server on saved model(s)
                 --model <path>                      (required; repeat as
                                                      --model NAME=PATH to load
                                                      one shard per metro and
                                                      route by resolved entities)
                 --addr <host:port>                  (default 127.0.0.1:7878)
                 --event-loops <n>                   (epoll loop threads; default 2)
                 --replicas <n>                      (scheduler threads per shard;
                                                      default 1)
                 --max-batch <n>                     (default 32)
                 --queue-capacity <n>                (shed beyond this, per shard;
                                                      default 256)
                 --cache-capacity <n>                (0 disables; default 4096)
                 --cache-lsh-bits <n>                (SimHash signature width of the
                                                      approximate cache tier; default 16)
                 --cache-hamming-max <n>             (serve cached answers of entity
                                                      sets within this Hamming distance;
                                                      0 = exact only; default 0)
                 --fallback-prior                    (default zero-entity policy)
                 --threads <n>                       (worker threads)
                 --slo-p99-us <n>                    (SLO latency target; default 100000)
                 --slo-max-shed-rate <f>             (SLO shed budget; default 0.01)
                 --slo-window-secs <n>               (SLO rolling window; default 60)
                 --ring-capacity <n>                 (request ring size; default 1024)
                 --slow-request-us <n>               (log requests slower than this
                                                      as JSONL on stderr; 0 = off)
                 --default-deadline-us <n>           (deadline for requests without
                                                      X-Deadline-Us; 0 = unbounded;
                                                      default 30000000)
                 --max-body-bytes <n>                (413 beyond this; default 1048576)
                 --brownout-p99-us <n>               (latency target driving brownout
                                                      escalation; default 100000)
                 --no-brownout                       (disable the degradation ladder)
                 --reload-breaker-threshold <n>      (consecutive /reload failures
                                                      before the breaker opens;
                                                      0 = off; default 3)
                 --reload-breaker-cooldown-secs <n>  (open-breaker cooldown; default 10)
    top        live dashboard for a running server (polls /metrics; prints
               one row per model shard plus a total row)
                 --addr <host:port>                  (default 127.0.0.1:7878)
                 --interval-ms <n>                   (poll interval; default 1000)
                 --iters <n>                         (samples to print; 0 = forever)
                 --max-errors <n>                    (exit non-zero after this many
                                                      consecutive failed polls;
                                                      default 5)
    fsck       verify an artifact (model or checkpoint) without loading it;
               mapped models print their section table and quant mode
                 <path>                              (positional, required)
                 --upgrade                           (rewrite a legacy envelope in
                                                      the zero-copy mapped layout,
                                                      atomically)
                 --quantize none|f16|int8            (with --upgrade: re-encode the
                                                      smoothed table; default none)
                 --out <path>                        (with --upgrade: write here
                                                      instead of in place)
    profile    train under full tracing and print a self-time profile table
                 --preset nyma|lama|ny2020|covid19   (default nyma)
                 --size smoke|default|paper          (default smoke)
                 --seed <u64>                        (default 42)
                 --threads <n>                       (worker threads)
                 --out <dir>                         (default results; telemetry
                                                      JSONL lands in <dir>/telemetry)
                 --trace <path>                      (also dump raw span trace JSONL)
";

/// Flags that take no value; present maps to `"true"`.
const BOOL_FLAGS: &[&str] = &["resume", "fallback-prior", "fresh-alloc", "no-brownout", "upgrade"];

/// Parses `--key value` pairs plus the valueless [`BOOL_FLAGS`].
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing required --{key}"))
}

fn parse_size(s: &str) -> Result<PresetSize, String> {
    match s {
        "smoke" => Ok(PresetSize::Smoke),
        "default" => Ok(PresetSize::Default),
        "paper" => Ok(PresetSize::Paper),
        other => Err(format!("unknown size '{other}' (smoke|default|paper)")),
    }
}

/// The cross-cutting `--threads <n>` flag: pins the `edge-par` pool width
/// for everything the command runs (overrides `EDGE_NUM_THREADS`).
fn apply_threads(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(t) = flags.get("threads") {
        let n: usize = t.parse().map_err(|_| format!("bad --threads '{t}'"))?;
        if n == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        edge_par::set_num_threads(n);
    }
    Ok(())
}

/// Turns a [`TrainError`] into an actionable user-facing message.
fn describe_train_error(e: TrainError) -> String {
    match &e {
        TrainError::EmptyCorpus => format!("{e}; generate a corpus first (edge-cli generate)"),
        TrainError::NoEntities(_) => {
            format!("{e}; the corpus and recognizer share no vocabulary")
        }
        TrainError::Diverged { .. } => {
            format!("{e}; lower the learning rate or enable --checkpoint-dir for rollback")
        }
        TrainError::Interrupted(_) => {
            format!("{e}; rerun with --resume to continue from the last checkpoint")
        }
        TrainError::InvalidConfig(_) | TrainError::Checkpoint(_) => e.to_string(),
    }
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn build_preset(preset: &str, size: PresetSize, seed: u64) -> Result<Dataset, String> {
    match preset {
        "nyma" => Ok(edge_data::nyma(size, seed)),
        "lama" => Ok(edge_data::lama(size, seed)),
        "ny2020" => Ok(edge_data::ny2020(size, seed)),
        "covid19" => Ok(edge_data::covid19(size, seed)),
        other => Err(format!("unknown preset '{other}' (nyma|lama|ny2020|covid19)")),
    }
}

/// The cross-cutting `--trace <path>` / `--metrics-out <path>` flags: the
/// constructor turns the subsystems on so the command body is observed, and
/// [`ObsOutputs::finish`] dumps what was collected.
struct ObsOutputs {
    trace: Option<String>,
    metrics: Option<String>,
}

fn obs_from_flags(flags: &HashMap<String, String>) -> ObsOutputs {
    let trace = flags.get("trace").cloned();
    let metrics = flags.get("metrics-out").cloned();
    if trace.is_some() {
        edge_obs::set_trace_enabled(true);
    }
    if metrics.is_some() {
        edge_obs::set_metrics_enabled(true);
    }
    ObsOutputs { trace, metrics }
}

impl ObsOutputs {
    fn finish(self) -> Result<(), String> {
        if let Some(path) = self.trace {
            std::fs::write(&path, edge_obs::trace::dump_jsonl())
                .map_err(|e| format!("writing trace {path}: {e}"))?;
            edge_obs::progress!("wrote span trace to {path}");
        }
        if let Some(path) = self.metrics {
            let json = serde_json::to_string_pretty(&edge_obs::metrics::snapshot())
                .map_err(|e| e.to_string())?;
            std::fs::write(&path, json).map_err(|e| format!("writing metrics {path}: {e}"))?;
            edge_obs::progress!("wrote metrics snapshot to {path}");
        }
        Ok(())
    }
}

/// `edge-cli generate`.
pub fn generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let out = required(&flags, "out")?;
    let size = parse_size(flags.get("size").map_or("default", String::as_str))?;
    let seed: u64 =
        flags.get("seed").map_or(Ok(42), |s| s.parse().map_err(|_| format!("bad --seed '{s}'")))?;
    let preset = flags.get("preset").map_or("nyma", String::as_str);
    let dataset = build_preset(preset, size, seed)?;
    let json = serde_json::to_string(&dataset).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    edge_obs::progress!(
        "wrote {} ({} tweets, {} gazetteer entries, timeline {}-{})",
        out,
        dataset.len(),
        dataset.gazetteer.len(),
        dataset.timeline.0.format_us(),
        dataset.timeline.1.format_us()
    );
    Ok(())
}

/// `edge-cli train`.
pub fn train(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let data = required(&flags, "data")?;
    let out = required(&flags, "out")?;
    let mut config = match flags.get("profile").map_or("fast", String::as_str) {
        "smoke" => EdgeConfig::smoke(),
        "fast" => EdgeConfig::fast(),
        "paper" => EdgeConfig::paper(),
        other => return Err(format!("unknown profile '{other}' (smoke|fast|paper)")),
    };
    if let Some(e) = flags.get("epochs") {
        config.epochs = e.parse().map_err(|_| format!("bad --epochs '{e}'"))?;
    }
    if let Some(m) = flags.get("components") {
        config.n_components = m.parse().map_err(|_| format!("bad --components '{m}'"))?;
    }
    if let Some(s) = flags.get("seed") {
        config.seed = s.parse().map_err(|_| format!("bad --seed '{s}'"))?;
    }
    apply_threads(&flags)?;
    let obs = obs_from_flags(&flags);
    let telemetry_dir = flags.get("telemetry-out").cloned();
    if telemetry_dir.is_some() {
        // Run name = the model file's stem, so telemetry pairs with the model.
        let stem =
            Path::new(out).file_stem().and_then(|s| s.to_str()).unwrap_or("train").to_string();
        edge_obs::telemetry::start_run(&stem);
    }

    let mut opts = TrainOptions::default();
    if let Some(dir) = flags.get("checkpoint-dir") {
        opts.checkpoint_dir = Some(dir.into());
    }
    if let Some(n) = flags.get("checkpoint-every") {
        opts.checkpoint_every = n.parse().map_err(|_| format!("bad --checkpoint-every '{n}'"))?;
    }
    if flags.contains_key("resume") {
        if opts.checkpoint_dir.is_none() {
            return Err("--resume needs --checkpoint-dir".to_string());
        }
        opts.resume = true;
    }
    // Escape hatch: disable the tape arena and allocate every batch fresh
    // (bit-identical results; for A/B timing and allocator debugging).
    if flags.contains_key("fresh-alloc") {
        opts.fresh_alloc = true;
    }

    let dataset = load_dataset(data)?;
    let (train_split, _) = dataset.paper_split();
    edge_obs::progress!(
        "training EDGE on {} tweets (d={}, M={}, {} epochs) ...",
        train_split.len(),
        config.embed_dim,
        config.n_components,
        config.epochs
    );
    let started = std::time::Instant::now();
    let (model, report) =
        EdgeModel::train(train_split, dataset_recognizer(&dataset), &dataset.bbox, config, &opts)
            .map_err(describe_train_error)?;
    if report.start_epoch > 0 {
        edge_obs::progress!("resumed from checkpoint at epoch {}", report.start_epoch);
    }
    edge_obs::progress!(
        "done in {:.1?}: {} entities, NLL {:.3} -> {:.3}{}",
        started.elapsed(),
        model.entity_index().len(),
        report.epoch_losses.first().unwrap(),
        report.epoch_losses.last().unwrap(),
        if report.rollbacks > 0 {
            format!(" ({} divergence rollback(s))", report.rollbacks)
        } else {
            String::new()
        }
    );
    let quant: QuantMode = flags.get("quantize").map_or(Ok(QuantMode::None), |q| q.parse())?;
    model.save_artifact(out, quant).map_err(|e| e.to_string())?;
    edge_obs::progress!("saved model to {out} (mmap, quant={quant})");
    if let Some(dir) = &telemetry_dir {
        if let Some(path) =
            edge_obs::telemetry::write_to_dir(dir).map_err(|e| format!("writing telemetry: {e}"))?
        {
            edge_obs::progress!("wrote telemetry to {}", path.display());
        }
        edge_obs::telemetry::stop();
    }
    obs.finish()
}

/// `edge-cli predict`.
pub fn predict(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let model_path = required(&flags, "model")?;
    let text = required(&flags, "text")?;
    let model = EdgeModel::load_artifact(model_path).map_err(|e| e.to_string())?;
    let opts = PredictOptions::default().with_fallback_prior(flags.contains_key("fallback-prior"));
    match model.locate(&PredictRequest::text(text), &opts) {
        Err(PredictError::NoEntities) => {
            println!("not covered: no entity of this tweet appears in the training graph")
        }
        Err(e) => return Err(e.to_string()),
        Ok(resp) => {
            let p = &resp.prediction;
            if resp.from_fallback {
                println!("(answered with the training-split prior: no recognized entity)");
            }
            println!("point estimate (Eq. 14): ({:.5}, {:.5})", p.point.lat, p.point.lon);
            if !p.attention.is_empty() {
                println!("attention:");
                for (entity, w) in &p.attention {
                    println!("  {entity:<28} {w:.4}");
                }
            }
            println!("mixture:");
            for (pi, g) in p.mixture.iter() {
                println!(
                    "  pi={pi:.4} mu=({:.5}, {:.5}) sigma=({:.5}, {:.5}) rho={:+.3}",
                    g.mu.lat, g.mu.lon, g.sigma_lat, g.sigma_lon, g.rho
                );
            }
        }
    }
    Ok(())
}

/// `edge-cli evaluate`.
pub fn evaluate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let model_path = required(&flags, "model")?;
    let data = required(&flags, "data")?;
    apply_threads(&flags)?;
    let obs = obs_from_flags(&flags);
    let model = EdgeModel::load_artifact(model_path).map_err(|e| e.to_string())?;
    let opts = PredictOptions::default().with_fallback_prior(flags.contains_key("fallback-prior"));
    let dataset = load_dataset(data)?;
    let (_, test) = dataset.paper_split();
    let outcome = model.evaluate(test, &opts);
    let report = outcome.report().ok_or("the model covered no test tweet")?;
    println!(
        "test tweets {:>6}   covered {:>6} ({:.1}%)",
        test.len(),
        report.n,
        report.coverage * 100.0
    );
    println!("mean     {:>8.2} km", report.mean_km);
    println!("median   {:>8.2} km", report.median_km);
    println!("@3km     {:>8.4}", report.at_3km);
    println!("@5km     {:>8.4}", report.at_5km);
    // The complement of coverage: tweets whose entities all missed the
    // training graph (satellite of the paper's coverage discussion).
    println!("ner-miss {:>8.1} %", (1.0 - report.coverage) * 100.0);
    obs.finish()
}

/// `edge-cli profile`: trains a (by default smoke-sized) preset under full
/// tracing + metrics + telemetry, prints the self-time profile table and the
/// metrics snapshot on stdout, and writes per-epoch telemetry JSONL under
/// `<out>/telemetry/`.
pub fn profile(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut preset = flags.get("preset").map_or("nyma", String::as_str);
    let mut size_name = flags.get("size").map_or("smoke", String::as_str);
    // `--preset smoke|default|paper` is accepted as a size shorthand: the
    // profile of interest is the scale, not the corpus flavor.
    if matches!(preset, "smoke" | "default" | "paper") {
        size_name = preset;
        preset = "nyma";
    }
    let size = parse_size(size_name)?;
    let seed: u64 =
        flags.get("seed").map_or(Ok(42), |s| s.parse().map_err(|_| format!("bad --seed '{s}'")))?;
    let out_dir = flags.get("out").map_or("results", String::as_str);
    apply_threads(&flags)?;

    edge_obs::set_metrics_enabled(true);
    edge_obs::set_trace_enabled(true);
    edge_obs::metrics::reset();
    edge_obs::trace::reset();
    let run = format!("profile-{preset}-{size_name}");
    edge_obs::telemetry::start_run(&run);

    let dataset = build_preset(preset, size, seed)?;
    let (train_split, _) = dataset.paper_split();
    let mut config = match size {
        PresetSize::Smoke => EdgeConfig::smoke(),
        _ => EdgeConfig::fast(),
    };
    config.seed = seed;
    edge_obs::progress!(
        "profiling EDGE training on {} tweets ({} epochs) ...",
        train_split.len(),
        config.epochs
    );
    let started = std::time::Instant::now();
    let (model, report) = EdgeModel::train(
        train_split,
        dataset_recognizer(&dataset),
        &dataset.bbox,
        config,
        &TrainOptions::default(),
    )
    .map_err(describe_train_error)?;
    edge_obs::progress!(
        "trained in {:.1?}: {} entities, final NLL {:.3}",
        started.elapsed(),
        model.entity_index().len(),
        report.epoch_losses.last().unwrap()
    );

    let profile = edge_obs::trace::profile();
    print!("{}", profile.render());
    // The phases the paper's pipeline decomposes into; self-times partition
    // the root span, so this should sit at (or very near) 100%.
    let named = [
        "train",
        "entity2vec",
        "graph.build",
        "epoch",
        "gcn",
        "attention",
        "mdn",
        "backward",
        "adam.step",
        "matmul",
        "sgns",
    ];
    println!("named-span coverage: {:.1}%", 100.0 * profile.coverage(&named));
    println!();
    print!("{}", edge_obs::metrics::snapshot().render());

    let telemetry_dir = Path::new(out_dir).join("telemetry");
    if let Some(path) = edge_obs::telemetry::write_to_dir(&telemetry_dir)
        .map_err(|e| format!("writing telemetry: {e}"))?
    {
        edge_obs::progress!("wrote telemetry to {}", path.display());
    }
    edge_obs::telemetry::stop();
    if let Some(path) = flags.get("trace") {
        std::fs::write(path, edge_obs::trace::dump_jsonl())
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        edge_obs::progress!("wrote span trace to {path}");
    }
    Ok(())
}

/// Every flag `serve` accepts besides the repeatable `--model`.
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "event-loops",
    "replicas",
    "max-batch",
    "queue-capacity",
    "cache-capacity",
    "cache-lsh-bits",
    "cache-hamming-max",
    "fallback-prior",
    "threads",
    "slo-p99-us",
    "slo-max-shed-rate",
    "slo-window-secs",
    "ring-capacity",
    "slow-request-us",
    "default-deadline-us",
    "max-body-bytes",
    "brownout-p99-us",
    "no-brownout",
    "reload-breaker-threshold",
    "reload-breaker-cooldown-secs",
];

/// Splits `serve`'s arguments into its `--model` specs (repeatable, in
/// order) and the remaining flags, refusing any flag `serve` does not
/// know so a stale one in a deploy script fails loudly.
fn serve_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    // Pre-extract every `--model`, since `parse_flags` keeps only the
    // last repeat.
    let mut models: Vec<String> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--model" {
            let v = args.get(i + 1).ok_or("--model needs a value")?;
            models.push(v.clone());
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    let flags = parse_flags(&rest)?;
    if let Some(unknown) = flags.keys().find(|k| !SERVE_FLAGS.contains(&k.as_str())) {
        return Err(format!("serve does not take --{unknown} (see edge-cli --help)"));
    }
    if models.is_empty() {
        return Err("missing required --model".to_string());
    }
    Ok((models, flags))
}

/// The server config `serve`'s flags describe.
fn serve_config(flags: &HashMap<String, String>) -> Result<edge_serve::ServeConfig, String> {
    let mut config = edge_serve::ServeConfig { handle_signals: true, ..Default::default() };
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.clone();
    }
    fn numeric<T: std::str::FromStr>(
        flags: &HashMap<String, String>,
        key: &str,
        slot: &mut T,
    ) -> Result<(), String> {
        if let Some(v) = flags.get(key) {
            *slot = v.parse().map_err(|_| format!("bad --{key} '{v}'"))?;
        }
        Ok(())
    }
    numeric(flags, "max-batch", &mut config.max_batch)?;
    numeric(flags, "queue-capacity", &mut config.queue_capacity)?;
    numeric(flags, "cache-capacity", &mut config.cache_capacity)?;
    numeric(flags, "cache-lsh-bits", &mut config.cache_lsh_bits)?;
    numeric(flags, "cache-hamming-max", &mut config.cache_hamming_max)?;
    numeric(flags, "slo-p99-us", &mut config.slo_target_p99_us)?;
    numeric(flags, "slo-max-shed-rate", &mut config.slo_max_shed_rate)?;
    numeric(flags, "slo-window-secs", &mut config.slo_window_secs)?;
    numeric(flags, "ring-capacity", &mut config.ring_capacity)?;
    numeric(flags, "slow-request-us", &mut config.slow_request_us)?;
    numeric(flags, "default-deadline-us", &mut config.default_deadline_us)?;
    numeric(flags, "max-body-bytes", &mut config.max_body_bytes)?;
    numeric(flags, "brownout-p99-us", &mut config.brownout_p99_us)?;
    numeric(flags, "reload-breaker-threshold", &mut config.reload_breaker_threshold)?;
    numeric(flags, "reload-breaker-cooldown-secs", &mut config.reload_breaker_cooldown_secs)?;
    numeric(flags, "event-loops", &mut config.event_loops)?;
    numeric(flags, "replicas", &mut config.replicas)?;
    config.brownout_enabled = !flags.contains_key("no-brownout");
    config.fallback_prior = flags.contains_key("fallback-prior");
    Ok(config)
}

/// `edge-cli serve`: loads one model per `--model` (one shard per metro)
/// and runs the event-loop HTTP server until SIGTERM drains it.
pub fn serve(args: &[String]) -> Result<(), String> {
    let (models, flags) = serve_flags(args)?;
    apply_threads(&flags)?;
    let config = serve_config(&flags)?;

    // A bare path is the classic single-model server; any NAME=PATH spec
    // switches to the routed multi-shard form (all specs must then name
    // their shard).
    let server = if models.len() == 1 && !models[0].contains('=') {
        edge_serve::Server::start_from_artifact(&models[0], config)?
    } else {
        let specs: Vec<(String, String)> = models
            .iter()
            .map(|spec| match spec.split_once('=') {
                Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                    Ok((name.to_string(), path.to_string()))
                }
                _ => Err(format!("bad --model '{spec}' (want NAME=PATH when multi-shard)")),
            })
            .collect::<Result<_, _>>()?;
        edge_serve::Server::start_from_artifacts(&specs, config)?
    };
    edge_obs::progress!(
        "serving {} ({} shard{}) on http://{}",
        models.join(", "),
        server.shard_names().len(),
        if server.shard_names().len() == 1 { "" } else { "s" },
        server.addr()
    );
    edge_obs::progress!(
        "endpoints: POST /predict, GET /healthz, GET /metrics, POST /reload, GET /debug/requests"
    );
    server.wait();
    edge_obs::progress!("drained; bye");
    Ok(())
}

/// `edge-cli top`: polls a running server's `/metrics` and prints one
/// rate/latency/SLO row per interval — a terminal dashboard for the serve
/// pipeline. `--iters 1` doubles as a CI check that the exposition parses.
/// Transient poll failures reconnect and keep going; `--max-errors`
/// consecutive failures exit non-zero so a supervisor notices a server
/// that is actually gone, not just restarting.
pub fn top(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let sock: std::net::SocketAddr =
        addr.parse().map_err(|_| format!("bad --addr '{addr}' (want host:port)"))?;
    let iters: u64 = match flags.get("iters") {
        Some(v) => v.parse().map_err(|_| format!("bad --iters '{v}'"))?,
        None => 0, // poll until interrupted
    };
    let interval_ms: u64 = match flags.get("interval-ms") {
        Some(v) => v.parse().map_err(|_| format!("bad --interval-ms '{v}'"))?,
        None => 1_000,
    };
    let max_errors: u32 = match flags.get("max-errors") {
        Some(v) => v.parse().map_err(|_| format!("bad --max-errors '{v}'"))?,
        None => 5,
    };
    let mut client =
        edge_serve::Client::connect(sock).map_err(|e| format!("connect {addr}: {e}"))?;

    println!(
        "{:>12} {:>8} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6} {:>10}",
        "shard", "qps", "p50_ms", "p95_ms", "p99_ms", "shed%", "hit%", "queue", "mode"
    );
    // Previous-scrape counters per row (total + one per shard), for rates.
    type RowCounters = HashMap<String, (f64, f64, f64, f64)>;
    // One dashboard row: the unlabeled whole-server rollup ("total") or
    // one shard's `serve_shard_*` family values.
    struct TopRow {
        name: String,
        requests: f64,
        /// A shed *counter* for the total row, a shed-rate *gauge* for
        /// shard rows (`shed_is_counter` says which).
        shed: f64,
        hits: f64,
        misses: f64,
        latency_us: [f64; 3],
        queue: f64,
        mode: f64,
        shed_is_counter: bool,
    }
    let mut prev: Option<(std::time::Instant, RowCounters)> = None;
    let mut i = 0u64;
    let mut consecutive_errors = 0u32;
    loop {
        let polled = client
            .request("GET", "/metrics", b"")
            .map_err(|e| format!("GET /metrics: {e}"))
            .and_then(|resp| {
                if resp.status != 200 {
                    return Err(format!("GET /metrics returned {}", resp.status));
                }
                edge_obs::openmetrics::parse(resp.text())
                    .map_err(|e| format!("/metrics is not valid OpenMetrics: {e}"))
            });
        let scrape = match polled {
            Ok(scrape) => {
                consecutive_errors = 0;
                scrape
            }
            Err(msg) => {
                consecutive_errors += 1;
                if max_errors > 0 && consecutive_errors >= max_errors {
                    return Err(format!(
                        "{msg} ({consecutive_errors} consecutive failed polls; giving up)"
                    ));
                }
                edge_obs::progress!(
                    "edge-cli top: {msg} (retry {consecutive_errors}/{max_errors})"
                );
                // The old connection may be torn mid-frame; redial it.
                if let Ok(fresh) = edge_serve::Client::connect(sock) {
                    client = fresh;
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                continue;
            }
        };
        let now = std::time::Instant::now();
        let val = |name: &str, labels: &[(&str, &str)]| scrape.value(name, labels).unwrap_or(0.0);
        let mode_name = |m: f64| match m as i64 {
            0 => "full",
            1 => "cache_only",
            2 => "prior_only",
            3 => "shed",
            _ => "?",
        };
        // Shard rows come from the `serve_shard_*` labeled families; the
        // total row keeps the unlabeled whole-server rollups.
        let mut shard_names: Vec<String> = scrape
            .samples()
            .filter(|s| s.name == "serve_shard_requests_total")
            .filter_map(|s| s.labels.iter().find(|(k, _)| k == "shard").map(|(_, v)| v.clone()))
            .collect();
        shard_names.sort();
        shard_names.dedup();

        let mut rows = vec![TopRow {
            name: "total".to_string(),
            requests: val("serve_requests_total", &[]),
            shed: val("serve_shed_total", &[]),
            hits: val("serve_cache_stats_hits", &[]),
            misses: val("serve_cache_stats_misses", &[]),
            latency_us: [
                val("serve_request_us_p50", &[]),
                val("serve_request_us_p95", &[]),
                val("serve_request_us_p99", &[]),
            ],
            queue: val("serve_queue_depth", &[]),
            mode: val("serve_mode", &[]),
            shed_is_counter: true,
        }];
        for name in &shard_names {
            let l: &[(&str, &str)] = &[("shard", name)];
            rows.push(TopRow {
                name: name.clone(),
                requests: val("serve_shard_requests_total", l),
                shed: val("serve_shard_shed_rate", l),
                hits: val("serve_shard_cache_hits", l),
                misses: val("serve_shard_cache_misses", l),
                latency_us: [
                    val("serve_shard_request_us_p50", l),
                    val("serve_shard_request_us_p95", l),
                    val("serve_shard_request_us_p99", l),
                ],
                queue: val("serve_shard_queue_depth", l),
                mode: val("serve_shard_mode", l),
                shed_is_counter: false,
            });
        }

        let mut next_prev: RowCounters = HashMap::new();
        for row in &rows {
            let base = prev
                .as_ref()
                .and_then(|(t, m)| m.get(&row.name).map(|&(r0, s0, h0, m0)| (*t, r0, s0, h0, m0)));
            let (qps, shed_rate, hit_rate) = match base {
                Some((t, r0, s0, h0, m0)) => {
                    let dt = now.duration_since(t).as_secs_f64().max(1e-9);
                    let dr = (row.requests - r0).max(0.0);
                    let ds = (row.shed - s0).max(0.0);
                    let dh = (row.hits - h0).max(0.0);
                    let dm = (row.misses - m0).max(0.0);
                    let lookups = dh + dm;
                    (
                        dr / dt,
                        if row.shed_is_counter {
                            if dr > 0.0 {
                                ds / dr
                            } else {
                                0.0
                            }
                        } else {
                            row.shed // per-shard shed rate is already a gauge
                        },
                        if lookups > 0.0 { dh / lookups } else { 0.0 },
                    )
                }
                // First sample has no rate base; lifetime ratios stand in.
                None => {
                    let lookups = row.hits + row.misses;
                    (
                        0.0,
                        if row.shed_is_counter {
                            if row.requests > 0.0 {
                                row.shed / row.requests
                            } else {
                                0.0
                            }
                        } else {
                            row.shed
                        },
                        if lookups > 0.0 { row.hits / lookups } else { 0.0 },
                    )
                }
            };
            println!(
                "{:>12.12} {:>8.1} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>7.2} {:>6.0} {:>10}",
                row.name,
                qps,
                row.latency_us[0] / 1_000.0,
                row.latency_us[1] / 1_000.0,
                row.latency_us[2] / 1_000.0,
                shed_rate * 100.0,
                hit_rate * 100.0,
                row.queue,
                mode_name(row.mode),
            );
            next_prev.insert(row.name.clone(), (row.requests, row.shed, row.hits, row.misses));
        }
        prev = Some((now, next_prev));
        i += 1;
        if iters > 0 && i >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `edge-cli fsck <path>`: verifies an artifact — a mapped model's section
/// table and CRCs, or an envelope's magic, length and CRC64 plus payload
/// schema and consistency — without serving it, and prints what it found.
/// With `--upgrade` it rewrites a model (a legacy envelope included) in the
/// mapped layout.
pub fn fsck(args: &[String]) -> Result<(), String> {
    // One positional <path> plus the optional --upgrade/--quantize/--out.
    let mut path: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            rest.push(args[i].clone());
            i += 1;
            if !BOOL_FLAGS.contains(&key) {
                if let Some(v) = args.get(i) {
                    rest.push(v.clone());
                    i += 1;
                }
            }
        } else {
            if path.is_some() {
                return Err("fsck takes exactly one artifact path".to_string());
            }
            path = Some(args[i].clone());
            i += 1;
        }
    }
    let flags = parse_flags(&rest)?;
    let path = path.ok_or(
        "usage: edge-cli fsck <artifact> [--upgrade] [--quantize none|f16|int8] [--out <path>]",
    )?;

    if flags.contains_key("upgrade") {
        let quant: QuantMode = flags.get("quantize").map_or(Ok(QuantMode::None), |q| q.parse())?;
        let out = flags.get("out").map_or(path.as_str(), String::as_str);
        let info = upgrade_artifact(&path, out, quant).map_err(|e| format!("{path}: {e}"))?;
        edge_obs::progress!("upgraded {path} -> {out} (quant={quant})");
        print_artifact_info(out, &info);
        return Ok(());
    }
    if flags.contains_key("quantize") || flags.contains_key("out") {
        return Err("--quantize/--out only apply together with --upgrade".to_string());
    }
    let info = inspect_artifact(&path).map_err(|e| format!("{path}: {e}"))?;
    print_artifact_info(&path, &info);
    Ok(())
}

/// Renders one verified artifact for `fsck`: the envelope summary, and for
/// mapped artifacts the quant mode plus the full section table (every CRC
/// shown here was re-verified by the inspection that produced `info`).
fn print_artifact_info(path: &str, info: &ArtifactInfo) {
    println!("{path}: OK");
    println!("  kind             {}", info.kind);
    println!("  envelope version {}", info.envelope_version);
    println!("  payload          {} bytes, crc64 {}", info.payload_bytes, info.crc64);
    println!("  payload version  {}", info.payload_version);
    if let Some(quant) = &info.quant {
        println!("  quant            {quant}");
    }
    if !info.sections.is_empty() {
        println!(
            "  {:<10} {:>5} {:>10} {:>10} {:>13}  {:<16} status",
            "section", "dtype", "offset", "bytes", "shape", "crc64"
        );
        for s in &info.sections {
            let shape = if s.rows > 0 { format!("{}x{}", s.rows, s.cols) } else { "-".to_string() };
            println!(
                "  {:<10} {:>5} {:>10} {:>10} {:>13}  {:<16} OK",
                s.tag, s.dtype, s.offset, s.bytes, shape, s.crc64
            );
        }
    }
    println!("  {}", info.detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing_round_trip() {
        let flags = parse_flags(&strs(&["--preset", "nyma", "--seed", "7"])).unwrap();
        assert_eq!(flags["preset"], "nyma");
        assert_eq!(flags["seed"], "7");
    }

    #[test]
    fn flag_parsing_rejects_bad_shapes() {
        assert!(parse_flags(&strs(&["preset", "nyma"])).is_err());
        assert!(parse_flags(&strs(&["--preset"])).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let flags = parse_flags(&strs(&["--resume", "--checkpoint-dir", "ck", "--fallback-prior"]))
            .unwrap();
        assert_eq!(flags["resume"], "true");
        assert_eq!(flags["fallback-prior"], "true");
        assert_eq!(flags["checkpoint-dir"], "ck");
    }

    #[test]
    fn serve_rejects_an_unknown_flag_by_name() {
        let err = serve_flags(&strs(&["--model", "m.edge", "--max-delay-us", "500"])).unwrap_err();
        assert!(err.contains("--max-delay-us"), "{err}");
    }

    #[test]
    fn serve_accepts_every_flag_the_scripts_pass() {
        let base = ["--model", "m.json", "--addr", "127.0.0.1:7979"];
        let extras: &[&[&str]] = &[
            &[],
            &["--slow-request-us", "1"],
            &["--slo-p99-us", "1"],
            &["--default-deadline-us", "2000000", "--max-body-bytes", "65536"],
            &["--cache-lsh-bits", "16", "--cache-hamming-max", "2"],
        ];
        for extra in extras {
            let args: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
            let (models, flags) = serve_flags(&strs(&args)).unwrap();
            assert_eq!(models, ["m.json"]);
            serve_config(&flags).unwrap();
        }
        let (models, flags) = serve_flags(&strs(&[
            "--model",
            "nyma=a.json",
            "--model",
            "lama=b.json",
            "--addr",
            "127.0.0.1:7980",
        ]))
        .unwrap();
        assert_eq!(models, ["nyma=a.json", "lama=b.json"], "--model repeats, in order");
        assert_eq!(serve_config(&flags).unwrap().addr, "127.0.0.1:7980");
    }

    #[test]
    fn serve_accepts_every_flag_its_help_lists() {
        let section = &USAGE[USAGE.find("    serve ").unwrap()..USAGE.find("    top ").unwrap()];
        let mut listed: Vec<&str> = section
            .split_whitespace()
            .filter_map(|w| w.strip_prefix("--"))
            .filter(|f| *f != "model")
            .collect();
        let mut known = SERVE_FLAGS.to_vec();
        listed.sort_unstable();
        known.sort_unstable();
        assert_eq!(listed, known, "serve's help and its accepted flags differ");
    }

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("smoke").unwrap(), PresetSize::Smoke);
        assert_eq!(parse_size("paper").unwrap(), PresetSize::Paper);
        assert!(parse_size("tiny").is_err());
    }

    #[test]
    fn threads_flag_is_validated() {
        assert!(apply_threads(&parse_flags(&strs(&["--threads", "abc"])).unwrap()).is_err());
        assert!(apply_threads(&parse_flags(&strs(&["--threads", "0"])).unwrap()).is_err());
        // A valid count applies without error (pool width is global state;
        // the pool spawns lazily, so nothing is created here).
        apply_threads(&parse_flags(&strs(&["--threads", "2"])).unwrap()).unwrap();
        assert_eq!(edge_par::num_threads(), 2);
    }

    #[test]
    fn required_flag_errors_name_the_flag() {
        let flags = HashMap::new();
        let err = required(&flags, "out").unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn full_cli_round_trip_in_tempdir() {
        let dir = std::env::temp_dir().join("edge_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("corpus.json").to_string_lossy().to_string();
        let model = dir.join("model.json").to_string_lossy().to_string();

        generate(&strs(&["--preset", "nyma", "--size", "smoke", "--seed", "3", "--out", &corpus]))
            .expect("generate");
        train(&strs(&["--data", &corpus, "--profile", "smoke", "--epochs", "2", "--out", &model]))
            .expect("train");
        predict(&strs(&["--model", &model, "--text", "lunch near the Majestic Theatre"]))
            .expect("predict");
        predict(&strs(&[
            "--model",
            &model,
            "--text",
            "no entities whatsoever",
            "--fallback-prior",
        ]))
        .expect("predict with prior fallback");
        evaluate(&strs(&["--model", &model, "--data", &corpus, "--fallback-prior"]))
            .expect("evaluate");
        fsck(&strs(&[&model])).expect("fsck accepts a healthy model");
        assert!(fsck(&strs(&[&corpus])).is_err(), "a raw corpus is not an artifact");

        std::fs::remove_file(&corpus).ok();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn quantized_and_legacy_formats_round_trip_through_the_cli() {
        let dir = std::env::temp_dir().join("edge_cli_quant_test");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("corpus.json").to_string_lossy().to_string();
        let legacy = dir.join("legacy.json").to_string_lossy().to_string();
        let int8 = dir.join("model.int8").to_string_lossy().to_string();

        generate(&strs(&["--preset", "nyma", "--size", "smoke", "--seed", "9", "--out", &corpus]))
            .expect("generate");
        let base = ["--data", &corpus, "--profile", "smoke", "--epochs", "2"];

        // int8-quantized mapped artifact: trains, predicts, fscks.
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--out", &int8, "--quantize", "int8"]);
        train(&strs(&args)).expect("train int8");
        predict(&strs(&["--model", &int8, "--text", "lunch near the Majestic Theatre"]))
            .expect("predict from int8 artifact");
        fsck(&strs(&[&int8])).expect("fsck understands quantized artifacts");

        // A legacy envelope is refused by the serving paths, naming the
        // fix, passes fsck, and upgrades in place via fsck --upgrade.
        std::fs::copy(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../core/tests/fixtures/legacy_v2_smoke.edge"),
            &legacy,
        )
        .unwrap();
        let refused = predict(&strs(&["--model", &legacy, "--text", "x"])).unwrap_err();
        assert!(refused.contains("fsck --upgrade"), "{refused}");
        fsck(&strs(&[&legacy])).expect("fsck reads the legacy envelope");
        fsck(&strs(&[&legacy, "--upgrade"])).expect("upgrade in place");
        predict(&strs(&["--model", &legacy, "--text", "lunch near the Majestic Theatre"]))
            .expect("predict from upgraded artifact");
        // --quantize without --upgrade is a usage error.
        assert!(fsck(&strs(&[&legacy, "--quantize", "f16"])).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_with_checkpoints_and_resume() {
        let dir = std::env::temp_dir().join("edge_cli_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("corpus.json").to_string_lossy().to_string();
        let model = dir.join("model.json").to_string_lossy().to_string();
        let ckpt = dir.join("ckpt").to_string_lossy().to_string();

        generate(&strs(&["--preset", "nyma", "--size", "smoke", "--seed", "5", "--out", &corpus]))
            .expect("generate");
        let base = ["--data", &corpus, "--profile", "smoke", "--epochs", "3", "--out", &model];
        let mut with_ckpt: Vec<&str> = base.to_vec();
        with_ckpt.extend(["--checkpoint-dir", &ckpt, "--checkpoint-every", "1"]);
        train(&strs(&with_ckpt)).expect("train with checkpoints");
        assert!(
            std::fs::read_dir(&ckpt).unwrap().count() > 0,
            "checkpoints should have been written"
        );
        // Resuming a finished run is a no-op retrain from the last
        // checkpoint's final state; it must succeed and re-save the model.
        let mut resumed: Vec<&str> = with_ckpt.clone();
        resumed.push("--resume");
        train(&strs(&resumed)).expect("resume");
        // --resume without --checkpoint-dir is a usage error.
        let mut bad: Vec<&str> = base.to_vec();
        bad.push("--resume");
        assert!(train(&strs(&bad)).unwrap_err().contains("--checkpoint-dir"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_gives_up_after_consecutive_failures() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept-and-drop server: every poll sees a torn connection, so
        // `top` reconnects, retries, and finally exits non-zero.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                drop(stream);
            }
        });
        let err =
            top(&strs(&["--addr", &addr, "--interval-ms", "5", "--max-errors", "3"])).unwrap_err();
        assert!(err.contains("consecutive"), "{err}");
    }

    #[test]
    fn unknown_preset_is_reported() {
        let err = generate(&strs(&["--preset", "mars", "--out", "/tmp/x.json"])).unwrap_err();
        assert!(err.contains("mars"));
    }

    #[test]
    fn profile_smoke_writes_telemetry_jsonl() {
        let dir = std::env::temp_dir().join("edge_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_string_lossy().to_string();
        profile(&strs(&["--size", "smoke", "--seed", "11", "--out", &out])).expect("profile");
        let telemetry = dir.join("telemetry").join("profile-nyma-smoke.jsonl");
        let text = std::fs::read_to_string(&telemetry).expect("telemetry file");
        // Concurrent tests may also train while the run is active, so only
        // require the records to exist and parse.
        let records = edge_obs::telemetry::from_jsonl(&text).expect("parses");
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.nll.is_finite() && r.wall_secs >= 0.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
