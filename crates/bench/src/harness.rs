//! The experiment harness: trains every method on a dataset's chronological
//! split, evaluates the paper's metrics, and averages over seeds (the paper
//! repeats every experiment 3 times and reports means).

use std::path::Path;

use serde::{Deserialize, Serialize};

use edge_baselines::{
    GridCounts, HyperLocal, HyperLocalParams, KullbackLeibler, LocKde, LocKdeParams, NaiveBayes,
    UnicodeCnn, UnicodeCnnConfig,
};
use edge_core::{
    BowModel, EdgeConfig, EdgeModel, Geolocator, PredictOptions, Predictor, TrainOptions,
};
use edge_data::{dataset_recognizer, Dataset};
use edge_geo::{rdp, DistanceReport, GaussianMixture, Grid, Point};

/// Which methods a harness run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodSet {
    /// The eight methods of Table III.
    Comparison,
    /// EDGE plus the four ablations of Table IV.
    Ablation,
}

/// Harness-wide knobs.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// EDGE configuration (ablations derive from it).
    pub edge: EdgeConfig,
    /// Grid resolution for the grid baselines (paper: 100×100).
    pub grid_cells: usize,
    /// kde2d smoothing bandwidth in cells.
    pub kde2d_bandwidth: f64,
    /// UnicodeCNN configuration.
    pub unicode: UnicodeCnnConfig,
    /// Hyper-local configuration.
    pub hyperlocal: HyperLocalParams,
    /// LocKDE configuration.
    pub lockde: LocKdeParams,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            edge: EdgeConfig::fast(),
            grid_cells: 100,
            kde2d_bandwidth: 1.5,
            unicode: UnicodeCnnConfig::default(),
            hyperlocal: HyperLocalParams::default(),
            lockde: LocKdeParams::default(),
        }
    }
}

impl HarnessConfig {
    /// A configuration small enough for tests.
    pub fn smoke() -> Self {
        Self {
            edge: EdgeConfig::smoke(),
            grid_cells: 40,
            unicode: UnicodeCnnConfig {
                n_components: 36,
                epochs: 2,
                seq_len: 48,
                channels: 16,
                char_dim: 8,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// One method's scores on one dataset (one row of Table III / IV).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method name as in the paper.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Averaged distance metrics.
    pub report: DistanceReport,
}

/// Averages reports field-wise (used for multi-seed runs).
pub fn average_reports(reports: &[DistanceReport]) -> DistanceReport {
    assert!(!reports.is_empty(), "nothing to average");
    let n = reports.len() as f64;
    DistanceReport {
        mean_km: reports.iter().map(|r| r.mean_km).sum::<f64>() / n,
        median_km: reports.iter().map(|r| r.median_km).sum::<f64>() / n,
        at_3km: reports.iter().map(|r| r.at_3km).sum::<f64>() / n,
        at_5km: reports.iter().map(|r| r.at_5km).sum::<f64>() / n,
        n: reports.iter().map(|r| r.n).sum::<usize>() / reports.len(),
        coverage: reports.iter().map(|r| r.coverage).sum::<f64>() / n,
    }
}

/// Evaluates one [`Geolocator`] on the test split — the single scoring
/// path every method (EDGE and BOW included, via the blanket `Predictor`
/// implementation) goes through.
fn eval_geolocator(g: &dyn Geolocator, test: &[edge_data::Tweet]) -> DistanceReport {
    let outcome = g.evaluate_points(test);
    outcome.report().unwrap_or(DistanceReport {
        mean_km: f64::NAN,
        median_km: f64::NAN,
        at_3km: 0.0,
        at_5km: 0.0,
        n: 0,
        coverage: outcome.coverage,
    })
}

/// Trains + evaluates EDGE (point metrics); also returns the mixture pairs
/// needed by RDP.
pub fn run_edge(
    dataset: &Dataset,
    config: &EdgeConfig,
) -> (DistanceReport, Vec<(GaussianMixture, Point)>) {
    let (train, test) = dataset.paper_split();
    let ner = dataset_recognizer(dataset);
    let (model, _) =
        EdgeModel::train(train, ner, &dataset.bbox, config.clone(), &TrainOptions::default())
            .expect("train");
    let outcome = model.evaluate(test, &PredictOptions::default());
    let report = outcome.report().expect("EDGE produced no predictions");
    let mixtures = outcome.pairs.into_iter().map(|(p, t)| (p.mixture, t)).collect();
    (report, mixtures)
}

/// Runs one method by name on one dataset. Method names match the paper's
/// tables exactly.
pub fn run_method(dataset: &Dataset, method: &str, config: &HarnessConfig) -> MethodResult {
    let (train, test) = dataset.paper_split();
    let grid = Grid::new(dataset.bbox, config.grid_cells, config.grid_cells);
    let scale_km = {
        let (ew, ns) = dataset.bbox.dims_km();
        (ew * ew + ns * ns).sqrt() / 2.0
    };
    let report = match method {
        "EDGE" => run_edge(dataset, &config.edge).0,
        "BOW" => {
            let model = BowModel::train(train, &dataset.bbox, &config.edge, 4000);
            eval_geolocator(&model, test)
        }
        "NoGCN" => run_edge(dataset, &config.edge.clone().ablation_no_gcn()).0,
        "SUM" => run_edge(dataset, &config.edge.clone().ablation_sum()).0,
        "NoMixture" => run_edge(dataset, &config.edge.clone().ablation_no_mixture()).0,
        "LocKDE" => {
            let m = LocKde::fit(train, grid, scale_km, config.lockde);
            eval_geolocator(&m, test)
        }
        "UnicodeCNN" => {
            let m = UnicodeCnn::fit(train, &dataset.bbox, config.unicode.clone());
            eval_geolocator(&m, test)
        }
        "NaiveBayes" => {
            let m = NaiveBayes::fit(train, grid);
            eval_geolocator(&m, test)
        }
        "Kullback-Leibler" => {
            let m = KullbackLeibler::fit(train, grid);
            eval_geolocator(&m, test)
        }
        "NaiveBayes_kde2d" | "Kullback-Leibler_kde2d" => {
            // Share the expensive smoothing when both are requested via
            // run_method_set; standalone calls pay it once.
            let counts = GridCounts::fit(train, grid).smoothed(config.kde2d_bandwidth);
            if method == "NaiveBayes_kde2d" {
                eval_geolocator(&NaiveBayes::from_counts(counts, method), test)
            } else {
                eval_geolocator(&KullbackLeibler::from_counts(counts, method), test)
            }
        }
        "Hyper-local" => {
            let m = HyperLocal::fit(train, config.hyperlocal);
            eval_geolocator(&m, test)
        }
        other => panic!("unknown method '{other}'"),
    };
    MethodResult { method: method.to_string(), dataset: dataset.name.clone(), report }
}

/// The method names of a set, in the paper's table order.
pub fn method_names(set: MethodSet) -> Vec<&'static str> {
    match set {
        MethodSet::Comparison => vec![
            "LocKDE",
            "UnicodeCNN",
            "NaiveBayes",
            "Kullback-Leibler",
            "NaiveBayes_kde2d",
            "Kullback-Leibler_kde2d",
            "Hyper-local",
            "EDGE",
        ],
        MethodSet::Ablation => vec!["BOW", "NoGCN", "SUM", "NoMixture", "EDGE"],
    }
}

/// Runs a whole method set on one dataset.
pub fn run_method_set(
    dataset: &Dataset,
    set: MethodSet,
    config: &HarnessConfig,
) -> Vec<MethodResult> {
    method_names(set).into_iter().map(|m| run_method(dataset, m, config)).collect()
}

/// Multi-seed wrapper: reruns one method with reseeded model configs and
/// averages. Data stays fixed (the paper's repetitions are over model
/// randomness; the crawl is one corpus).
pub fn run_method_seeds(
    dataset: &Dataset,
    method: &str,
    config: &HarnessConfig,
    seeds: &[u64],
) -> MethodResult {
    assert!(!seeds.is_empty());
    // The classical baselines are deterministic — reseeding changes nothing
    // — so burn only one run on them.
    let deterministic = matches!(
        method,
        "LocKDE"
            | "NaiveBayes"
            | "Kullback-Leibler"
            | "NaiveBayes_kde2d"
            | "Kullback-Leibler_kde2d"
            | "Hyper-local"
    );
    let seeds = if deterministic { &seeds[..1] } else { seeds };
    let reports: Vec<DistanceReport> = seeds
        .iter()
        .map(|&s| {
            let mut c = config.clone();
            c.edge.seed = s;
            c.edge.sgns.seed = s ^ 0xbeef;
            c.unicode.seed = s;
            run_method(dataset, method, &c).report
        })
        .collect();
    MethodResult {
        method: method.to_string(),
        dataset: dataset.name.clone(),
        report: average_reports(&reports),
    }
}

/// RDP sweep for EDGE on a dataset (Figure 5): returns `(r, RDP(r))` pairs.
pub fn edge_rdp_sweep(
    dataset: &Dataset,
    config: &EdgeConfig,
    radii_km: &[f64],
    samples_per_tweet: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    let (_, mixtures) = run_edge(dataset, config);
    radii_km.iter().map(|&r| (r, rdp(&mixtures, r, samples_per_tweet, seed))).collect()
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`).
/// Returns 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One method's resource footprint in the end-to-end pipeline bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineBenchRecord {
    pub method: String,
    pub dataset: String,
    /// Worker threads the run fanned out to (`edge_par::num_threads()`).
    pub threads: usize,
    pub wall_secs: f64,
    /// Process peak RSS after the method ran. Peak RSS is monotone over the
    /// process lifetime, so per-method deltas show which stage grew it.
    pub peak_rss_mb: f64,
    pub mean_km: f64,
}

/// Times every method of `set` on `dataset`: wall time plus process peak RSS
/// after each method, for `results/BENCH_pipeline.json`.
pub fn run_pipeline_bench(
    dataset: &Dataset,
    set: MethodSet,
    config: &HarnessConfig,
) -> Vec<PipelineBenchRecord> {
    method_names(set)
        .into_iter()
        .map(|m| {
            let start = std::time::Instant::now();
            let r = run_method(dataset, m, config);
            PipelineBenchRecord {
                method: m.to_string(),
                dataset: dataset.name.clone(),
                threads: edge_par::num_threads(),
                wall_secs: start.elapsed().as_secs_f64(),
                peak_rss_mb: peak_rss_bytes() as f64 / (1024.0 * 1024.0),
                mean_km: r.report.mean_km,
            }
        })
        .collect()
}

/// One leg of the EDGE before/after speedup comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupLeg {
    /// Human-readable configuration label.
    pub label: String,
    /// Threads the leg ran with.
    pub threads: usize,
    /// End-to-end wall time (train + evaluate).
    pub wall_secs: f64,
    /// Seconds inside the optimization loop (sum of per-epoch wall times).
    pub train_secs: f64,
    /// Mean error — must agree across legs (accuracy parity).
    pub mean_km: f64,
    /// Steady-state heap allocations per training batch (minimum over all
    /// batches). `None` unless the `alloc-stats` counting allocator is
    /// compiled in. Zero for the arena legs; large for the fresh-alloc leg.
    #[serde(default)]
    pub allocs_per_batch: Option<u64>,
}

/// Before/after table for the training hot path: the same EDGE training run
/// under serial (1 thread), the fresh-alloc reference (no tape arena), the
/// persistent pool with arena reuse, and the pool with the SIMD kernels
/// forced off.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeSpeedup {
    pub legs: Vec<SpeedupLeg>,
    /// `serial train_secs / pooled train_secs` — the headline number. ~1.0
    /// on a single-core host.
    pub train_speedup: f64,
    /// `fresh-alloc train_secs / pooled train_secs` — what the tape arena
    /// buys at identical thread count and dispatch mode.
    #[serde(default)]
    pub arena_speedup: f64,
    /// `scalar-kernel train_secs / pooled train_secs` — what the AVX2
    /// kernels buy end to end. ~1.0 when SIMD is unavailable or disabled.
    #[serde(default)]
    pub simd_speedup: f64,
    /// Whether the AVX2 kernels were active for the non-scalar legs (false
    /// under `EDGE_NO_SIMD` or on hardware without AVX2+FMA, in which case
    /// the scalar leg is an exact replica of the pooled leg).
    #[serde(default)]
    pub simd_active: bool,
}

fn run_edge_leg(
    dataset: &Dataset,
    config: &EdgeConfig,
    label: &str,
    opts: &TrainOptions,
) -> SpeedupLeg {
    let (train, test) = dataset.paper_split();
    let ner = dataset_recognizer(dataset);
    let start = std::time::Instant::now();
    let (model, report) =
        EdgeModel::train(train, ner, &dataset.bbox, config.clone(), opts).expect("train");
    let outcome = model.evaluate(test, &PredictOptions::default());
    let wall_secs = start.elapsed().as_secs_f64();
    let dist = outcome.report().expect("EDGE produced no predictions");
    SpeedupLeg {
        label: label.to_string(),
        threads: edge_par::num_threads(),
        wall_secs,
        train_secs: report.train_loop_secs(),
        mean_km: dist.mean_km,
        allocs_per_batch: report.steady_batch_allocs,
    }
}

/// Takes the per-leg minimum of two interleaved measurement rounds. The
/// runs are deterministic, so accuracy and allocation counts must agree;
/// only the timings are noise and the minimum is the robust estimator.
fn merge_best(best: SpeedupLeg, next: SpeedupLeg) -> SpeedupLeg {
    assert_eq!(best.label, next.label);
    assert!(
        best.mean_km.to_bits() == next.mean_km.to_bits(),
        "{}: nondeterministic across rounds: {} vs {}",
        best.label,
        best.mean_km,
        next.mean_km
    );
    SpeedupLeg {
        wall_secs: best.wall_secs.min(next.wall_secs),
        train_secs: best.train_secs.min(next.train_secs),
        ..best
    }
}

/// Measures the hot-path speedups on EDGE training: serial (pool clamped to
/// 1 thread) vs fresh allocation (arena disabled) vs the persistent pool
/// with arena reuse vs the pool with scalar kernels forced, all at
/// identical seeds.
///
/// The first three legs run the bit-for-bit deterministic kernels, so their
/// `mean_km` must match exactly; the scalar-kernel leg swaps the geo vector
/// polynomials for libm and may drift by < 1e-6 km (and is exact too when
/// SIMD is off, since then it replicates the pooled leg).
///
/// Every leg is measured twice in interleaved rounds and the per-leg
/// minimum is kept: a single-shot ratio of two multi-second runs on a busy
/// CI host carries ±5% noise, which previously let `train_speedup` dip
/// below 1.0 even though the pooled leg executes strictly less work.
pub fn run_edge_speedup(dataset: &Dataset, config: &EdgeConfig) -> EdgeSpeedup {
    let opts = TrainOptions::default();
    let fresh_opts = TrainOptions { fresh_alloc: true, ..TrainOptions::default() };
    type Leg<'a> = (&'static str, Box<dyn Fn(&str) -> SpeedupLeg + 'a>);
    let legs_spec: Vec<Leg<'_>> = vec![
        (
            "serial (1 thread)",
            Box::new(|l: &str| {
                edge_par::with_max_threads(1, || run_edge_leg(dataset, config, l, &opts))
            }),
        ),
        (
            "fresh-alloc (no arena)",
            Box::new(|l: &str| run_edge_leg(dataset, config, l, &fresh_opts)),
        ),
        ("persistent pool", Box::new(|l: &str| run_edge_leg(dataset, config, l, &opts))),
        (
            "scalar kernels",
            Box::new(|l: &str| {
                edge_par::with_scalar_kernels(|| run_edge_leg(dataset, config, l, &opts))
            }),
        ),
    ];
    let mut best: Vec<Option<SpeedupLeg>> = (0..legs_spec.len()).map(|_| None).collect();
    for _round in 0..2 {
        for (slot, (label, run)) in best.iter_mut().zip(&legs_spec) {
            let leg = run(label);
            *slot = Some(match slot.take() {
                None => leg,
                Some(prev) => merge_best(prev, leg),
            });
        }
    }
    let legs: Vec<SpeedupLeg> = best.into_iter().map(|l| l.expect("measured")).collect();
    let pooled_secs = legs[2].train_secs.max(1e-9);
    EdgeSpeedup {
        train_speedup: legs[0].train_secs / pooled_secs,
        arena_speedup: legs[1].train_secs / pooled_secs,
        simd_speedup: legs[3].train_secs / pooled_secs,
        simd_active: edge_par::simd_active(),
        legs,
    }
}

/// Renders the EDGE speedup comparison as aligned text.
pub fn render_speedup_table(s: &EdgeSpeedup) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:>10} {:>11} {:>9} {:>12}\n",
        "Config", "Threads", "Wall(s)", "Train(s)", "Mean(km)", "Alloc/batch"
    ));
    for leg in &s.legs {
        let allocs = leg.allocs_per_batch.map_or_else(|| "-".to_string(), |a| a.to_string());
        out.push_str(&format!(
            "{:<22} {:>8} {:>10.2} {:>11.2} {:>9.2} {:>12}\n",
            leg.label, leg.threads, leg.wall_secs, leg.train_secs, leg.mean_km, allocs
        ));
    }
    out.push_str(&format!("train-loop speedup (serial / pooled): {:.2}x\n", s.train_speedup));
    out.push_str(&format!("arena speedup (fresh-alloc / pooled): {:.2}x\n", s.arena_speedup));
    out.push_str(&format!(
        "simd speedup (scalar kernels / pooled): {:.2}x (simd {})\n",
        s.simd_speedup,
        if s.simd_active { "on" } else { "off" }
    ));
    out
}

/// One microkernel's SIMD-vs-scalar throughput comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelLeg {
    /// Throughput with the vector kernels active (equals `scalar` when SIMD
    /// is unavailable or disabled).
    pub simd: f64,
    /// Throughput with the scalar reference kernels forced.
    pub scalar: f64,
    /// `simd / scalar`.
    pub speedup: f64,
}

/// The `simd_vs_scalar` section of `BENCH_pipeline.json`: single-thread
/// throughput of each vectorized microkernel against its scalar reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimdKernelBench {
    /// False under `EDGE_NO_SIMD` or without AVX2+FMA; the CI speedup gates
    /// only apply when true.
    pub simd_active: bool,
    /// Dense matmul GFLOP/s at (64×400)·(400×400) — the GCN-layer shape
    /// class. Bit-for-bit deterministic, so no FMA: the port-limited ceiling
    /// is ~2.3x the (SSE-autovectorized) scalar kernel, not the naive 8x.
    pub matmul_gflops: KernelLeg,
    /// Sparse×dense GFLOP/s at 1000×1000 (20k nnz) × 1000×256 — the
    /// diffusion-operator shape class. Also bit-for-bit deterministic.
    pub spmm_gflops: KernelLeg,
    /// Batched haversine throughput, millions of pairs/s. Accuracy-gated
    /// (vector polynomials vs libm), hence the larger headroom.
    pub haversine_mpairs: KernelLeg,
    /// Mixture-density evaluations (8 components), millions of pdf calls/s.
    /// Accuracy-gated like the haversine.
    pub mixture_pdf_meval: KernelLeg,
}

/// Runs `f` repeatedly for ~`budget` and returns the fastest per-iteration
/// time in seconds — the minimum is the standard noise-robust estimator for
/// a deterministic kernel.
fn best_iter_secs(budget: std::time::Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches, scratch buffers, and the pack-buffer pool
    let deadline = std::time::Instant::now() + budget;
    let mut best = f64::INFINITY;
    loop {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
        if std::time::Instant::now() >= deadline {
            return best;
        }
    }
}

fn kernel_leg(work_per_iter: f64, mut run: impl FnMut()) -> KernelLeg {
    const BUDGET: std::time::Duration = std::time::Duration::from_millis(200);
    let simd_secs = best_iter_secs(BUDGET, &mut run);
    let scalar_secs = edge_par::with_scalar_kernels(|| best_iter_secs(BUDGET, &mut run));
    let simd = work_per_iter / simd_secs;
    let scalar = work_per_iter / scalar_secs;
    KernelLeg { simd, scalar, speedup: simd / scalar }
}

/// Measures the `simd_vs_scalar` microkernel section: every kernel pair runs
/// single-threaded (the parallel dimension is covered by the speedup legs)
/// over the same inputs, SIMD first, then under the scalar-kernel override.
pub fn run_simd_kernel_bench() -> SimdKernelBench {
    use edge_tensor::{CsrMatrix, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x51_3D);

    edge_par::with_max_threads(1, || {
        let (n, k, m) = (64, 400, 400);
        let a = Matrix::random_uniform(n, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, m, 1.0, &mut rng);
        let mut out = Matrix::zeros(n, m);
        let matmul_gflops = kernel_leg(2.0 * (n * k * m) as f64 / 1e9, || {
            a.matmul_into(&b, &mut out);
        });

        let (rows, cols, nnz, width) = (1000, 1000, 20_000, 256);
        let triplets: Vec<(usize, usize, f32)> = (0..nnz)
            .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols), rng.gen_range(-1.0f32..1.0)))
            .collect();
        let sparse = CsrMatrix::from_triplets(rows, cols, &triplets);
        let dense = Matrix::random_uniform(cols, width, 1.0, &mut rng);
        let mut sout = Matrix::zeros(rows, width);
        let spmm_gflops = kernel_leg(2.0 * (sparse.nnz() * width) as f64 / 1e9, || {
            sparse.matmul_dense_into(&dense, &mut sout);
        });

        let pairs: Vec<(edge_geo::Point, edge_geo::Point)> = (0..4096)
            .map(|_| {
                (
                    edge_geo::Point::new(rng.gen_range(-80.0..80.0), rng.gen_range(-179.0..179.0)),
                    edge_geo::Point::new(rng.gen_range(-80.0..80.0), rng.gen_range(-179.0..179.0)),
                )
            })
            .collect();
        let haversine_mpairs = kernel_leg(pairs.len() as f64 / 1e6, || {
            std::hint::black_box(edge_geo::haversine_km_batch(&pairs));
        });

        let mix = edge_geo::GaussianMixture::new(
            (0..8)
                .map(|_| {
                    (
                        rng.gen_range(0.1..1.0),
                        edge_geo::BivariateGaussian::new(
                            edge_geo::Point::new(
                                rng.gen_range(40.0..41.0),
                                rng.gen_range(-75.0..-74.0),
                            ),
                            rng.gen_range(0.01..0.2),
                            rng.gen_range(0.01..0.2),
                            rng.gen_range(-0.5..0.5),
                        ),
                    )
                })
                .collect(),
        );
        let queries: Vec<edge_geo::Point> = (0..1024)
            .map(|_| edge_geo::Point::new(rng.gen_range(40.0..41.0), rng.gen_range(-75.0..-74.0)))
            .collect();
        let mixture_pdf_meval = kernel_leg(queries.len() as f64 / 1e6, || {
            // The mode search's density loop: the SoA evaluator when the
            // vector kernels are active, the scalar pdf otherwise.
            match edge_geo::simd::MixtureEval::new(&mix) {
                Some(eval) => {
                    for q in &queries {
                        std::hint::black_box(eval.pdf(q));
                    }
                }
                None => {
                    for q in &queries {
                        std::hint::black_box(mix.pdf(q));
                    }
                }
            }
        });

        SimdKernelBench {
            simd_active: edge_par::simd_active(),
            matmul_gflops,
            spmm_gflops,
            haversine_mpairs,
            mixture_pdf_meval,
        }
    })
}

/// Renders the SIMD microkernel comparison as aligned text.
pub fn render_simd_table(s: &SimdKernelBench) -> String {
    let mut out = format!(
        "SIMD microkernels (single thread, simd {}):\n{:<28} {:>10} {:>10} {:>9}\n",
        if s.simd_active { "on" } else { "off" },
        "Kernel",
        "SIMD",
        "Scalar",
        "Speedup"
    );
    for (name, leg) in [
        ("matmul (GFLOP/s)", &s.matmul_gflops),
        ("spmm (GFLOP/s)", &s.spmm_gflops),
        ("haversine (Mpairs/s)", &s.haversine_mpairs),
        ("mixture pdf (Meval/s)", &s.mixture_pdf_meval),
    ] {
        out.push_str(&format!(
            "{:<28} {:>10.2} {:>10.2} {:>8.2}x\n",
            name, leg.simd, leg.scalar, leg.speedup
        ));
    }
    out
}

/// Renders the pipeline bench as aligned text.
pub fn render_pipeline_table(records: &[PipelineBenchRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<24} {:>7} {:>10} {:>13} {:>9}\n",
        "Dataset", "Algorithm", "Threads", "Wall(s)", "PeakRSS(MB)", "Mean(km)"
    ));
    for r in records {
        out.push_str(&format!(
            "{:<12} {:<24} {:>7} {:>10.2} {:>13.1} {:>9.2}\n",
            r.dataset, r.method, r.threads, r.wall_secs, r.peak_rss_mb, r.mean_km
        ));
    }
    out
}

/// Renders a `MethodResult` table as aligned text (the shape of Table III).
pub fn render_table(results: &[MethodResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<24} {:>9} {:>11} {:>8} {:>8} {:>9}\n",
        "Dataset", "Algorithm", "Mean(km)", "Median(km)", "@3km", "@5km", "coverage"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<12} {:<24} {:>9.2} {:>11.2} {:>8.4} {:>8.4} {:>8.1}%\n",
            r.dataset,
            r.method,
            r.report.mean_km,
            r.report.median_km,
            r.report.at_3km,
            r.report.at_5km,
            r.report.coverage * 100.0
        ));
    }
    out
}

/// Writes results JSON next to a text rendering under `results/`.
///
/// The directory is created if absent and both files go through the
/// crash-safe temp-file + fsync + rename path, so an interrupted run can
/// tear neither a previous result nor the one being written.
pub fn write_results(name: &str, json: &impl Serialize, text: &str) -> std::io::Result<()> {
    let dir = Path::new("results");
    edge_faults::fsio::atomic_write(
        dir.join(format!("{name}.json")),
        serde_json::to_string_pretty(json)?.as_bytes(),
    )?;
    edge_faults::fsio::atomic_write(dir.join(format!("{name}.txt")), text.as_bytes())?;
    Ok(())
}

/// Parses the common `--size` / `--seeds` CLI arguments of the table/figure
/// binaries. Defaults: smoke size (fast), 1 seed. Pass `--size default`
/// and `--seeds 3` for the EXPERIMENTS.md runs, `--size paper` for the
/// paper-scale corpus.
pub fn parse_cli() -> (edge_data::PresetSize, Vec<u64>) {
    let args: Vec<String> = std::env::args().collect();
    let mut size = edge_data::PresetSize::Smoke;
    let mut n_seeds = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                i += 1;
                size = match args.get(i).map(String::as_str) {
                    Some("paper") => edge_data::PresetSize::Paper,
                    Some("default") => edge_data::PresetSize::Default,
                    Some("smoke") | None => edge_data::PresetSize::Smoke,
                    Some(other) => panic!("unknown --size '{other}'"),
                };
            }
            "--seeds" => {
                i += 1;
                n_seeds = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(1);
            }
            other => panic!("unknown argument '{other}' (expected --size/--seeds)"),
        }
        i += 1;
    }
    (size, (0..n_seeds as u64).map(|s| 42 + s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{nyma, PresetSize};

    #[test]
    fn average_reports_is_fieldwise_mean() {
        let a = DistanceReport {
            mean_km: 2.0,
            median_km: 1.0,
            at_3km: 0.5,
            at_5km: 0.6,
            n: 10,
            coverage: 1.0,
        };
        let b = DistanceReport {
            mean_km: 4.0,
            median_km: 3.0,
            at_3km: 0.7,
            at_5km: 0.8,
            n: 20,
            coverage: 0.8,
        };
        let avg = average_reports(&[a, b]);
        assert_eq!(avg.mean_km, 3.0);
        assert_eq!(avg.median_km, 2.0);
        assert!((avg.at_3km - 0.6).abs() < 1e-12);
        assert_eq!(avg.n, 15);
        assert!((avg.coverage - 0.9).abs() < 1e-12);
    }

    #[test]
    fn method_names_match_paper_tables() {
        let comparison = method_names(MethodSet::Comparison);
        assert_eq!(comparison.len(), 8);
        assert_eq!(*comparison.last().unwrap(), "EDGE");
        let ablation = method_names(MethodSet::Ablation);
        assert_eq!(ablation, vec!["BOW", "NoGCN", "SUM", "NoMixture", "EDGE"]);
    }

    #[test]
    fn run_method_produces_scores_for_every_method() {
        let d = nyma(PresetSize::Smoke, 51);
        let config = HarnessConfig::smoke();
        for m in ["NaiveBayes", "Hyper-local", "LocKDE"] {
            let r = run_method(&d, m, &config);
            assert_eq!(r.method, m);
            assert!(r.report.mean_km > 0.0, "{m}: {:?}", r.report);
            assert!(r.report.coverage > 0.2, "{m} coverage {}", r.report.coverage);
        }
    }

    #[test]
    #[should_panic(expected = "unknown method")]
    fn unknown_method_panics() {
        let d = nyma(PresetSize::Smoke, 52);
        let _ = run_method(&d, "Oracle", &HarnessConfig::smoke());
    }

    #[test]
    fn render_table_is_aligned() {
        let r = MethodResult {
            method: "EDGE".into(),
            dataset: "NYMA".into(),
            report: DistanceReport {
                mean_km: 6.21,
                median_km: 2.92,
                at_3km: 0.52,
                at_5km: 0.66,
                n: 100,
                coverage: 0.97,
            },
        };
        let txt = render_table(&[r]);
        assert!(txt.contains("EDGE"));
        assert!(txt.contains("6.21"));
        assert!(txt.lines().count() == 2);
    }
}
