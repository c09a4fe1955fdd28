//! End-to-end pipeline resource bench: runs the Table III method set on one
//! corpus, recording per-method wall time and process peak RSS, plus the
//! metrics-layer counters (matmul/spmm FLOPs, tape ops, NER misses) for the
//! EDGE runs, a speedup table for EDGE training (serial vs fresh-alloc vs
//! the persistent `edge-par` pool vs forced scalar kernels), and the `simd_vs_scalar` microkernel comparison.
//!
//! Usage: `cargo run --release -p edge-bench --bin bench_pipeline [--size default]`
//!
//! Writes `results/BENCH_pipeline.{json,txt}`. The JSON is an object:
//! `{ "threads": N, "records": [...], "edge_speedup": {...},
//!    "simd_vs_scalar": {...} }`.

use edge_bench::{
    render_pipeline_table, render_simd_table, render_speedup_table, run_edge_speedup,
    run_pipeline_bench, run_simd_kernel_bench, HarnessConfig, MethodSet,
};
use edge_data::{nyma, PresetSize};
use serde::Serialize;

#[derive(Serialize)]
struct PipelineBenchOutput {
    /// Worker threads available to the pool for this run.
    threads: usize,
    records: Vec<edge_bench::PipelineBenchRecord>,
    edge_speedup: edge_bench::EdgeSpeedup,
    simd_vs_scalar: edge_bench::SimdKernelBench,
}

fn main() {
    let (size, seeds) = edge_bench::parse_cli();
    let config = match size {
        PresetSize::Smoke => HarnessConfig::smoke(),
        _ => HarnessConfig::default(),
    };
    // Counters stay on for the whole sweep so the snapshot aggregates the
    // kernel work (FLOPs, tape ops, NER misses) behind the wall-time numbers.
    edge_obs::set_metrics_enabled(true);
    edge_obs::metrics::reset();

    let dataset = nyma(size, seeds[0]);
    edge_obs::progress!(
        "== pipeline bench on {} ({} tweets, {} threads) ==",
        dataset.name,
        dataset.len(),
        edge_par::num_threads()
    );
    let records = run_pipeline_bench(&dataset, MethodSet::Comparison, &config);
    for r in &records {
        edge_obs::progress!(
            "   {:<24} {:>7.2}s  peak RSS {:>8.1} MB",
            r.method,
            r.wall_secs,
            r.peak_rss_mb
        );
    }

    edge_obs::progress!("== EDGE speedup (serial / fresh-alloc / pool / scalar) ==");
    let edge_speedup = run_edge_speedup(&dataset, &config.edge);

    edge_obs::progress!("== SIMD vs scalar microkernels ==");
    let simd_vs_scalar = run_simd_kernel_bench();

    let text = format!(
        "Pipeline bench ({size:?} scale): wall time + peak RSS per method\n{}\n\
         EDGE training dispatch comparison\n{}\n{}\n{}",
        render_pipeline_table(&records),
        render_speedup_table(&edge_speedup),
        render_simd_table(&simd_vs_scalar),
        edge_obs::metrics::snapshot().render()
    );
    print!("{text}");
    let output = PipelineBenchOutput {
        threads: edge_par::num_threads(),
        records,
        edge_speedup,
        simd_vs_scalar,
    };
    edge_bench::write_results("BENCH_pipeline", &output, &text).expect("write results");
    edge_obs::progress!("wrote results/BENCH_pipeline.{{json,txt}}");
}
