//! End-to-end pipeline resource bench: runs the Table III method set on one
//! corpus, recording per-method wall time and process peak RSS, plus the
//! metrics-layer counters (matmul/spmm FLOPs, tape ops, NER misses) for the
//! EDGE runs, a speedup table for EDGE training (serial vs fresh-alloc vs
//! the persistent `edge-par` pool vs forced scalar kernels), the
//! `simd_vs_scalar` microkernel comparison, the dense matmul's GFLOP/s at
//! every kernel level the host has on the two training shapes
//! (`matmul_levels`), one product above the pool's split threshold at one
//! and two threads (`par_split`), an Adam step with and without
//! subnormal first moments (`adam_subnormal`), and a per-op self-time table
//! (`op_profile`) from one traced EDGE training run after every timed leg.
//!
//! Usage: `cargo run --release -p edge-bench --bin bench_pipeline [--size default]`
//!
//! Writes `results/BENCH_pipeline.{json,txt}`. The JSON is an object:
//! `{ "threads": N, "records": [...], "edge_speedup": {...},
//!    "simd_vs_scalar": {...}, "matmul_levels": {...}, "par_split": {...},
//!    "adam_subnormal": {...},
//!    "op_profile": [...] }`.

use edge_bench::{
    render_adam_subnormal, render_matmul_levels, render_op_profile, render_par_split,
    render_pipeline_table, render_simd_table, render_speedup_table, run_adam_subnormal_bench,
    run_edge_speedup, run_matmul_levels_bench, run_op_profile, run_par_split_bench,
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
    /// Dense matmul GFLOP/s per kernel level at the training shapes.
    matmul_levels: edge_bench::MatmulLevels,
    /// One above-threshold product at one and two threads.
    par_split: edge_bench::ParSplit,
    adam_subnormal: edge_bench::AdamSubnormalBench,
    /// Per-span self time over one traced EDGE training, largest first.
    op_profile: Vec<edge_bench::OpProfileRow>,
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

    edge_obs::progress!("== dense matmul by kernel level ==");
    let matmul_levels = run_matmul_levels_bench();
    edge_obs::progress!("{}", render_matmul_levels(&matmul_levels).trim_end());

    edge_obs::progress!("== one product above the split threshold, 1 vs 2 threads ==");
    let par_split = run_par_split_bench();
    edge_obs::progress!("   {}", render_par_split(&par_split).trim_end());

    edge_obs::progress!("== Adam step with / without subnormal first moments ==");
    let adam_subnormal = run_adam_subnormal_bench();
    edge_obs::progress!("   {}", render_adam_subnormal(&adam_subnormal).trim_end());

    // The traced run stays out of the counters, which cover the timed legs.
    let metrics = edge_obs::metrics::snapshot().render();
    edge_obs::progress!("== per-op self time (one traced EDGE training) ==");
    let op_profile = run_op_profile(&dataset, &config.edge);

    let text = format!(
        "Pipeline bench ({size:?} scale): wall time + peak RSS per method\n{}\n\
         EDGE training dispatch comparison\n{}\n{}\n{}\n{}\n{}\n\
         Per-op self time, one traced EDGE training\n{}\n{}",
        render_pipeline_table(&records),
        render_speedup_table(&edge_speedup),
        render_simd_table(&simd_vs_scalar),
        render_matmul_levels(&matmul_levels),
        render_par_split(&par_split),
        render_adam_subnormal(&adam_subnormal),
        render_op_profile(&op_profile),
        metrics
    );
    print!("{text}");
    let output = PipelineBenchOutput {
        threads: edge_par::num_threads(),
        records,
        edge_speedup,
        simd_vs_scalar,
        matmul_levels,
        par_split,
        adam_subnormal,
        op_profile,
    };
    edge_bench::write_results("BENCH_pipeline", &output, &text).expect("write results");
    edge_obs::progress!("wrote results/BENCH_pipeline.{{json,txt}}");
}
