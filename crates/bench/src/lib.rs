//! Benchmark harness for the EDGE reproduction.
//!
//! The library half hosts the method-agnostic experiment plumbing
//! ([`harness`]); the `src/bin/` binaries regenerate every table and figure
//! of the paper's evaluation (see DESIGN.md §4 for the index), and
//! `benches/` holds the Criterion performance suites.

pub mod harness;

pub use harness::{
    average_reports, edge_rdp_sweep, method_names, parse_cli, peak_rss_bytes,
    render_adam_subnormal, render_matmul_levels, render_op_profile, render_par_split,
    render_pipeline_table, render_point_estimates, render_simd_table, render_speedup_table,
    render_table, run_ablation_seeds, run_adam_subnormal_bench, run_edge, run_edge_speedup,
    run_matmul_levels_bench, run_method, run_method_seeds, run_method_set, run_op_profile,
    run_par_split_bench, run_pipeline_bench, run_simd_kernel_bench, write_results, AblationResult,
    AdamSubnormalBench, EdgeSpeedup, HarnessConfig, KernelLeg, LevelGflops, MatmulLevels,
    MethodResult, MethodSet, OpProfileRow, ParSplit, PipelineBenchRecord, PointEstimateKm,
    SimdKernelBench, SpeedupLeg,
};
