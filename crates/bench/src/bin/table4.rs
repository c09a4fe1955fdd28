//! Regenerates **Table IV**: the ablation study — BOW, NoGCN, SUM,
//! NoMixture vs the full EDGE model on all three datasets. Each cell's JSON
//! record also carries its mean error under three point estimates of the
//! predicted mixture: the Eq. 14 mode, the mixture mean and the dominant
//! component's μ.
//!
//! Usage: `cargo run --release -p edge-bench --bin table4 [--size default] [--seeds 3]`

use edge_bench::{
    method_names, render_point_estimates, render_table, run_ablation_seeds, AblationResult,
    HarnessConfig, MethodResult, MethodSet,
};
use edge_data::{covid19, lama, nyma, PresetSize};

fn main() {
    let (size, seeds) = edge_bench::parse_cli();
    let config = match size {
        PresetSize::Smoke => HarnessConfig::smoke(),
        _ => HarnessConfig::default(),
    };

    let mut results: Vec<AblationResult> = Vec::new();
    for dataset in [nyma(size, seeds[0]), lama(size, seeds[0]), covid19(size, seeds[0])] {
        edge_obs::progress!("== {} ({} tweets) ==", dataset.name, dataset.len());
        for method in method_names(MethodSet::Ablation) {
            let r = run_ablation_seeds(&dataset, method, &config, &seeds);
            edge_obs::progress!(
                "   {:<12} mean {:>7.2} km  median {:>7.2} km  @3km {:.4}  @5km {:.4}  \
                 mean by mode/mixmean/dommu {:.2}/{:.2}/{:.2} km",
                r.method,
                r.report.mean_km,
                r.report.median_km,
                r.report.at_3km,
                r.report.at_5km,
                r.point_estimates.mode,
                r.point_estimates.mixture_mean,
                r.point_estimates.dominant_mu
            );
            results.push(r);
        }
    }

    let cells: Vec<MethodResult> = results
        .iter()
        .map(|r| MethodResult {
            method: r.method.clone(),
            dataset: r.dataset.clone(),
            report: r.report,
        })
        .collect();
    let text = format!(
        "Table IV: Ablation study ({size:?} scale, {} seed(s))\n{}\n\
         Mean(km) by point estimate of the predicted mixture\n{}",
        seeds.len(),
        render_table(&cells),
        render_point_estimates(&results)
    );
    print!("{text}");
    edge_bench::write_results("table4", &results, &text).expect("write results");
    edge_obs::progress!("wrote results/table4.{{json,txt}}");
}
