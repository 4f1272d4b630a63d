//! The `suite_quick` workload: the paper figure suite at quick scale.
//!
//! The untraced run calls `sgcn_bench::run_suite` itself. The traced run
//! calls the same experiment functions in the same order with a span around
//! each (`experiments.<name>`), and its render is checked against the
//! untraced one, so the mirror cannot drift from the suite unnoticed.

use std::fmt::Write as _;

use sgcn::experiments::{self as exp, ExperimentConfig};
use sgcn_graph::datasets::DatasetId;
use sgcn_model::GcnVariant;

use crate::spans::Tracer;

/// The suite's datasets (CR, PM, GH), as in the quick golden.
pub const DATASETS: [DatasetId; 3] = [DatasetId::Cora, DatasetId::PubMed, DatasetId::Github];

/// One span name per experiment call `run_suite` makes, in call order.
pub const EXPERIMENTS: [&str; 22] = [
    "experiments.fig01_sparsity_vs_layers",
    "experiments.fig02_per_layer_sparsity",
    "experiments.fig03_format_comparison",
    "experiments.table02_datasets",
    "experiments.fig11_performance",
    "experiments.fig12_ablation",
    "experiments.fig13_energy",
    "experiments.fig14_memory_breakdown",
    "experiments.fig15a_layer_sensitivity",
    "experiments.fig15b_cache_sensitivity",
    "experiments.fig16_variants_gin",
    "experiments.fig16_variants_sage",
    "experiments.fig17_slice_sensitivity",
    "experiments.fig18_scalability",
    "experiments.fig19_sparsity_sweep",
    "experiments.ablation_beicsr_design",
    "experiments.ablation_sac_strip",
    "experiments.ablation_cache_policy",
    "experiments.serving_fanout_sweep",
    "experiments.serving_lineup",
    "experiments.serving_batch_sweep",
    "experiments.queueing_grids",
];

/// `run_suite(cfg, DATASETS, quick = true)` with one span per experiment call.
pub fn traced_render(cfg: &ExperimentConfig, t: &mut Tracer) -> String {
    let ds = &DATASETS[..];
    let mut out = String::new();
    let mut emit = |t: &mut Tracer, name: &'static str, f: &dyn Fn() -> String| {
        let s = t.span(name, None, |_| f());
        writeln!(out, "{s}").expect("write to String");
    };
    emit(t, EXPERIMENTS[0], &|| {
        exp::fig01_sparsity_vs_layers(cfg, &[1, 3, 5, 10]).to_string()
    });
    emit(t, EXPERIMENTS[1], &|| {
        exp::fig02_per_layer_sparsity(cfg).to_string()
    });
    emit(t, EXPERIMENTS[2], &|| {
        let (traffic, speedup) = exp::fig03_format_comparison(cfg, ds);
        format!("{traffic}\n{speedup}")
    });
    emit(t, EXPERIMENTS[3], &|| {
        exp::table02_datasets(cfg).to_string()
    });
    emit(t, EXPERIMENTS[4], &|| {
        exp::fig11_performance(cfg, ds).to_string()
    });
    emit(t, EXPERIMENTS[5], &|| {
        exp::fig12_ablation(cfg, ds).to_string()
    });
    emit(t, EXPERIMENTS[6], &|| {
        exp::fig13_energy(cfg, ds).to_string()
    });
    emit(t, EXPERIMENTS[7], &|| {
        exp::fig14_memory_breakdown(cfg, DatasetId::Reddit).to_string()
    });
    emit(t, EXPERIMENTS[8], &|| {
        exp::fig15a_layer_sensitivity(cfg, &[4, 8]).to_string()
    });
    let base = cfg.cache_kib;
    emit(t, EXPERIMENTS[9], &|| {
        exp::fig15b_cache_sensitivity(cfg, &[base / 2, base, base * 2, base * 4, base * 8], ds)
            .to_string()
    });
    emit(t, EXPERIMENTS[10], &|| {
        exp::fig16_variants(cfg, ds, GcnVariant::GinConv { eps: 0.0 }).to_string()
    });
    emit(t, EXPERIMENTS[11], &|| {
        exp::fig16_variants(cfg, ds, GcnVariant::GraphSage { sample: 8 }).to_string()
    });
    emit(t, EXPERIMENTS[12], &|| {
        exp::fig17_slice_sensitivity(cfg, &[32, 64, 96, 128, 256], ds).to_string()
    });
    emit(t, EXPERIMENTS[13], &|| {
        exp::fig18_scalability(cfg, &[1, 2, 4, 8, 16, 32], DatasetId::Reddit).to_string()
    });
    emit(t, EXPERIMENTS[14], &|| {
        exp::fig19_sparsity_sweep(cfg, &[10, 50, 90], DatasetId::PubMed).to_string()
    });
    emit(t, EXPERIMENTS[15], &|| {
        exp::ablation_beicsr_design(cfg, ds).to_string()
    });
    emit(t, EXPERIMENTS[16], &|| {
        exp::ablation_sac_strip(cfg, &[8, 16, 32, 64, 128], ds).to_string()
    });
    emit(t, EXPERIMENTS[17], &|| {
        exp::ablation_cache_policy(cfg, ds).to_string()
    });
    emit(t, EXPERIMENTS[18], &|| {
        exp::serving_fanout_sweep(
            cfg,
            DatasetId::PubMed,
            &[vec![5, 3], vec![10, 5], vec![15, 10]],
            48,
        )
        .to_string()
    });
    emit(t, EXPERIMENTS[19], &|| {
        exp::serving_lineup(cfg, DatasetId::PubMed, 48).to_string()
    });
    emit(t, EXPERIMENTS[20], &|| {
        exp::serving_batch_sweep(cfg, DatasetId::PubMed, &[1, 4, 16, 64], 48).to_string()
    });
    emit(t, EXPERIMENTS[21], &|| {
        let g = exp::queueing_grids(
            cfg,
            DatasetId::PubMed,
            4,
            &[0.5, 0.9],
            &[1, 2, 4, 8],
            0.8,
            36,
        );
        [
            &g.policy, &g.engine, &g.traffic, &g.fleet, &g.lineup, &g.format, &g.failure,
            &g.classes, &g.shard,
        ]
        .map(|grid| grid.to_string())
        .join("\n")
    });
    out
}
