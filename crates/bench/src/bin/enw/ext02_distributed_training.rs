//! EXT-2 (extension beyond the paper's tables) — the distributed-training
//! balance of paper Sec. V-B: "efficient training requires carefully
//! balancing compute, memory, and network communication", with models
//! "re-trained on hourly and daily intervals".
//!
//! Sweeps worker count and network bandwidth for the compute-bound and
//! memory-bound model configurations, reporting the per-step phase
//! breakdown, the bottleneck resource, and whether a production-scale
//! refresh fits an hourly retraining window.

use crate::run::Run;
use enw_core::recsys::model::RecModelConfig;
use enw_core::recsys::training::{retraining_time, step_breakdown, Cluster};
use enw_core::report::Table;

const BATCH: u64 = 8192;
/// Samples per refresh: a production-like stream slice.
const SAMPLES_PER_REFRESH: u64 = 2_000_000_000;

pub fn run(run: &mut Run) {
    println!("== EXT-2 [extension of Sec. V-B: distributed training balance] ==");
    println!("claim: training flips between compute-, memory- and network-bound; refresh");
    println!("windows constrain cluster sizing\n");

    for (name, cfg) in [
        ("RM-compute (MLP-heavy)", RecModelConfig::compute_bound()),
        ("RM-memory (embedding-heavy)", RecModelConfig::memory_bound()),
    ] {
        let mut table = Table::new(&[
            "workers",
            "net BW (Gb/s)",
            "compute ms/step",
            "memory ms/step",
            "network ms/step",
            "bottleneck",
            "2B-sample refresh (h)",
            "fits hourly window",
        ]);
        for &workers in &[8usize, 32, 128] {
            for &gbps in &[25.0f64, 100.0] {
                let mut cluster = Cluster::cpu_cluster(workers);
                cluster.net_bw_per_worker = gbps * 1e9 / 8.0;
                let b = step_breakdown(&cfg, BATCH, &cluster);
                let refresh_h =
                    retraining_time(&cfg, SAMPLES_PER_REFRESH, BATCH, &cluster) / 3600.0;
                table.row_owned(vec![
                    format!("{workers}"),
                    format!("{gbps:.0}"),
                    format!("{:.3}", b.compute_s * 1e3),
                    format!("{:.3}", b.memory_s * 1e3),
                    format!("{:.3}", b.network_s * 1e3),
                    b.bottleneck().to_string(),
                    format!("{refresh_h:.2}"),
                    if refresh_h <= 1.0 { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
        println!("-- {name} (global batch {BATCH}) --");
        run.emit(&table);
    }
    println!("Reading: the embedding-heavy model is memory/network-bound and needs either more");
    println!("workers or faster fabric to fit hourly refreshes; the MLP-heavy model scales with");
    println!("compute — no single accelerator design serves both, the paper's closing point.");
}
