//! Recommendation-workload characterization walkthrough (paper Sec. V).
//!
//! ```text
//! cargo run --release --example recsys_characterization
//! ```
//!
//! Sweeps one architecture knob at a time — table count, pooling factor,
//! MLP width — and reports where each configuration lands on the roofline,
//! then sizes an embedding cache against Zipf-skewed traffic.

use enw_core::numerics::rng::{Rng64, ZipfSampler};
use enw_core::recsys::cache::{EmbeddingCache, MemoryEnergy};
use enw_core::recsys::characterize::{profile_batched, Bound, RooflineMachine};
use enw_core::recsys::model::{Interaction, RecModelConfig};
use enw_core::report::{percent, Table};

fn base_config() -> RecModelConfig {
    RecModelConfig {
        dense_features: 64,
        bottom_mlp: vec![128, 64, 32],
        tables: vec![(500_000, 8); 8],
        embedding_dim: 32,
        top_mlp: vec![128, 64],
        interaction: Interaction::Concat,
    }
}

fn classify(cfg: &RecModelConfig, machine: &RooflineMachine) -> (f64, &'static str) {
    let p = profile_batched(cfg, 128);
    let emb_t = machine.time_seconds(&p.embeddings);
    let mlp_t = machine.time_seconds(&p.bottom_mlp)
        + machine.time_seconds(&p.top_mlp)
        + machine.time_seconds(&p.interaction);
    let share = emb_t / (emb_t + mlp_t);
    let label = match machine.bound(&p.total()) {
        Bound::Compute => "compute-bound",
        Bound::Memory => "memory-bound",
    };
    (share, label)
}

fn main() {
    let machine = RooflineMachine::server_cpu();
    println!(
        "machine: {:.1} TFLOP/s, {:.0} GB/s (balance {:.0} FLOP/B); batch 128\n",
        machine.peak_flops / 1e12,
        machine.mem_bandwidth / 1e9,
        machine.balance()
    );

    let mut sweep = Table::new(&["knob", "value", "embedding time share", "whole model"]);
    for &tables in &[2usize, 8, 32] {
        let mut cfg = base_config();
        cfg.tables = vec![(500_000, 8); tables];
        let (share, label) = classify(&cfg, &machine);
        sweep.row_owned(vec![
            "embedding tables".into(),
            format!("{tables}"),
            percent(share),
            label.into(),
        ]);
    }
    for &pooling in &[1usize, 8, 64] {
        let mut cfg = base_config();
        cfg.tables = vec![(500_000, pooling); 8];
        let (share, label) = classify(&cfg, &machine);
        sweep.row_owned(vec![
            "pooling factor".into(),
            format!("{pooling}"),
            percent(share),
            label.into(),
        ]);
    }
    for &width in &[64usize, 256, 1024] {
        let mut cfg = base_config();
        cfg.bottom_mlp = vec![width, width / 2, 32];
        cfg.top_mlp = vec![width, width / 2];
        let (share, label) = classify(&cfg, &machine);
        sweep.row_owned(vec!["MLP width".into(), format!("{width}"), percent(share), label.into()]);
    }
    println!("{}", sweep.render());

    println!("== sizing an embedding cache against Zipf traffic ==\n");
    let energy = MemoryEnergy::default();
    let mut cache_table =
        Table::new(&["cache rows", "% of catalogue", "hit rate", "effective pJ/B"]);
    let zipf = ZipfSampler::new(500_000, 1.0);
    for &capacity in &[500usize, 5_000, 50_000] {
        let mut rng = Rng64::new(3);
        let mut cache = EmbeddingCache::new(capacity, zipf.len());
        for _ in 0..100_000 {
            cache.access(zipf.sample(&mut rng));
        }
        let hr = cache.stats().hit_rate();
        cache_table.row_owned(vec![
            format!("{capacity}"),
            format!("{:.2}%", 100.0 * capacity as f64 / 500_000.0),
            percent(hr),
            format!("{:.2}", energy.effective_byte_pj(hr)),
        ]);
    }
    println!("{}", cache_table.render());
    println!("Takeaway: the knobs move the same skeleton between compute- and memory-bound —");
    println!("accelerators for this workload class must balance specialization with flexibility");
    println!("(paper Sec. V-B), and small caches buy a lot but never everything.");
}
