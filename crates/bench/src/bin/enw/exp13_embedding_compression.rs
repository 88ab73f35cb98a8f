//! E13 — Reduced-precision embedding-table compression (paper Sec. V-B,
//! ref. \[65\]: "compress embedding tables by up to 16×"), with the quality
//! cost measured end-to-end as CTR drift through the same MLP stacks.

use crate::run::Run;
use enw_core::numerics::rng::Rng64;
use enw_core::numerics::stats::OnlineStats;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::quantize::QuantizedTable;
use enw_core::recsys::trace::TraceGenerator;
use enw_core::report::Table;

pub fn run(run: &mut Run) {
    let cfg = RecModelConfig {
        dense_features: 32,
        bottom_mlp: vec![64, 32],
        tables: vec![(20_000, 8); 8],
        embedding_dim: 32,
        top_mlp: vec![64],
        interaction: Interaction::Concat,
    };
    let mut rng = Rng64::new(13);
    let mut model = RecModel::new(&cfg, &mut rng);
    let gen = TraceGenerator::new(&cfg, 1.0);
    let queries = gen.batch(300, &mut rng);
    let fp32_bytes: u64 = model.tables().iter().map(|t| t.bytes()).sum();

    let mut table = Table::new(&[
        "precision",
        "table storage (MB)",
        "compression",
        "row RMSE (rel.)",
        "mean |dCTR|",
        "max |dCTR|",
    ]);
    table.row_owned(vec![
        "FP32".into(),
        format!("{:.1}", fp32_bytes as f64 / 1e6),
        "1.0x".into(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    for &bits in &[8u32, 4, 2] {
        let quantized: Vec<QuantizedTable> =
            model.tables().iter().map(|t| QuantizedTable::from_table(t, bits)).collect();
        let bytes: u64 = quantized.iter().map(|q| q.bytes()).sum();
        let rmse: f64 =
            quantized.iter().zip(model.tables()).map(|(q, t)| q.relative_rmse(t)).sum::<f64>()
                / quantized.len() as f64;
        // End-to-end CTR drift: same MLPs, quantized gathers.
        let originals: Vec<_> = model.tables().to_vec();
        let mut drift = OnlineStats::new();
        for q in &queries {
            let ctr_fp: f32 = {
                let pooled: Vec<Vec<f32>> =
                    originals.iter().zip(&q.sparse).map(|(t, idx)| t.lookup_pool(idx)).collect();
                model.predict_with_pooled(&q.dense, &pooled)
            };
            let ctr_q: f32 = {
                let pooled: Vec<Vec<f32>> =
                    quantized.iter().zip(&q.sparse).map(|(t, idx)| t.lookup_pool(idx)).collect();
                model.predict_with_pooled(&q.dense, &pooled)
            };
            drift.push((ctr_fp - ctr_q).abs() as f64);
        }
        table.row_owned(vec![
            format!("int{bits}"),
            format!("{:.1}", bytes as f64 / 1e6),
            format!("{:.1}x", fp32_bytes as f64 / bytes as f64),
            format!("{rmse:.4}"),
            format!("{:.4}", drift.mean()),
            format!("{:.4}", drift.max()),
        ]);
    }
    run.emit(&table);
    println!("Reading: int8 is essentially free; int4 costs little; int2 approaches the paper's");
    println!("16x compression with visible but bounded CTR drift. Even compressed, the tables");
    println!("remain far beyond on-chip storage — the paper's capacity point stands.");
}
