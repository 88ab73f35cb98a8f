//! E12 — Operator-level roofline characterization of recommendation
//! models (paper Sec. V-B): embedding operations sit orders of magnitude
//! below MLP operations in arithmetic intensity, flipping configurations
//! between compute- and memory-bound.

use crate::run::Run;
use enw_core::recsys::characterize::{profile_batched, Bound, RooflineMachine};
use enw_core::recsys::model::RecModelConfig;
use enw_core::report::Table;

const BATCH: u64 = 128;

pub fn run(run: &mut Run) {
    let machine = RooflineMachine::server_cpu();
    println!(
        "machine: {:.1} TFLOP/s peak, {:.0} GB/s bandwidth, balance point {:.1} FLOP/byte; batch {BATCH}\n",
        machine.peak_flops / 1e12,
        machine.mem_bandwidth / 1e9,
        machine.balance()
    );

    for (name, cfg) in [
        ("RM-compute (MLP-heavy)", RecModelConfig::compute_bound()),
        ("RM-memory (embedding-heavy)", RecModelConfig::memory_bound()),
    ] {
        let p = profile_batched(&cfg, BATCH);
        let mut table = Table::new(&[
            "operator",
            "GFLOPs/batch",
            "MB moved/batch",
            "FLOP/byte",
            "bound",
            "time share",
        ]);
        let rows = [
            ("bottom MLP", p.bottom_mlp),
            ("embeddings", p.embeddings),
            ("interaction", p.interaction),
            ("top MLP", p.top_mlp),
        ];
        let total_time: f64 = rows.iter().map(|(_, op)| machine.time_seconds(op)).sum();
        for (op_name, op) in rows {
            let bound = match machine.bound(&op) {
                Bound::Compute => "compute",
                Bound::Memory => "memory",
            };
            table.row_owned(vec![
                op_name.to_string(),
                format!("{:.3}", op.flops as f64 / 1e9),
                format!("{:.3}", op.bytes as f64 / 1e6),
                format!("{:.2}", op.intensity()),
                bound.to_string(),
                format!("{:.0}%", 100.0 * machine.time_seconds(&op) / total_time),
            ]);
        }
        println!("-- {name} --");
        run.emit(&table);
        let intensity_gap =
            p.bottom_mlp.intensity() / p.embeddings.intensity().max(f64::MIN_POSITIVE);
        println!("MLP-vs-embedding intensity gap: {intensity_gap:.0}x\n");
    }
    println!("Reading: in the embedding-heavy configuration the gather/pool operators are deep");
    println!("in the memory-bound region and dominate execution time; in the MLP-heavy one the");
    println!("dense stacks dominate — the paper's compute- vs memory-bound dichotomy.");
}
