//! Quickstart: a five-minute tour of the workspace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Touches one piece of each paper section: trains a small classifier
//! digitally and on a simulated analog crossbar (Sec. II), performs
//! one-shot learning with a TCAM-backed key–value memory (Sec. III–IV),
//! and characterizes a recommendation model (Sec. V).

use enw_core::cam::array::TcamConfig;
use enw_core::cam::cells;
use enw_core::cam::lsh_memory::TcamKeyValueMemory;
use enw_core::crossbar::tile::TileConfig;
use enw_core::crossbar::{devices, train};
use enw_core::nn::activation::Activation;
use enw_core::nn::data::SyntheticImages;
use enw_core::nn::mlp::{Mlp, SgdConfig};
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::characterize::{profile_batched, RooflineMachine};
use enw_core::recsys::model::RecModelConfig;
use enw_core::report::percent;

fn main() {
    let mut rng = Rng64::new(2020);

    // --- Sec. II: the same network, digital vs analog crossbar ---
    println!("[1/3] training a classifier digitally and on simulated ECRAM crossbars...");
    let split = SyntheticImages::builder()
        .classes(5)
        .dim(64)
        .train_per_class(50)
        .test_per_class(20)
        .build(&mut rng);
    let cfg = SgdConfig { epochs: 4, learning_rate: 0.05 };

    let mut digital = Mlp::digital(&[64, 32, 5], Activation::Tanh, &mut rng);
    let acc_digital = train::train_and_evaluate(&mut digital, &split, &cfg, &mut rng).test_accuracy;

    let mut analog = train::analog_mlp(
        &[64, 32, 5],
        &devices::ecram(),
        TileConfig::default(), // 7-bit DAC, 9-bit ADC, read noise
        Activation::Tanh,
        &mut rng,
    );
    let acc_analog = train::train_and_evaluate(&mut analog, &split, &cfg, &mut rng).test_accuracy;
    println!(
        "      FP32: {}   analog ECRAM (stochastic pulses): {}\n",
        percent(acc_digital),
        percent(acc_analog)
    );

    // --- Sec. III–IV: one-shot learning in a TCAM memory ---
    println!("[2/3] one-shot learning with an LSH-signature TCAM memory...");
    let mut mem =
        TcamKeyValueMemory::new(32, 8, 128, cells::fefet_2t(), TcamConfig::default(), &mut rng);
    // One example per class.
    for class in 0..8usize {
        let mut key = vec![0.0f32; 8];
        key[class] = 1.0;
        mem.update(&key, class);
    }
    // Query with noisy versions.
    let mut correct = 0;
    for class in 0..8usize {
        let mut q = vec![0.05f32; 8];
        q[class] = 0.9;
        let (hit, _) = mem.retrieve(&q);
        if hit.expect("memory is non-empty").value == class {
            correct += 1;
        }
    }
    let cost = mem.total_cost();
    println!(
        "      {correct}/8 noisy queries correct after one example each; total hardware cost {:.1} nJ / {:.0} ns\n",
        cost.energy_pj / 1e3,
        cost.latency_ns
    );

    // --- Sec. V: what bounds a recommendation model? ---
    println!("[3/3] characterizing recommendation-model operators (batch 128)...");
    let machine = RooflineMachine::server_cpu();
    for (name, cfg) in [
        ("compute-bound config", RecModelConfig::compute_bound()),
        ("memory-bound config ", RecModelConfig::memory_bound()),
    ] {
        let p = profile_batched(&cfg, 128);
        println!(
            "      {name}: MLP intensity {:.1} FLOP/B, embedding intensity {:.2} FLOP/B (machine balance {:.0})",
            p.bottom_mlp.intensity(),
            p.embeddings.intensity(),
            machine.balance()
        );
    }
    println!("\nNext: `cargo run --release --bin enw -- list` lists every");
    println!("paper table/figure reproduction; see EXPERIMENTS.md for recorded results.");
}
