//! E8 — Cosine-GPU vs LSH-TCAM classification accuracy across N-way
//! K-shot settings (paper Fig. 5 inset, Sec. IV-B2).
//!
//! Also sweeps the LSH plane count: "the number of LSH hashing planes is a
//! hyper-parameter and is tuned until further increase does not further
//! improve accuracy".

use crate::run::Run;
use enw_core::mann::embedding::{EmbeddingConfig, EmbeddingNet};
use enw_core::mann::fewshot::{evaluate, SearchMethod};
use enw_core::mann::memory::Similarity;
use enw_core::nn::fewshot::{EpisodeSampler, FewShotDomain};
use enw_core::numerics::rng::Rng64;
use enw_core::report::{percent, Table};

const EPISODES: usize = 50;
const HOLDOUT_FROM: usize = 30;
const PLANES: usize = 256;

pub fn run(run: &mut Run) {
    let mut rng = Rng64::new(88);
    // Harder-than-default intra-class jitter so the precision/encoding
    // trade-offs are visible (the default domain saturates every method).
    let domain = FewShotDomain::generate_with(60, 64, 5, 0.3, 2.0, 0.12, &mut rng);
    let cfg = EmbeddingConfig {
        hidden: vec![96],
        embed_dim: 24,
        background_classes: HOLDOUT_FROM,
        samples_per_class: 40,
        epochs: 10,
        learning_rate: 0.05,
    };
    let mut net = EmbeddingNet::train(&domain, &cfg, &mut rng);

    // Plane-count sweep at the paper's 5-way 1-shot setting.
    let sweep_sampler = EpisodeSampler { n_way: 5, k_shot: 1, n_query: 5 };
    let mut sweep = Table::new(&["LSH planes", "accuracy"]);
    for &planes in &[8usize, 16, 32, 64, 128, 256, 512] {
        let out = evaluate(
            &mut net,
            &domain,
            sweep_sampler,
            HOLDOUT_FROM,
            SearchMethod::Lsh { planes },
            EPISODES,
            &mut Rng64::new(500),
        );
        sweep.row_owned(vec![format!("{planes}"), percent(out.accuracy)]);
    }
    println!("-- LSH plane-count sweep (5-way 1-shot) --");
    run.emit(&sweep);

    // The Fig. 5 inset grid: cosine vs LSH across task difficulty.
    let mut grid = Table::new(&["task", "cosine (FP32 GPU)", "LSH + Hamming (TCAM)", "gap"]);
    for &(n_way, k_shot) in &[(5usize, 1usize), (5, 5), (10, 1), (10, 5), (20, 1), (20, 5)] {
        let sampler = EpisodeSampler { n_way, k_shot, n_query: 3 };
        let cos = evaluate(
            &mut net,
            &domain,
            sampler,
            HOLDOUT_FROM,
            SearchMethod::Exact(Similarity::Cosine),
            EPISODES,
            &mut Rng64::new(600 + n_way as u64),
        );
        let lsh = evaluate(
            &mut net,
            &domain,
            sampler,
            HOLDOUT_FROM,
            SearchMethod::Lsh { planes: PLANES },
            EPISODES,
            &mut Rng64::new(600 + n_way as u64),
        );
        grid.row_owned(vec![
            format!("{n_way}-way {k_shot}-shot"),
            percent(cos.accuracy),
            percent(lsh.accuracy),
            format!("{:+.1} pts", 100.0 * (lsh.accuracy - cos.accuracy)),
        ]);
    }
    println!("-- cosine vs LSH across N-way K-shot settings (Fig. 5 inset) --");
    run.emit(&grid);
    println!("Reading: LSH accuracy saturates with plane count and approaches (sometimes");
    println!("matches) the cosine baseline; harder tasks (more ways, fewer shots) show the");
    println!("larger gaps — the paper's iso-accuracy caveat.");
}
