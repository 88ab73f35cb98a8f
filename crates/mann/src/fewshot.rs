//! Few-shot classification harness: one evaluation loop, four search
//! back-ends (paper Sec. IV-B).
//!
//! Every method classifies a query by retrieving the most similar support
//! example in embedding space; they differ in *how* the search executes:
//!
//! * [`SearchMethod::Exact`] — full-precision similarity over all stored
//!   vectors: the GPU-backed-by-DRAM baseline.
//! * [`SearchMethod::Quantized`] — same search on fixed-point embeddings.
//! * [`SearchMethod::RangeEncoded`] — the combined L∞+L2 TCAM approach
//!   \[48\]: BRGC-encoded fixed-point levels, L∞ cube queries of growing
//!   radius until the TCAM matches, exact L2 tie-break among matches.
//! * [`SearchMethod::Lsh`] — LSH binary signatures searched by Hamming
//!   distance \[9\]: one parallel TCAM search, no cube growth.

use crate::embedding::Embedder;
use crate::encoding::{cube_pattern, encode_levels};
use crate::lsh::RandomHyperplaneLsh;
use crate::memory::Similarity;
use enw_nn::fewshot::{Episode, EpisodeSampler, FewShotDomain};
use enw_numerics::bits::BitVec;
use enw_numerics::quant::Quantizer;
use enw_numerics::rng::Rng64;

/// How the memory search is performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchMethod {
    /// Full-precision nearest neighbour under the given similarity.
    Exact(Similarity),
    /// Fixed-point nearest neighbour: embeddings quantized to `bits`.
    Quantized {
        /// Fixed-point precision.
        bits: u32,
        /// Distance metric applied to the quantized values.
        metric: Similarity,
    },
    /// BRGC range encoding with growing L∞ cubes and L2 tie-break.
    RangeEncoded {
        /// Fixed-point precision (per-dimension level bits).
        bits: u32,
    },
    /// LSH signatures with Hamming-distance search.
    Lsh {
        /// Number of hyperplanes (signature bits).
        planes: usize,
    },
}

/// Outcome of a few-shot evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FewShotOutcome {
    /// Mean classification accuracy over all query points.
    pub accuracy: f64,
    /// Mean number of parallel memory searches per query (1 for exact,
    /// quantized and LSH; ≥ 1 for range encoding, which grows cubes).
    pub searches_per_query: f64,
}

/// Runs `episodes` N-way K-shot episodes with the given search method.
///
/// Support/query samples come from the *held-out* tail of the domain
/// (classes ≥ `holdout_from`), so the embedding never saw them.
///
/// # Panics
///
/// Panics if the held-out class range is smaller than `sampler.n_way`.
pub fn evaluate<E: Embedder>(
    net: &mut E,
    domain: &FewShotDomain,
    sampler: EpisodeSampler,
    holdout_from: usize,
    method: SearchMethod,
    episodes: usize,
    rng: &mut Rng64,
) -> FewShotOutcome {
    let holdout_classes = domain.num_classes() - holdout_from;
    assert!(
        holdout_classes >= sampler.n_way,
        "only {holdout_classes} held-out classes for {}-way episodes",
        sampler.n_way
    );
    // LSH planes are drawn once and shared across episodes (they are part
    // of the deployed network, not per-episode state).
    let lsh = match method {
        SearchMethod::Lsh { planes } => {
            Some(RandomHyperplaneLsh::new(planes, net.embed_dim(), rng))
        }
        _ => None,
    };
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut searches = 0u64;
    for _ in 0..episodes {
        let episode = sample_holdout_episode(domain, sampler, holdout_from, rng);
        let support: Vec<(Vec<f32>, usize)> =
            episode.support.iter().map(|(x, l)| (net.embed(x), *l)).collect();
        for (xq, label) in &episode.query {
            let q = net.embed(xq);
            let (pred, n_searches) = classify(&q, &support, method, lsh.as_ref());
            if pred == *label {
                correct += 1;
            }
            total += 1;
            searches += n_searches;
        }
    }
    FewShotOutcome {
        accuracy: correct as f64 / total as f64,
        searches_per_query: searches as f64 / total as f64,
    }
}

/// Samples an episode restricted to the held-out classes.
fn sample_holdout_episode(
    domain: &FewShotDomain,
    sampler: EpisodeSampler,
    holdout_from: usize,
    rng: &mut Rng64,
) -> Episode {
    let holdout = domain.num_classes() - holdout_from;
    let picked = rng.sample_indices(holdout, sampler.n_way);
    let mut support = Vec::with_capacity(sampler.n_way * sampler.k_shot);
    let mut query = Vec::with_capacity(sampler.n_way * sampler.n_query);
    for (local, &offset) in picked.iter().enumerate() {
        let cid = holdout_from + offset;
        for _ in 0..sampler.k_shot {
            support.push((domain.sample(cid, rng), local));
        }
        for _ in 0..sampler.n_query {
            query.push((domain.sample(cid, rng), local));
        }
    }
    Episode { support, query }
}

/// Classifies one embedded query against embedded supports; returns the
/// predicted label and the number of parallel searches used.
///
/// # Panics
///
/// Panics if `support` is empty, or if `method` is [`SearchMethod::Lsh`]
/// and no prepared encoder is supplied.
pub fn classify(
    query: &[f32],
    support: &[(Vec<f32>, usize)],
    method: SearchMethod,
    lsh: Option<&RandomHyperplaneLsh>,
) -> (usize, u64) {
    assert!(!support.is_empty(), "empty support set");
    match method {
        SearchMethod::Exact(sim) => {
            let mut best = (f32::NEG_INFINITY, 0usize);
            for (s, label) in support {
                let score = sim.score(query, s);
                if score > best.0 {
                    best = (score, *label);
                }
            }
            (best.1, 1)
        }
        SearchMethod::Quantized { bits, metric } => {
            let q = fit_episode_quantizer(bits, query, support);
            let dq: Vec<f32> = query.iter().map(|&v| q.round_trip(v)).collect();
            let mut best = (f32::NEG_INFINITY, 0usize);
            for (s, label) in support {
                let ds: Vec<f32> = s.iter().map(|&v| q.round_trip(v)).collect();
                let score = metric.score(&dq, &ds);
                if score > best.0 {
                    best = (score, *label);
                }
            }
            (best.1, 1)
        }
        SearchMethod::RangeEncoded { bits } => {
            let q = fit_episode_quantizer(bits, query, support);
            let q_levels = q.to_levels(query);
            let stored: Vec<(Vec<u32>, BitVec, usize)> = support
                .iter()
                .map(|(s, label)| {
                    let levels = q.to_levels(s);
                    let code = encode_levels(&levels, bits);
                    (levels, code, *label)
                })
                .collect();
            let max_level = (1u32 << bits) - 1;
            let mut n_searches = 0u64;
            for radius in 0..=max_level {
                n_searches += 1;
                let pattern = cube_pattern(&q_levels, radius, bits);
                // All stored words inside the cube (one parallel TCAM op).
                let hits: Vec<&(Vec<u32>, BitVec, usize)> =
                    stored.iter().filter(|(_, code, _)| pattern.matches(code)).collect();
                if !hits.is_empty() {
                    // L2 tie-break among the cube hits (the SFU step of the
                    // combined L∞+L2 method).
                    let mut best = (f64::INFINITY, hits[0].2);
                    for (levels, _, label) in hits {
                        let d2: f64 = levels
                            .iter()
                            .zip(&q_levels)
                            .map(|(&a, &b)| {
                                let d = a as f64 - b as f64;
                                d * d
                            })
                            .sum();
                        if d2 < best.0 {
                            best = (d2, *label);
                        }
                    }
                    return (best.1, n_searches);
                }
            }
            // The full-range cube matches everything, so this is
            // unreachable; fall back defensively.
            (stored[0].2, n_searches)
        }
        SearchMethod::Lsh { .. } => {
            #[expect(clippy::expect_used, reason = "documented contract: see # Panics of classify")]
            let lsh = lsh.expect("LSH method requires a prepared encoder");
            let sig_q = lsh.encode(query);
            let mut best = (usize::MAX, 0usize);
            for (s, label) in support {
                let d = sig_q.hamming(&lsh.encode(s));
                if d < best.0 {
                    best = (d, *label);
                }
            }
            (best.1, 1)
        }
    }
}

/// Per-episode quantizer fitted over the query and every support vector —
/// the "convert floating point features to fixed point" step of \[48\].
fn fit_episode_quantizer(bits: u32, query: &[f32], support: &[(Vec<f32>, usize)]) -> Quantizer {
    let mut all: Vec<f32> = query.to_vec();
    for (s, _) in support {
        all.extend_from_slice(s);
    }
    Quantizer::fit(bits, &all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{EmbeddingConfig, EmbeddingNet};

    fn setup(seed: u64) -> (EmbeddingNet, FewShotDomain, Rng64) {
        let mut rng = Rng64::new(seed);
        let domain = FewShotDomain::generate(30, 48, &mut rng);
        let cfg = EmbeddingConfig {
            hidden: vec![48],
            embed_dim: 16,
            background_classes: 15,
            samples_per_class: 20,
            epochs: 6,
            learning_rate: 0.05,
        };
        let net = EmbeddingNet::train(&domain, &cfg, &mut rng);
        (net, domain, rng)
    }

    const SAMPLER: EpisodeSampler = EpisodeSampler { n_way: 5, k_shot: 1, n_query: 3 };

    #[test]
    fn exact_cosine_beats_chance_clearly() {
        let (mut net, domain, mut rng) = setup(1);
        let out = evaluate(
            &mut net,
            &domain,
            SAMPLER,
            15,
            SearchMethod::Exact(Similarity::Cosine),
            20,
            &mut rng,
        );
        assert!(out.accuracy > 0.5, "accuracy {} (chance 0.2)", out.accuracy);
        assert_eq!(out.searches_per_query, 1.0);
    }

    #[test]
    fn quantized_close_to_exact() {
        let (mut net, domain, mut rng) = setup(2);
        let exact = evaluate(
            &mut net,
            &domain,
            SAMPLER,
            15,
            SearchMethod::Exact(Similarity::NegL2),
            15,
            &mut Rng64::new(42),
        );
        let quant = evaluate(
            &mut net,
            &domain,
            SAMPLER,
            15,
            SearchMethod::Quantized { bits: 6, metric: Similarity::NegL2 },
            15,
            &mut Rng64::new(42),
        );
        let _ = &mut rng;
        assert!(
            quant.accuracy > exact.accuracy - 0.15,
            "quantized {} vs exact {}",
            quant.accuracy,
            exact.accuracy
        );
    }

    #[test]
    fn range_encoding_works_and_uses_multiple_searches() {
        let (mut net, domain, mut rng) = setup(3);
        let out = evaluate(
            &mut net,
            &domain,
            SAMPLER,
            15,
            SearchMethod::RangeEncoded { bits: 4 },
            15,
            &mut rng,
        );
        assert!(out.accuracy > 0.4, "accuracy {}", out.accuracy);
        assert!(out.searches_per_query >= 1.0);
    }

    #[test]
    fn lsh_accuracy_improves_with_planes() {
        let (mut net, domain, _) = setup(4);
        let few = evaluate(
            &mut net,
            &domain,
            SAMPLER,
            15,
            SearchMethod::Lsh { planes: 4 },
            20,
            &mut Rng64::new(7),
        );
        let many = evaluate(
            &mut net,
            &domain,
            SAMPLER,
            15,
            SearchMethod::Lsh { planes: 256 },
            20,
            &mut Rng64::new(7),
        );
        assert!(
            many.accuracy >= few.accuracy,
            "256 planes {} < 4 planes {}",
            many.accuracy,
            few.accuracy
        );
    }

    #[test]
    fn classify_single_support_is_trivial() {
        let support = vec![(vec![1.0f32, 0.0], 3usize)];
        let (pred, _) =
            classify(&[0.5, 0.5], &support, SearchMethod::Exact(Similarity::Cosine), None);
        assert_eq!(pred, 3);
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn empty_support_panics() {
        classify(&[1.0], &[], SearchMethod::Exact(Similarity::Cosine), None);
    }
}
