//! Synthetic recommendation-inference traces.
//!
//! Production traces (the paper's authors use Facebook's) are not
//! shippable; what the memory-system experiments need from them is the
//! *access-locality structure*: item popularity in recommendation
//! catalogues is Zipf-distributed, which concentrates embedding lookups on
//! a hot head while a long tail forces DRAM traffic. The generator
//! reproduces exactly that, with the exponent as the locality knob.

use crate::model::RecModelConfig;
use enw_numerics::rng::{Rng64, ZipfSampler};

/// One inference query: dense features plus per-table multi-hot indices.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseQuery {
    /// Continuous features.
    pub dense: Vec<f32>,
    /// Categorical indices, one list per embedding table.
    pub sparse: Vec<Vec<usize>>,
}

/// Generates queries matching a model configuration.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    dense_features: usize,
    /// One sampler per distinct table size: tables of equal size draw
    /// from the same distribution, so they share it.
    samplers: Vec<ZipfSampler>,
    /// Per table: its sampler's index in `samplers`, and its lookups.
    tables: Vec<(usize, usize)>,
}

impl TraceGenerator {
    /// Builds a generator for `cfg` with Zipf exponent `alpha`
    /// (0 = uniform access, ~1 = strongly skewed production-like).
    pub fn new(cfg: &RecModelConfig, alpha: f64) -> Self {
        let mut samplers: Vec<ZipfSampler> = Vec::new();
        let tables = cfg
            .tables
            .iter()
            .map(|&(rows, lookups)| {
                let shared = samplers.iter().position(|z| z.len() == rows);
                let sampler = shared.unwrap_or_else(|| {
                    samplers.push(ZipfSampler::new(rows, alpha));
                    samplers.len() - 1
                });
                (sampler, lookups)
            })
            .collect();
        TraceGenerator { dense_features: cfg.dense_features, samplers, tables }
    }

    /// Draws one query.
    pub fn query(&self, rng: &mut Rng64) -> SparseQuery {
        let dense = (0..self.dense_features).map(|_| rng.uniform_f32()).collect();
        let sparse = self
            .tables
            .iter()
            .map(|&(z, lookups)| (0..lookups).map(|_| self.samplers[z].sample(rng)).collect())
            .collect();
        SparseQuery { dense, sparse }
    }

    /// Draws a batch of queries.
    pub fn batch(&self, n: usize, rng: &mut Rng64) -> Vec<SparseQuery> {
        (0..n).map(|_| self.query(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RecModelConfig;

    fn cfg() -> RecModelConfig {
        RecModelConfig {
            dense_features: 4,
            bottom_mlp: vec![8],
            tables: vec![(1000, 5), (50, 2)],
            embedding_dim: 8,
            top_mlp: vec![8],
            interaction: crate::model::Interaction::Concat,
        }
    }

    #[test]
    fn query_shapes_match_config() {
        let g = TraceGenerator::new(&cfg(), 1.0);
        let mut rng = Rng64::new(1);
        let q = g.query(&mut rng);
        assert_eq!(q.dense.len(), 4);
        assert_eq!(q.sparse.len(), 2);
        assert_eq!(q.sparse[0].len(), 5);
        assert_eq!(q.sparse[1].len(), 2);
        assert!(q.sparse[0].iter().all(|&i| i < 1000));
        assert!(q.sparse[1].iter().all(|&i| i < 50));
    }

    #[test]
    fn zipf_skew_concentrates_accesses() {
        let g = TraceGenerator::new(&cfg(), 1.2);
        let mut rng = Rng64::new(2);
        let mut head_hits = 0usize;
        let mut total = 0usize;
        for q in g.batch(500, &mut rng) {
            for &i in &q.sparse[0] {
                if i < 50 {
                    head_hits += 1; // top 5% of a 1000-row table
                }
                total += 1;
            }
        }
        let frac = head_hits as f64 / total as f64;
        assert!(frac > 0.4, "hot head only got {frac} of accesses");
    }

    #[test]
    fn uniform_alpha_spreads_accesses() {
        let g = TraceGenerator::new(&cfg(), 0.0);
        let mut rng = Rng64::new(3);
        let mut head_hits = 0usize;
        let mut total = 0usize;
        for q in g.batch(500, &mut rng) {
            for &i in &q.sparse[0] {
                if i < 50 {
                    head_hits += 1;
                }
                total += 1;
            }
        }
        let frac = head_hits as f64 / total as f64;
        assert!((frac - 0.05).abs() < 0.03, "uniform head fraction {frac}");
    }

    /// FNV-1a over a batch's dense bits and sparse indices.
    fn digest(queries: &[SparseQuery]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let words = queries.iter().flat_map(|q| {
            let dense = q.dense.iter().map(|v| u64::from(v.to_bits()));
            dense.chain(q.sparse.iter().flatten().map(|&i| i as u64))
        });
        for w in words {
            for byte in w.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn equal_size_tables_share_one_sampler_and_draw_as_before() {
        let mut cfg = cfg();
        cfg.tables = vec![(1000, 5), (50, 2), (1000, 3), (50, 1), (1000, 4)];
        // Digests of 40-query batches drawn with one sampler per table,
        // each searching its own stored CDF.
        for (alpha, pinned) in [(0.0, 0x7c51_b523_628f_96ceu64), (1.05, 0x57f8_9ed6_31f0_c85f)] {
            let g = TraceGenerator::new(&cfg, alpha);
            let sizes: Vec<usize> = g.samplers.iter().map(ZipfSampler::len).collect();
            assert_eq!(sizes, [1000, 50], "alpha {alpha}");
            let shared: Vec<usize> = g.tables.iter().map(|&(z, _)| z).collect();
            assert_eq!(shared, [0, 1, 0, 1, 0], "alpha {alpha}");
            let batch = g.batch(40, &mut Rng64::new(17));
            assert_eq!(digest(&batch), pinned, "alpha {alpha}: {:#x}", digest(&batch));
        }
    }

    #[test]
    fn batches_have_requested_size() {
        let g = TraceGenerator::new(&cfg(), 0.8);
        let mut rng = Rng64::new(4);
        assert_eq!(g.batch(17, &mut rng).len(), 17);
    }
}
