//! Sequence-aware recommendation with attention (paper Sec. V-B:
//! "emerging recommendation models rely on explicitly modeling sequences
//! of user interactions and interests with RNNs and attention", citing
//! the Deep Interest Network line of work \[67\]\[68\]).
//!
//! The model scores a candidate item against the user's interaction
//! *history*: each history item's embedding is weighted by its attention
//! to the candidate (softmax over scaled dot products), the weighted sum
//! is the user's current "interest" vector, and `[interest ‖ candidate ‖
//! dense]` feeds the predictor MLP. Compared to the sum-pooled baseline
//! of [`crate::model`], attention adds `O(H·D)` compute per candidate —
//! the extra cost the characterization quantifies.

use crate::model::EmbeddingTable;
use enw_nn::activation::Activation;
use enw_nn::mlp::Mlp;
use enw_nn::DigitalLinear;
use enw_numerics::rng::Rng64;
use enw_numerics::vector::{dot, softmax_in_place};

/// Configuration of the interest model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestModelConfig {
    /// Item catalogue size.
    pub items: usize,
    /// Item-embedding dimension.
    pub embedding_dim: usize,
    /// Dense (context) feature count.
    pub dense_features: usize,
    /// Predictor MLP hidden widths.
    pub predictor: Vec<usize>,
}

impl Default for InterestModelConfig {
    fn default() -> Self {
        InterestModelConfig {
            items: 10_000,
            embedding_dim: 32,
            dense_features: 8,
            predictor: vec![64, 32],
        }
    }
}

/// A DIN-style attention recommendation model.
///
/// # Example
///
/// ```
/// use enw_recsys::sequence::{InterestModel, InterestModelConfig};
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let cfg = InterestModelConfig { items: 100, ..Default::default() };
/// let mut m = InterestModel::new(&cfg, &mut rng);
/// let ctr = m.predict(&[1, 5, 9], 42, &[0.1; 8]);
/// assert!((0.0..=1.0).contains(&ctr));
/// ```
#[derive(Debug, Clone)]
pub struct InterestModel {
    cfg: InterestModelConfig,
    items: EmbeddingTable,
    predictor: Mlp<DigitalLinear>,
}

impl InterestModel {
    /// Builds a model with random (post-training-like) parameters.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(cfg: &InterestModelConfig, rng: &mut Rng64) -> Self {
        let items = EmbeddingTable::random(cfg.items, cfg.embedding_dim, rng);
        let mut dims = vec![2 * cfg.embedding_dim + cfg.dense_features];
        dims.extend_from_slice(&cfg.predictor);
        dims.push(1);
        InterestModel {
            cfg: cfg.clone(),
            items,
            predictor: Mlp::digital(&dims, Activation::Relu, rng),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &InterestModelConfig {
        &self.cfg
    }

    /// Attention weights of the history items w.r.t. a candidate
    /// (softmax over scaled dot products).
    ///
    /// # Panics
    ///
    /// Panics if the history is empty or any index is out of range.
    pub fn attention(&self, history: &[usize], candidate: usize) -> Vec<f32> {
        assert!(!history.is_empty(), "empty interaction history");
        let cand = self.items.row(candidate);
        let scale = 1.0 / (self.cfg.embedding_dim as f32).sqrt();
        let mut scores: Vec<f32> =
            history.iter().map(|&h| dot(self.items.row(h), cand) * scale).collect();
        softmax_in_place(&mut scores, 1.0);
        scores
    }

    /// The attention-pooled interest vector for a candidate.
    pub fn interest(&self, history: &[usize], candidate: usize) -> Vec<f32> {
        let w = self.attention(history, candidate);
        let mut pooled = vec![0.0f32; self.cfg.embedding_dim];
        for (&h, &wi) in history.iter().zip(&w) {
            for (p, v) in pooled.iter_mut().zip(self.items.row(h)) {
                *p += wi * v;
            }
        }
        pooled
    }

    /// Predicted CTR of `candidate` for a user with `history` and dense
    /// context features.
    ///
    /// # Panics
    ///
    /// Panics on empty history, out-of-range indices, or dense-width
    /// mismatch.
    pub fn predict(&mut self, history: &[usize], candidate: usize, dense: &[f32]) -> f32 {
        assert_eq!(dense.len(), self.cfg.dense_features, "dense feature count mismatch");
        let interest = self.interest(history, candidate);
        let mut input = interest;
        input.extend_from_slice(self.items.row(candidate));
        input.extend_from_slice(dense);
        let mut logit = [0.0f32];
        self.predictor.predict_into(&input, &mut logit);
        let logit = logit[0];
        1.0 / (1.0 + (-logit).exp())
    }

    /// FLOPs and bytes of one prediction with a history of length `h` —
    /// the attention overhead the paper's flexibility discussion worries
    /// about.
    pub fn prediction_profile(&self, h: usize) -> crate::characterize::OpProfile {
        let d = self.cfg.embedding_dim as u64;
        let hist = h as u64;
        // Attention: H dot products (2·D) + softmax (~3·H) + weighted sum
        // (2·H·D); embeddings read: (H + 1) rows.
        let flops = hist * 2 * d + 3 * hist + 2 * hist * d;
        let bytes = (hist + 1) * d * 4;
        // Predictor MLP.
        let mut dims = vec![2 * self.cfg.embedding_dim + self.cfg.dense_features];
        dims.extend_from_slice(&self.cfg.predictor);
        dims.push(1);
        let mut mlp_flops = 0u64;
        let mut mlp_bytes = 0u64;
        for w in dims.windows(2) {
            mlp_flops += 2 * (w[0] * w[1]) as u64;
            mlp_bytes += ((w[0] * w[1] + w[1]) * 4) as u64;
        }
        crate::characterize::OpProfile { flops: flops + mlp_flops, bytes: bytes + mlp_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(rng: &mut Rng64) -> InterestModel {
        InterestModel::new(&InterestModelConfig { items: 200, ..Default::default() }, rng)
    }

    #[test]
    fn attention_is_a_distribution() {
        let mut rng = Rng64::new(1);
        let m = model(&mut rng);
        let w = m.attention(&[1, 2, 3, 4], 10);
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn candidate_in_history_attracts_attention() {
        // A history item identical to the candidate should get the
        // largest attention weight.
        let mut rng = Rng64::new(2);
        let m = model(&mut rng);
        let w = m.attention(&[7, 50, 99], 7);
        assert!(w[0] > w[1] && w[0] > w[2], "{w:?}");
    }

    #[test]
    fn interest_changes_with_candidate() {
        // The same history pools differently for different candidates —
        // the defining property of DIN-style models vs static pooling.
        let mut rng = Rng64::new(3);
        let m = model(&mut rng);
        let hist = [3usize, 77, 150];
        assert_ne!(m.interest(&hist, 3), m.interest(&hist, 150));
    }

    #[test]
    fn prediction_is_probability_and_history_sensitive() {
        let mut rng = Rng64::new(4);
        let mut m = model(&mut rng);
        let dense = [0.2f32; 8];
        let a = m.predict(&[1, 2, 3], 42, &dense);
        let b = m.predict(&[100, 120, 140], 42, &dense);
        assert!((0.0..=1.0).contains(&a));
        assert_ne!(a, b, "history must influence the prediction");
    }

    #[test]
    fn profile_grows_linearly_with_history() {
        let mut rng = Rng64::new(5);
        let m = model(&mut rng);
        let p10 = m.prediction_profile(10);
        let p100 = m.prediction_profile(100);
        // Attention flops/bytes scale ~10x; the MLP part is constant.
        assert!(p100.flops > p10.flops);
        assert!(p100.bytes > p10.bytes);
        let att10 = p10.bytes - m.prediction_profile(0).bytes;
        let att100 = p100.bytes - m.prediction_profile(0).bytes;
        assert_eq!(att100, 10 * att10);
    }

    #[test]
    #[should_panic(expected = "empty interaction history")]
    fn empty_history_panics() {
        let mut rng = Rng64::new(6);
        model(&mut rng).attention(&[], 0);
    }
}
