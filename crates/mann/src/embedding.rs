//! Learned feature embeddings for few-shot memory lookups.
//!
//! The TCAM-MANN studies \[9\]\[48\] obtain feature vectors from a
//! conventionally trained network: a classifier is trained on *background*
//! classes, its output layer is stripped, and the penultimate activations
//! become the embedding that the external memory stores and searches.
//! Held-out classes — never seen during training — are then classified by
//! nearest-neighbour search in that embedding space, which is what makes
//! the evaluation genuinely "few-shot".

use enw_nn::activation::Activation;
use enw_nn::conv::{ConvNet, ConvNetConfig, MapShape};
use enw_nn::data::Dataset;
use enw_nn::fewshot::FewShotDomain;
use enw_nn::mlp::{Mlp, SgdConfig};
use enw_nn::DigitalLinear;
use enw_numerics::error::{check, ConfigError};
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;

/// Anything that maps raw inputs to feature embeddings.
///
/// The few-shot harness is generic over this trait so the same episodes
/// run on MLP embeddings ([`EmbeddingNet`]) and CNN embeddings
/// ([`ConvEmbeddingNet`] — the architecture the source papers use).
pub trait Embedder {
    /// Embedding dimensionality.
    fn embed_dim(&self) -> usize;

    /// Maps one raw input to its feature vector.
    fn embed(&mut self, x: &[f32]) -> Vec<f32>;
}

/// Training configuration for the embedding network. Write it as a
/// struct literal and check it with [`validate`](EmbeddingConfig::validate).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingConfig {
    /// Hidden layer widths between input and the embedding layer.
    pub hidden: Vec<usize>,
    /// Embedding dimensionality (penultimate layer width).
    pub embed_dim: usize,
    /// Number of (lowest-indexed) domain classes used for background
    /// training; the rest stay held out for episodes.
    pub background_classes: usize,
    /// Training samples drawn per background class.
    pub samples_per_class: usize,
    /// SGD passes.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f32,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            hidden: vec![64],
            embed_dim: 32,
            background_classes: 20,
            samples_per_class: 30,
            epochs: 8,
            learning_rate: 0.05,
        }
    }
}

impl EmbeddingConfig {
    /// Checks the setup: non-zero widths, at least two background
    /// classes to hold out against, non-empty classes and a schedule
    /// that trains. Both `train`s panic on what this rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(self.embed_dim > 0, "embed_dim must be non-zero")?;
        check(!self.hidden.contains(&0), "hidden widths must be non-zero")?;
        check(self.background_classes >= 2, "background_classes must be at least 2")?;
        check(self.samples_per_class > 0, "samples_per_class must be at least 1")?;
        check(self.epochs > 0, "epochs must be at least 1")?;
        let lr = self.learning_rate;
        check(lr.is_finite() && lr > 0.0, "learning_rate must be finite and positive")
    }

    /// Panics unless [`validate`](EmbeddingConfig::validate) passes and
    /// `domain` has every background class.
    fn assert_trains_on(&self, domain: &FewShotDomain) {
        let valid = self.validate();
        assert!(valid.is_ok(), "degenerate embedding config: {valid:?}");
        assert!(
            self.background_classes <= domain.num_classes(),
            "domain has {} classes, background needs {}",
            domain.num_classes(),
            self.background_classes
        );
    }
}

/// A trained embedding: a classifier with its softmax head ignored.
///
/// # Example
///
/// ```
/// use enw_mann::embedding::{EmbeddingConfig, EmbeddingNet};
/// use enw_nn::fewshot::FewShotDomain;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(11);
/// let domain = FewShotDomain::generate(30, 32, &mut rng);
/// let cfg = EmbeddingConfig {
///     background_classes: 10,
///     samples_per_class: 5,
///     epochs: 1,
///     ..Default::default()
/// };
/// let mut net = EmbeddingNet::train(&domain, &cfg, &mut rng);
/// let e = net.embed(&domain.sample(25, &mut rng));
/// assert_eq!(e.len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingNet {
    mlp: Mlp<DigitalLinear>,
    embed_dim: usize,
}

impl EmbeddingNet {
    /// Trains a background classifier on the first
    /// `cfg.background_classes` classes of the domain.
    ///
    /// # Panics
    ///
    /// Panics if [`EmbeddingConfig::validate`] rejects `cfg`, or the
    /// domain has fewer classes than `cfg.background_classes`.
    pub fn train(domain: &FewShotDomain, cfg: &EmbeddingConfig, rng: &mut Rng64) -> Self {
        cfg.assert_trains_on(domain);
        // Build the background dataset.
        let n = cfg.background_classes * cfg.samples_per_class;
        let mut inputs = Matrix::zeros(n, domain.dim());
        let mut labels = Vec::with_capacity(n);
        let mut row = 0;
        for c in 0..cfg.background_classes {
            for _ in 0..cfg.samples_per_class {
                let s = domain.sample(c, rng);
                inputs.row_mut(row).copy_from_slice(&s);
                labels.push(c);
                row += 1;
            }
        }
        let data = Dataset::new(inputs, labels, cfg.background_classes);
        // Classifier: input → hidden… → embed_dim → classes.
        let mut dims = vec![domain.dim()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(cfg.embed_dim);
        dims.push(cfg.background_classes);
        let mut mlp = Mlp::digital(&dims, Activation::Tanh, rng);
        mlp.train_sgd(
            &data,
            &SgdConfig { epochs: cfg.epochs, learning_rate: cfg.learning_rate },
            rng,
        );
        EmbeddingNet { mlp, embed_dim: cfg.embed_dim }
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Maps a raw input to its feature embedding (all layers except the
    /// classification head).
    pub fn embed(&mut self, x: &[f32]) -> Vec<f32> {
        let mut e = vec![0.0f32; self.embed_dim];
        self.mlp.embed_into(x, &mut e);
        e
    }
}

impl Embedder for EmbeddingNet {
    fn embed_dim(&self) -> usize {
        EmbeddingNet::embed_dim(self)
    }

    fn embed(&mut self, x: &[f32]) -> Vec<f32> {
        EmbeddingNet::embed(self, x)
    }
}

/// A CNN-backed embedding: the "4-layer convolutional NN" architecture of
/// ref. \[48\], at workspace scale. The domain's 1-D canvas is reshaped to
/// a square image (so the domain dimensionality must be a perfect
/// square).
#[derive(Debug, Clone)]
pub struct ConvEmbeddingNet {
    net: ConvNet,
}

impl ConvEmbeddingNet {
    /// Trains a CNN background classifier analogous to
    /// [`EmbeddingNet::train`]; `cfg.hidden` is reinterpreted as the conv
    /// stage channel counts.
    ///
    /// # Panics
    ///
    /// Panics if the domain dimensionality is not a perfect square, or on
    /// the same config violations as [`EmbeddingNet::train`].
    pub fn train(domain: &FewShotDomain, cfg: &EmbeddingConfig, rng: &mut Rng64) -> Self {
        cfg.assert_trains_on(domain);
        let side = (domain.dim() as f64).sqrt() as usize;
        assert_eq!(side * side, domain.dim(), "domain dim must be a perfect square for a CNN");
        let n = cfg.background_classes * cfg.samples_per_class;
        let mut inputs = Matrix::zeros(n, domain.dim());
        let mut labels = Vec::with_capacity(n);
        let mut row = 0;
        for c in 0..cfg.background_classes {
            for _ in 0..cfg.samples_per_class {
                let s = domain.sample(c, rng);
                inputs.row_mut(row).copy_from_slice(&s);
                labels.push(c);
                row += 1;
            }
        }
        let data = Dataset::new(inputs, labels, cfg.background_classes);
        let conv_cfg = ConvNetConfig {
            input: MapShape { channels: 1, height: side, width: side },
            conv_channels: cfg.hidden.clone(),
            embed_dim: cfg.embed_dim,
            classes: cfg.background_classes,
        };
        let mut net = ConvNet::new(&conv_cfg, rng);
        net.train(&data, cfg.epochs, cfg.learning_rate, rng);
        ConvEmbeddingNet { net }
    }
}

impl Embedder for ConvEmbeddingNet {
    fn embed_dim(&self) -> usize {
        self.net.embed_dim()
    }

    fn embed(&mut self, x: &[f32]) -> Vec<f32> {
        let mut e = vec![0.0f32; self.net.embed_dim()];
        self.net.embed_into(x, &mut e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_numerics::vector::dist_l2;

    fn quick_cfg() -> EmbeddingConfig {
        EmbeddingConfig {
            hidden: vec![48],
            embed_dim: 16,
            background_classes: 12,
            samples_per_class: 15,
            epochs: 6,
            learning_rate: 0.05,
        }
    }

    #[test]
    fn embedding_has_configured_dimension() {
        let mut rng = Rng64::new(1);
        let domain = FewShotDomain::generate(20, 32, &mut rng);
        let mut net = EmbeddingNet::train(&domain, &quick_cfg(), &mut rng);
        assert_eq!(net.embed(&domain.sample(0, &mut rng)).len(), 16);
        assert_eq!(net.embed_dim(), 16);
    }

    #[test]
    fn embedding_clusters_held_out_classes() {
        // The transfer property the whole pipeline rests on: classes never
        // seen in training still form clusters in embedding space.
        let mut rng = Rng64::new(2);
        let domain = FewShotDomain::generate(24, 48, &mut rng);
        let mut net = EmbeddingNet::train(&domain, &quick_cfg(), &mut rng);
        let held_out = [14usize, 17, 21];
        let mut intra = 0.0f64;
        let mut inter = 0.0f64;
        let mut n = 0;
        for (idx, &c) in held_out.iter().enumerate() {
            let a = net.embed(&domain.sample(c, &mut rng));
            let b = net.embed(&domain.sample(c, &mut rng));
            let other_class = held_out[(idx + 1) % held_out.len()];
            let o = net.embed(&domain.sample(other_class, &mut rng));
            intra += dist_l2(&a, &b) as f64;
            inter += dist_l2(&a, &o) as f64;
            n += 1;
        }
        assert!(
            inter / n as f64 > intra / n as f64,
            "embedding does not cluster held-out classes: intra {intra}, inter {inter}"
        );
    }

    #[test]
    fn conv_embedding_trains_and_clusters() {
        let mut rng = Rng64::new(8);
        // 64-dim canvas → 8×8 image for the CNN.
        let domain = FewShotDomain::generate(20, 64, &mut rng);
        let cfg = EmbeddingConfig {
            hidden: vec![6], // one conv stage with 6 channels
            embed_dim: 16,
            background_classes: 10,
            samples_per_class: 12,
            epochs: 4,
            learning_rate: 0.03,
        };
        let mut net = ConvEmbeddingNet::train(&domain, &cfg, &mut rng);
        assert_eq!(Embedder::embed_dim(&net), 16);
        let a = net.embed(&domain.sample(15, &mut rng));
        let b = net.embed(&domain.sample(15, &mut rng));
        let o = net.embed(&domain.sample(18, &mut rng));
        assert!(dist_l2(&a, &b) < dist_l2(&a, &o) + 1.0, "embeddings degenerate");
        assert_eq!(a.len(), 16);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn conv_embedding_rejects_non_square_domain() {
        let mut rng = Rng64::new(9);
        let domain = FewShotDomain::generate(6, 30, &mut rng);
        let cfg = EmbeddingConfig {
            background_classes: 3,
            samples_per_class: 2,
            epochs: 1,
            ..quick_cfg()
        };
        ConvEmbeddingNet::train(&domain, &cfg, &mut rng);
    }

    #[test]
    #[should_panic(expected = "background needs")]
    fn too_few_domain_classes_panics() {
        let mut rng = Rng64::new(3);
        let domain = FewShotDomain::generate(5, 16, &mut rng);
        EmbeddingNet::train(&domain, &quick_cfg(), &mut rng);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(EmbeddingConfig::default().validate(), Ok(()));
    }

    #[test]
    fn builder_rejects_one_background_class() {
        let cfg = EmbeddingConfig { background_classes: 1, ..EmbeddingConfig::default() };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("background_classes"), "{err}");
        let cfg = EmbeddingConfig { samples_per_class: 0, ..EmbeddingConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_rejects_zero_hidden_width() {
        let cfg = EmbeddingConfig { hidden: vec![64, 0], ..EmbeddingConfig::default() };
        assert!(cfg.validate().is_err());
        assert!(EmbeddingConfig { embed_dim: 0, ..EmbeddingConfig::default() }.validate().is_err());
    }

    #[test]
    fn builder_rejects_degenerate_schedule() {
        let d = EmbeddingConfig::default;
        assert!(EmbeddingConfig { epochs: 0, ..d() }.validate().is_err());
        assert!(EmbeddingConfig { learning_rate: 0.0, ..d() }.validate().is_err());
    }
}
