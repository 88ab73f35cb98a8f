//! Digital neural-network substrate for the emerging-neural-workloads
//! workspace.
//!
//! The paper's experiments all need a conventional NN training/inference
//! stack underneath: the analog-crossbar section trains MLPs on simulated
//! device arrays, the MANN sections need learned feature embeddings, and
//! the recommendation section needs MLP stacks. This crate provides that
//! stack in plain Rust with one important twist: the weight storage and the
//! three matrix cycles (forward, backward, update) hide behind the
//! [`backend::LinearBackend`] trait, so the *same* model code runs on
//! floating-point weights ([`backend::DigitalLinear`]) or on a simulated
//! analog crossbar tile (`enw-crossbar::AnalogTile`).
//!
//! # Modules
//!
//! * [`activation`] — activation functions and their derivatives.
//! * [`backend`] — the [`backend::LinearBackend`] trait and the
//!   floating-point reference backend.
//! * [`conv`] — a compact CNN (im2col convolutions, max pooling, then an
//!   [`mlp::Mlp`] tail) for the embedding/controller networks the MANN
//!   sections rely on.
//! * [`layer`] — a dense layer combining a backend with an activation,
//!   its forward and backward passes writing caller-owned slices.
//! * [`mlp`] — the one trainable dense stack: multi-layer perceptrons
//!   over any backend, built from one backend factory
//!   ([`mlp::Mlp::try_with_backends`]) and trained with per-sample SGD
//!   that allocates nothing once warm.
//! * [`quantized`] — reduced-precision inference with statistical weight
//!   scaling and calibrated activation clipping (the 2-bit claim of
//!   Sec. II).
//! * [`loss`] — softmax cross-entropy and squared error.
//! * [`snapshot`] — byte-exact state serialization for bit-reproducible
//!   checkpoint/resume of training runs.
//! * [`data`] — labeled datasets and the synthetic image-classification
//!   generator (the workspace's MNIST substitute).
//! * [`fewshot`] — Omniglot-style class generators and N-way K-shot
//!   episode sampling.
//!
//! # Example: train a tiny classifier
//!
//! ```
//! use enw_nn::activation::Activation;
//! use enw_nn::data::SyntheticImages;
//! use enw_nn::mlp::{Mlp, SgdConfig};
//! use enw_numerics::rng::Rng64;
//!
//! let mut rng = Rng64::new(1);
//! let data = SyntheticImages::builder()
//!     .classes(4)
//!     .dim(16)
//!     .train_per_class(50)
//!     .test_per_class(20)
//!     .build(&mut rng);
//! let mut mlp = Mlp::digital(&[16, 32, 4], Activation::Tanh, &mut rng);
//! let cfg = SgdConfig { epochs: 5, learning_rate: 0.05 };
//! mlp.train_sgd(&data.train, &cfg, &mut rng);
//! let acc = mlp.evaluate(&data.test);
//! assert!(acc > 0.5); // far above the 0.25 chance level
//! ```

pub mod activation;
pub mod backend;
pub mod conv;
pub mod data;
pub mod fewshot;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod quantized;
pub mod snapshot;

pub use activation::Activation;
pub use backend::{DigitalLinear, LinearBackend};
pub use mlp::{Mlp, SgdConfig};

/// Reads into fresh buffers for the unit tests, through the backend's
/// `_into` forms.
#[cfg(test)]
pub(crate) mod test_reads {
    use crate::backend::LinearBackend;

    /// `forward_into` a fresh `out_dim()` buffer.
    pub fn forward(b: &mut impl LinearBackend, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; b.out_dim()];
        b.forward_into(x, &mut y);
        y
    }

    /// `backward_into` a fresh `in_dim()` buffer.
    pub fn backward(b: &mut impl LinearBackend, d: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0f32; b.in_dim()];
        b.backward_into(d, &mut dx);
        dx
    }
}
