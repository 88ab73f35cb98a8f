//! Analog resistive crossbar simulation — paper Sec. II.
//!
//! This crate reproduces the modeling methodology behind the paper's
//! analog-training discussion: crosspoint devices with bounded, asymmetric,
//! noisy conductance updates; crossbar arrays performing in-place
//! vector–matrix products; tiles with realistic converter peripheries and
//! the stochastic-pulse parallel update of the Resistive Processing Unit
//! concept \[14\]; and the algorithmic mitigations the paper surveys —
//! zero-shifting \[30\], the coupled-dynamics training algorithm \[35\],
//! PCM differential pairs with occasional reset \[18\], and hardware-aware
//! drop-connect training \[33\].
//!
//! # Layering
//!
//! * [`device`] — one crosspoint's pulse dynamics ([`device::PulsedDevice`]).
//! * [`devices`] — technology presets (RRAM, ECRAM, FeFET) plus the PCM
//!   differential pair.
//! * [`mod@array`] — a grid of devices with forward/transposed reads,
//!   write-verify programming, defect injection.
//! * [`noise`] — DAC/ADC quantization, read noise, clipping.
//! * [`inference`] — inference-only deployment on PCM pairs: programming,
//!   drift over time, and algorithmic drift compensation \[28\].
//! * [`tile`] — [`tile::AnalogTile`]: array + periphery, implementing the
//!   `enw-nn` `LinearBackend` trait so networks train on it unmodified.
//! * [`tiki_taka`] — the coupled-array training scheme for asymmetric
//!   devices.
//! * [`tiled`] — [`tiled::TiledAnalogLayer`]: a large logical layer
//!   sharded across a grid of tiles with deterministic halo-free
//!   partial-sum reduction and bit-exact checkpoint/resume.
//! * [`train`] — whole-network constructors and the comparison harness.
//! * [`pipeline`] — the streaming tiled training pipeline: deep
//!   conv/MLP stacks on tile grids, zero-alloc steady state, a virtual
//!   clock modeling prefetch/update overlap, and resumable checkpoints.
//!
//! # Example: train an MLP on simulated RRAM with Tiki-Taka
//!
//! ```
//! use enw_crossbar::{devices, train, tiki_taka::TikiTakaConfig, tile::TileConfig};
//! use enw_nn::activation::Activation;
//! use enw_nn::data::SyntheticImages;
//! use enw_nn::mlp::SgdConfig;
//! use enw_numerics::rng::Rng64;
//!
//! let mut rng = Rng64::new(1);
//! let split = SyntheticImages::builder()
//!     .classes(3).dim(16).train_per_class(20).test_per_class(10)
//!     .build(&mut rng);
//! let mut mlp = train::tiki_taka_mlp(
//!     &[16, 8, 3],
//!     &devices::rram(),
//!     TileConfig::ideal(),
//!     TikiTakaConfig { calibration_pairs: 200, ..Default::default() },
//!     Activation::Tanh,
//!     &mut rng,
//! );
//! let out = train::train_and_evaluate(
//!     &mut mlp, &split, &SgdConfig { epochs: 1, learning_rate: 0.05 }, &mut rng);
//! assert!(out.test_accuracy >= 0.0);
//! ```

pub mod array;
pub mod device;
pub mod devices;
pub mod inference;
pub mod noise;
pub mod pipeline;
pub mod tiki_taka;
pub mod tile;
pub mod tiled;
pub mod train;

pub use array::AnalogArray;
pub use device::{DeviceSpec, PulseDir, PulsedDevice};
pub use noise::AnalogNoise;
pub use tiki_taka::{TikiTakaConfig, TikiTakaTile};
pub use tile::{AnalogTile, TileConfig, UpdateScheme};
pub use tiled::{TiledAnalogLayer, TilingConfig};

/// Reads into fresh buffers for the unit tests, through the backend's
/// `_into` forms.
#[cfg(test)]
pub(crate) mod test_reads {
    use enw_nn::backend::LinearBackend;

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
