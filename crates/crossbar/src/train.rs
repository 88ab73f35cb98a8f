//! Whole networks on simulated analog hardware: the analog MLPs (each one
//! [`Mlp::try_with_backends`] call whose factory programs a tile to a
//! Xavier initialization), and the comparison harness the
//! device-requirement experiments (E2/E4) are built on.

use crate::device::DeviceSpec;
use crate::tiki_taka::{TikiTakaConfig, TikiTakaTile};
use crate::tile::{AnalogTile, TileConfig};
use enw_nn::activation::Activation;
use enw_nn::backend::LinearBackend;
use enw_nn::data::Split;
use enw_nn::mlp::{Mlp, SgdConfig};
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;
use std::convert::Infallible;

fn xavier(out_dim: usize, in_dim: usize, rng: &mut Rng64) -> Matrix {
    let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
    let mut w = Matrix::random_uniform(out_dim, in_dim + 1, -limit, limit, rng);
    for r in 0..out_dim {
        w.set(r, in_dim, 0.0);
    }
    w
}

/// Builds an MLP whose every layer is an [`AnalogTile`] over `spec`
/// devices, write-verify programmed to a Xavier initialization.
///
/// `dims = [in, h1, …, out]`; hidden layers use `activation`, the output
/// layer is identity.
///
/// # Panics
///
/// Panics if fewer than two dimensions are given.
pub fn analog_mlp(
    dims: &[usize],
    spec: &DeviceSpec,
    tile_cfg: TileConfig,
    activation: Activation,
    rng: &mut Rng64,
) -> Mlp<AnalogTile> {
    let Ok(mlp) = Mlp::try_with_backends(dims, activation, rng, |i, o, rng| {
        let mut tile = AnalogTile::new(o, i, spec, tile_cfg, rng);
        tile.program_effective(&xavier(o, i, rng));
        Ok::<_, Infallible>(tile)
    });
    mlp
}

/// Builds an MLP whose layers are coupled Tiki-Taka tile pairs — the
/// asymmetric-device training configuration of \[35\].
///
/// # Panics
///
/// Panics if fewer than two dimensions are given.
pub fn tiki_taka_mlp(
    dims: &[usize],
    spec: &DeviceSpec,
    tile_cfg: TileConfig,
    tt_cfg: TikiTakaConfig,
    activation: Activation,
    rng: &mut Rng64,
) -> Mlp<TikiTakaTile> {
    let Ok(mlp) = Mlp::try_with_backends(dims, activation, rng, |i, o, rng| {
        let mut tile = TikiTakaTile::new(o, i, spec, tile_cfg, tt_cfg, rng);
        tile.program_effective(&xavier(o, i, rng));
        Ok::<_, Infallible>(tile)
    });
    mlp
}

/// Result of one training run in the comparison harness.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// Test accuracy after training.
    pub test_accuracy: f64,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
}

/// Trains any backend MLP on a split and evaluates it.
pub fn train_and_evaluate<B: LinearBackend>(
    mlp: &mut Mlp<B>,
    split: &Split,
    cfg: &SgdConfig,
    rng: &mut Rng64,
) -> TrainOutcome {
    let loss_history = mlp.train_sgd(&split.train, cfg, rng);
    TrainOutcome { test_accuracy: mlp.evaluate(&split.test), loss_history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use enw_nn::data::SyntheticImages;

    fn small_split(seed: u64) -> Split {
        SyntheticImages::builder()
            .classes(3)
            .dim(16)
            .train_per_class(30)
            .test_per_class(10)
            .noise(0.4)
            .build(&mut Rng64::new(seed))
    }

    #[test]
    fn analog_mlp_shapes() {
        let mut rng = Rng64::new(1);
        let mlp = analog_mlp(
            &[16, 12, 3],
            &devices::ideal(2000),
            TileConfig::ideal(),
            Activation::Tanh,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 16);
        assert_eq!(mlp.out_dim(), 3);
    }

    #[test]
    fn ideal_analog_training_beats_chance() {
        let mut rng = Rng64::new(2);
        let split = small_split(2);
        let mut mlp = analog_mlp(
            &[16, 12, 3],
            &devices::ideal(2000),
            TileConfig::ideal(),
            Activation::Tanh,
            &mut rng,
        );
        let out = train_and_evaluate(
            &mut mlp,
            &split,
            &SgdConfig { epochs: 5, learning_rate: 0.05 },
            &mut rng,
        );
        assert!(out.test_accuracy > 0.6, "accuracy {}", out.test_accuracy);
    }

    #[test]
    fn tiki_taka_mlp_constructs_and_trains_a_little() {
        let mut rng = Rng64::new(3);
        let split = small_split(3);
        let mut mlp = tiki_taka_mlp(
            &[16, 8, 3],
            &devices::rram(),
            TileConfig::ideal(),
            TikiTakaConfig { calibration_pairs: 300, ..TikiTakaConfig::default() },
            Activation::Tanh,
            &mut rng,
        );
        let out = train_and_evaluate(
            &mut mlp,
            &split,
            &SgdConfig { epochs: 2, learning_rate: 0.05 },
            &mut rng,
        );
        assert!(out.test_accuracy > 0.34, "accuracy {}", out.test_accuracy);
    }
}
