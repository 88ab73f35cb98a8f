//! E4 — Training on asymmetric devices: plain SGD vs zero-shifting vs the
//! coupled-dynamics algorithm (paper Sec. II-B5, refs. \[30\]\[35\]).
//!
//! Four training configurations on the same task and the same RRAM-like
//! asymmetric device population:
//!
//! 1. ideal symmetric devices + plain SGD (the reference),
//! 2. asymmetric devices + plain SGD (degrades: asymmetry biases gradient
//!    accumulation),
//! 3. asymmetric devices + zero-shifting only (partial recovery),
//! 4. asymmetric devices + zero-shifting + Tiki-Taka (matches the
//!    reference — the paper's "indistinguishable from ... perfectly
//!    symmetric, ideal devices" claim).

use crate::run::Run;
use enw_core::crossbar::devices;
use enw_core::crossbar::tiki_taka::TikiTakaConfig;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::crossbar::train::{analog_mlp, tiki_taka_mlp, train_and_evaluate};
use enw_core::nn::activation::Activation;
use enw_core::nn::data::{Split, SyntheticImages};
use enw_core::nn::mlp::{Mlp, SgdConfig};
use enw_core::numerics::matrix::Matrix;
use enw_core::numerics::rng::Rng64;
use enw_core::report::{percent, Table};
use std::convert::Infallible;

const DIMS: [usize; 3] = [64, 32, 10];

fn task() -> Split {
    SyntheticImages::builder()
        .classes(10)
        .dim(64)
        .train_per_class(50)
        .test_per_class(25)
        .noise(1.3)
        .build(&mut Rng64::new(7))
}

fn cfg() -> SgdConfig {
    SgdConfig { epochs: 5, learning_rate: 0.05 }
}

/// Builds an analog MLP whose tiles are zero-shift calibrated before
/// programming (configuration 3).
fn zero_shifted_mlp(rng: &mut Rng64) -> Mlp<AnalogTile> {
    let spec = devices::rram();
    let Ok(mlp) = Mlp::try_with_backends(&DIMS, Activation::Tanh, rng, |i, o, rng| {
        let mut tile = AnalogTile::new(o, i, &spec, TileConfig::ideal(), rng);
        tile.calibrate_zero_shift(800);
        let limit = (6.0 / (i + o) as f64).sqrt();
        let mut init = Matrix::random_uniform(o, i + 1, -limit, limit, rng);
        for r in 0..o {
            init.set(r, i, 0.0);
        }
        tile.program_effective(&init);
        Ok::<_, Infallible>(tile)
    });
    mlp
}

pub fn run(run: &mut Run) {
    let split = task();
    let mut table = Table::new(&["configuration", "devices", "test accuracy"]);

    let mut rng = Rng64::new(21);
    let mut ideal =
        analog_mlp(&DIMS, &devices::ideal(1000), TileConfig::ideal(), Activation::Tanh, &mut rng);
    let acc_ideal = train_and_evaluate(&mut ideal, &split, &cfg(), &mut rng).test_accuracy;
    table.row_owned(vec!["plain SGD".into(), "ideal symmetric".into(), percent(acc_ideal)]);

    let mut rng = Rng64::new(22);
    let mut plain =
        analog_mlp(&DIMS, &devices::rram(), TileConfig::ideal(), Activation::Tanh, &mut rng);
    let acc_plain = train_and_evaluate(&mut plain, &split, &cfg(), &mut rng).test_accuracy;
    table.row_owned(vec!["plain SGD".into(), "RRAM (asymmetric)".into(), percent(acc_plain)]);

    let mut rng = Rng64::new(23);
    let mut zs = zero_shifted_mlp(&mut rng);
    let acc_zs = train_and_evaluate(&mut zs, &split, &cfg(), &mut rng).test_accuracy;
    table.row_owned(vec![
        "SGD + zero-shifting".into(),
        "RRAM (asymmetric)".into(),
        percent(acc_zs),
    ]);

    let mut rng = Rng64::new(24);
    let mut tt = tiki_taka_mlp(
        &DIMS,
        &devices::rram(),
        TileConfig::ideal(),
        TikiTakaConfig::default(),
        Activation::Tanh,
        &mut rng,
    );
    let acc_tt = train_and_evaluate(&mut tt, &split, &cfg(), &mut rng).test_accuracy;
    table.row_owned(vec![
        "zero-shift + Tiki-Taka".into(),
        "RRAM (asymmetric)".into(),
        percent(acc_tt),
    ]);

    run.emit(&table);
    println!(
        "gap to ideal: plain {:+.1} pts, zero-shift {:+.1} pts, Tiki-Taka {:+.1} pts",
        100.0 * (acc_plain - acc_ideal),
        100.0 * (acc_zs - acc_ideal),
        100.0 * (acc_tt - acc_ideal)
    );
    println!("Reading: aggressive bidirectional asymmetry is compensated by the coupled-dynamics");
    println!("algorithm, recovering (near-)ideal-device accuracy at minimal implementation cost.");
}
