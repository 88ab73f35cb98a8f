//! E2 — Device-requirement sweep for analog SGD training (paper Sec. II-A,
//! the RPU specification study of ref. \[14\]).
//!
//! Trains the same MLP classification task with plain stochastic-pulse SGD
//! on device populations that vary one property at a time:
//!
//! * **granularity** — states over the weight range (the paper's spec:
//!   a single coincidence should move ~0.1 % of the range → 1000 states);
//! * **asymmetry** — up/down step imbalance (spec: matched to within a
//!   few percent);
//! * **noise** — cycle-to-cycle write noise and device-to-device spread.
//!
//! The table shows accuracy holding near the FP32 baseline while specs are
//! met and collapsing beyond them.

use crate::run::Run;
use enw_core::crossbar::device::{DeviceSpec, PulsedDevice};
use enw_core::crossbar::devices;
use enw_core::crossbar::tile::TileConfig;
use enw_core::crossbar::train::{analog_mlp, train_and_evaluate};
use enw_core::nn::activation::Activation;
use enw_core::nn::data::{Split, SyntheticImages};
use enw_core::nn::mlp::{Mlp, SgdConfig};
use enw_core::numerics::rng::Rng64;
use enw_core::report::{percent, Table};

const DIMS: [usize; 3] = [64, 32, 10];

fn task(seed: u64) -> Split {
    SyntheticImages::builder()
        .classes(10)
        .dim(64)
        .train_per_class(50)
        .test_per_class(25)
        .noise(1.3)
        .build(&mut Rng64::new(seed))
}

fn train_cfg() -> SgdConfig {
    SgdConfig { epochs: 5, learning_rate: 0.05 }
}

fn run_analog(spec: &DeviceSpec, split: &Split, seed: u64) -> f64 {
    let mut rng = Rng64::new(seed);
    let mut mlp = analog_mlp(&DIMS, spec, TileConfig::ideal(), Activation::Tanh, &mut rng);
    train_and_evaluate(&mut mlp, split, &train_cfg(), &mut rng).test_accuracy
}

fn asymmetric(states: u32, asymmetry: f32) -> DeviceSpec {
    // Keep the mean step fixed while skewing up vs down; a moderate
    // soft-bound nonlinearity gives the skew a state dependence (pure
    // constant-step skew would just rail every weight at a bound).
    let dw = 2.0 / states as f32;
    DeviceSpec::uniform(PulsedDevice {
        dw_up: dw * (1.0 + asymmetry),
        dw_down: dw * (1.0 - asymmetry),
        gamma_up: 0.5,
        gamma_down: 0.5,
        ..PulsedDevice::ideal(states)
    })
}

pub fn run(run: &mut Run) {
    let split = task(7);
    let mut rng = Rng64::new(1);
    let mut fp = Mlp::digital(&DIMS, Activation::Tanh, &mut rng);
    let fp_acc = train_and_evaluate(&mut fp, &split, &train_cfg(), &mut rng).test_accuracy;
    println!("FP32 baseline accuracy: {}\n", percent(fp_acc));

    let mut g = Table::new(&["states (granularity)", "dw / range", "test accuracy", "vs FP32"]);
    for &states in &[20u32, 100, 400, 1000, 4000] {
        let acc = run_analog(&devices::ideal(states), &split, 11);
        g.row_owned(vec![
            format!("{states}"),
            format!("{:.3}%", 100.0 / states as f64 * 2.0 / 2.0),
            percent(acc),
            format!("{:+.1} pts", 100.0 * (acc - fp_acc)),
        ]);
    }
    println!("-- granularity sweep (ideal symmetric devices) --");
    run.emit(&g);

    let mut a = Table::new(&["up/down asymmetry", "test accuracy", "vs FP32"]);
    for &asym in &[0.0f32, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let acc = run_analog(&asymmetric(1000, asym), &split, 13);
        a.row_owned(vec![
            format!("{:.0}%", asym * 100.0),
            percent(acc),
            format!("{:+.1} pts", 100.0 * (acc - fp_acc)),
        ]);
    }
    println!("-- asymmetry sweep (1000 states, soft bounds, plain SGD) --");
    run.emit(&a);

    let mut n = Table::new(&["write noise (c2c)", "d2d spread", "test accuracy", "vs FP32"]);
    for &(c2c, d2d) in &[(0.0f32, 0.0f32), (0.3, 0.1), (0.6, 0.3), (1.5, 0.5)] {
        let acc = run_analog(&devices::noisy_ideal(1000, c2c, d2d), &split, 17);
        n.row_owned(vec![
            format!("{:.0}%", c2c * 100.0),
            format!("{:.0}%", d2d * 100.0),
            percent(acc),
            format!("{:+.1} pts", 100.0 * (acc - fp_acc)),
        ]);
    }
    println!("-- stochasticity sweep (1000 states, symmetric) --");
    run.emit(&n);

    println!("Reading: ~1000 states (0.1% granularity) and few-% asymmetry keep analog SGD near");
    println!("the FP32 baseline; coarse, strongly asymmetric or very noisy devices collapse it —");
    println!("the RPU device specification of ref. [14].");
}
