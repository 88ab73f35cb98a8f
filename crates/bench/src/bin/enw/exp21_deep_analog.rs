//! E21 — streaming tiled analog training at depth (Sec. II; the
//! large-scale training methodology of refs. \[14\]\[36\]).
//!
//! The earlier analog experiments (E2, E4) train shallow MLPs on single
//! tiles. This binary exercises the full streaming pipeline: a deep
//! (≥6 trainable layers) conv stack whose every weight array is a
//! `TiledAnalogLayer` — a grid of crossbar tiles with deterministic
//! partial-sum reduction — trained sample-by-sample with double-buffered
//! input staging and a virtual clock modeling prefetch/update overlap.
//!
//! Four contracts are gated (`enw` exits non-zero if any fails):
//!
//! 1. **Zero-alloc steady state** — `enw`'s counting
//!    `#[global_allocator]` shows warm training steps perform no heap
//!    allocation, on this thread or any pool worker.
//! 2. **Rerun determinism** — two identically seeded runs produce
//!    byte-identical checkpoints.
//! 3. **Thread invariance** — ENW_THREADS=1/2/8 produce byte-identical
//!    checkpoints.
//! 4. **Checkpoint/resume** — a run interrupted mid-flight and resumed
//!    from its checkpoint finishes byte-identical to an uninterrupted
//!    run.
//!
//! It then sweeps depth, tiling, and device technology, emitting
//! accuracy-vs-device surfaces and steady-state virtual-clock
//! throughput into `BENCH_analog_training.json`. Pass `--smoke` for
//! CI-sized iteration counts.

use crate::json::{num, Json};
use crate::run::Run;
use enw_bench::alloc_audit;
use enw_core::crossbar::device::DeviceSpec;
use enw_core::crossbar::devices;
use enw_core::crossbar::pipeline::{AnalogPipeline, PipelineConfig};
use enw_core::crossbar::tile::TileConfig;
use enw_core::crossbar::tiled::TilingConfig;
use enw_core::nn::conv::{ConvNetConfig, MapShape};
use enw_core::nn::data::{Dataset, Split};
use enw_core::numerics::rng::Rng64;
use enw_core::parallel::with_threads;
use enw_core::report::Table;

const SEED: u64 = 21;
const WARMUP_STEPS: usize = 8;

struct Sizes {
    /// Image side of the deep run (input is `side × side`).
    deep_side: usize,
    /// Conv channels of the deep stack (+ embedding + head ≥ 6 layers).
    deep_channels: &'static [usize],
    deep_steps: usize,
    /// Image side of the sweep runs.
    sweep_side: usize,
    sweep_steps: usize,
    /// Seeds averaged per sweep point (single runs are dominated by
    /// pulse-level noise — a deep analog net can die early by chance).
    sweep_seeds: u64,
    gate_steps: usize,
    measured_steps: usize,
    train_per_class: usize,
    test_per_class: usize,
}

const FULL: Sizes = Sizes {
    // 28 → 26 → pool 13 → 11 → pool 5 → 3 → 1: four conv stages fit.
    deep_side: 28,
    deep_channels: &[4, 6, 6, 8],
    deep_steps: 3600,
    sweep_side: 12,
    sweep_steps: 2400,
    sweep_seeds: 3,
    gate_steps: 12,
    measured_steps: 64,
    train_per_class: 30,
    test_per_class: 12,
};

const SMOKE: Sizes = Sizes {
    deep_side: 28,
    deep_channels: &[4, 6, 6, 8],
    deep_steps: 60,
    sweep_side: 12,
    sweep_steps: 30,
    sweep_seeds: 2,
    gate_steps: 10,
    measured_steps: 32,
    train_per_class: 10,
    test_per_class: 6,
};

fn make_data(side: usize, per_class: usize, test_per_class: usize, seed: u64) -> Split {
    let mut rng = Rng64::new(seed);
    enw_core::nn::data::SyntheticImages::builder()
        .classes(4)
        .dim(side * side)
        .train_per_class(per_class)
        .test_per_class(test_per_class)
        .noise(0.3)
        .build(&mut rng)
}

fn make_cfg(side: usize, channels: &[usize], spec: DeviceSpec, tiling: TilingConfig) -> PipelineConfig {
    PipelineConfig {
        net: ConvNetConfig {
            input: MapShape { channels: 1, height: side, width: side },
            conv_channels: channels.to_vec(),
            embed_dim: 24,
            classes: 4,
        },
        spec,
        tile: TileConfig::default(),
        tiling,
        // Streaming conv training applies one rank-1 update per im2col
        // position, so the effective per-sample step is much larger than
        // the MLP experiments' — 0.005 is the stable operating point.
        lr: 0.005,
        seed: SEED,
    }
}

fn gate_cfg() -> PipelineConfig {
    make_cfg(8, &[3, 4], devices::rram(), TilingConfig { tile_rows: 8, tile_cols: 10 })
}

/// Runs `steps` training steps on a fresh pipeline and returns the final
/// checkpoint — the byte-exact image of every piece of mutable state.
fn run_to_checkpoint(cfg: &PipelineConfig, data: &Dataset, steps: usize) -> Vec<u8> {
    let mut p = AnalogPipeline::new(cfg, data).expect("valid gate config");
    p.run(data, steps);
    p.checkpoint()
}

struct Gates {
    rerun_identical: bool,
    thread_invariant: bool,
    resume_identical: bool,
    allocs_per_step: f64,
    bytes_per_step: f64,
    zero_alloc: bool,
}

fn check_gates(sizes: &Sizes) -> Gates {
    let cfg = gate_cfg();
    let data = make_data(8, sizes.train_per_class, 2, SEED).train;
    let steps = sizes.gate_steps;

    // 1. Rerun determinism.
    let base = run_to_checkpoint(&cfg, &data, steps);
    let rerun_identical = base == run_to_checkpoint(&cfg, &data, steps);

    // 2. Thread invariance (the fan-out order over tiles must not leak).
    let thread_invariant = [1usize, 2, 8]
        .iter()
        .all(|&t| with_threads(t, || run_to_checkpoint(&cfg, &data, steps)) == base);

    // 3. Checkpoint/resume byte-identity.
    let mut a = AnalogPipeline::new(&cfg, &data).expect("valid gate config");
    a.run(&data, steps);
    let mid = a.checkpoint();
    a.run(&data, steps);
    let uninterrupted = a.checkpoint();
    let mut b = AnalogPipeline::new(&cfg, &data).expect("valid gate config");
    b.restore(&mid).expect("own checkpoint restores");
    b.run(&data, steps);
    let resume_identical = b.checkpoint() == uninterrupted;

    // 4. Zero allocations per steady-state step, once every owned
    // buffer is grown.
    let mut p = AnalogPipeline::new(&cfg, &data).expect("valid gate config");
    for _ in 0..WARMUP_STEPS {
        p.step(&data);
    }
    let s0 = alloc_audit::snapshot();
    for _ in 0..sizes.measured_steps {
        p.step(&data);
    }
    let d = alloc_audit::snapshot().since(s0);
    let allocs_per_step = d.allocs as f64 / sizes.measured_steps as f64;
    let bytes_per_step = d.bytes as f64 / sizes.measured_steps as f64;

    Gates {
        rerun_identical,
        thread_invariant,
        resume_identical,
        allocs_per_step,
        bytes_per_step,
        zero_alloc: d.allocs == 0,
    }
}

struct DeepRun {
    layers: usize,
    tiles: usize,
    steps: u64,
    loss_first: f64,
    loss_last: f64,
    accuracy: f64,
    throughput: f64,
    clock_ms: f64,
    pulses: u64,
}

fn run_deep(sizes: &Sizes) -> DeepRun {
    let split = make_data(sizes.deep_side, sizes.train_per_class, sizes.test_per_class, SEED);
    // ECRAM: the symmetric, many-state technology the paper positions
    // for training — asymmetric RRAM collapses under plain SGD at this
    // depth (the sweep below records that surface; E4 holds the fix).
    let cfg = make_cfg(
        sizes.deep_side,
        sizes.deep_channels,
        devices::ecram(),
        TilingConfig { tile_rows: 16, tile_cols: 24 },
    );
    let mut p = AnalogPipeline::new(&cfg, &split.train).expect("valid deep config");
    let layers = p.net_mut().layer_count();
    let tiles = p.net_mut().backends().map(|l| l.tile_count()).sum();
    let chunk = sizes.deep_steps / 4;
    let loss_first = p.run(&split.train, chunk);
    p.run(&split.train, sizes.deep_steps - 2 * chunk);
    let loss_last = p.run(&split.train, chunk);
    let accuracy = p.evaluate(&split.test);
    DeepRun {
        layers,
        tiles,
        steps: p.steps(),
        loss_first,
        loss_last,
        accuracy,
        throughput: p.throughput(),
        clock_ms: p.clock_ns() as f64 / 1e6,
        pulses: p.stats().pulses,
    }
}

struct SweepPoint {
    device: &'static str,
    depth: usize,
    tile_rows: usize,
    tile_cols: usize,
    tiles: usize,
    accuracy: f64,
    throughput: f64,
    pulses: u64,
}

type DeviceFactory = fn() -> DeviceSpec;

fn run_sweep(sizes: &Sizes) -> Vec<SweepPoint> {
    let split = make_data(sizes.sweep_side, sizes.train_per_class, sizes.test_per_class, SEED + 1);
    let device_axis: &[(&'static str, DeviceFactory)] = &[
        ("ideal", || devices::ideal(1200)),
        ("rram", devices::rram),
        ("rram_optimized", devices::rram_optimized),
        ("ecram", devices::ecram),
    ];
    let tiling_axis =
        [TilingConfig { tile_rows: 256, tile_cols: 256 }, TilingConfig { tile_rows: 8, tile_cols: 8 }];
    let mut points = Vec::new();
    // Device × tiling surface at the deepest stack that fits the sweep
    // canvas (12 → 10 → pool 5 → 3 → 1: three conv stages).
    for (name, spec) in device_axis {
        for tiling in tiling_axis {
            points.push(sweep_point(sizes, &split, name, spec(), &[3, 4, 5], tiling));
        }
    }
    // Depth axis on the reference device at fine tiling.
    for depth in 1..=2usize {
        let channels: &[usize] = &[3, 4][..depth];
        points.push(sweep_point(
            sizes,
            &split,
            "rram",
            devices::rram(),
            channels,
            TilingConfig { tile_rows: 8, tile_cols: 8 },
        ));
    }
    points
}

fn sweep_point(
    sizes: &Sizes,
    split: &Split,
    device: &'static str,
    spec: DeviceSpec,
    channels: &[usize],
    tiling: TilingConfig,
) -> SweepPoint {
    let mut cfg = make_cfg(sizes.sweep_side, channels, spec, tiling);
    let (mut acc, mut thr, mut pulses, mut tiles) = (0.0f64, 0.0f64, 0u64, 0usize);
    for s in 0..sizes.sweep_seeds {
        cfg.seed = SEED + 1 + s;
        let mut p = AnalogPipeline::new(&cfg, &split.train).expect("valid sweep config");
        p.run(&split.train, sizes.sweep_steps);
        acc += p.evaluate(&split.test);
        thr += p.throughput();
        pulses += p.stats().pulses;
        tiles = p.net_mut().backends().map(|l| l.tile_count()).sum();
    }
    let n = sizes.sweep_seeds as f64;
    SweepPoint {
        device,
        depth: channels.len() + 2,
        tile_rows: tiling.tile_rows,
        tile_cols: tiling.tile_cols,
        tiles,
        accuracy: acc / n,
        throughput: thr / n,
        pulses: pulses / sizes.sweep_seeds,
    }
}
fn to_json(gates: &Gates, deep: &DeepRun, sweep: &[SweepPoint], smoke: bool) -> Json {
    let determinism = Json::Obj(vec![
        ("rerun_identical", gates.rerun_identical.into()),
        ("thread_invariant", gates.thread_invariant.into()),
        ("resume_identical", gates.resume_identical.into()),
    ]);
    let zero_alloc = Json::Obj(vec![
        ("warmup_steps", num(WARMUP_STEPS)),
        ("allocs_per_step", num(format_args!("{:.4}", gates.allocs_per_step))),
        ("bytes_per_step", num(format_args!("{:.1}", gates.bytes_per_step))),
        ("zero_alloc_steady_state", gates.zero_alloc.into()),
    ]);
    let deep = Json::Obj(vec![
        ("layers", num(deep.layers)),
        ("tiles", num(deep.tiles)),
        ("steps", num(deep.steps)),
        ("loss_first", num(format_args!("{:.4}", deep.loss_first))),
        ("loss_last", num(format_args!("{:.4}", deep.loss_last))),
        ("accuracy", num(format_args!("{:.4}", deep.accuracy))),
        ("throughput_samples_per_s", num(format_args!("{:.1}", deep.throughput))),
        ("virtual_ms", num(format_args!("{:.3}", deep.clock_ms))),
        ("pulses", num(deep.pulses)),
    ]);
    let point = |p: &SweepPoint| {
        Json::Obj(vec![
            ("device", p.device.into()),
            ("layers", num(p.depth)),
            ("tile_rows", num(p.tile_rows)),
            ("tile_cols", num(p.tile_cols)),
            ("tiles", num(p.tiles)),
            ("accuracy", num(format_args!("{:.4}", p.accuracy))),
            ("throughput_samples_per_s", num(format_args!("{:.1}", p.throughput))),
            ("pulses", num(p.pulses)),
        ])
    };
    Json::Obj(vec![
        ("bench", "deep_analog".into()),
        ("seed", num(SEED)),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("determinism", determinism),
        ("zero_alloc", zero_alloc),
        ("deep", deep),
        ("surface", Json::arr(sweep.iter().map(point))),
    ])
}

pub fn run(run: &mut Run) {
    let smoke = run.smoke;
    let sizes = if smoke { &SMOKE } else { &FULL };
    println!("mode: {}", if smoke { "smoke" } else { "full" });
    println!();

    let gates = check_gates(sizes);
    println!(
        "rerun determinism:   {}",
        if gates.rerun_identical { "PASS (byte-identical)" } else { "FAIL" }
    );
    println!(
        "thread invariance:   {}",
        if gates.thread_invariant { "PASS (ENW_THREADS=1/2/8 byte-identical)" } else { "FAIL" }
    );
    println!(
        "checkpoint/resume:   {}",
        if gates.resume_identical { "PASS (resume == uninterrupted)" } else { "FAIL" }
    );
    println!(
        "steady-state allocs: {:.4}/step ({:.1} bytes) -> {}",
        gates.allocs_per_step,
        gates.bytes_per_step,
        if gates.zero_alloc { "PASS (zero-alloc)" } else { "FAIL" }
    );
    println!();

    let deep = run_deep(sizes);
    println!(
        "deep stack: {} trainable layers over {} tiles; loss {:.3} -> {:.3} after {} steps; test accuracy {:.1}%",
        deep.layers,
        deep.tiles,
        deep.loss_first,
        deep.loss_last,
        deep.steps,
        100.0 * deep.accuracy
    );
    println!(
        "virtual clock: {:.3} ms for {} steps -> {:.0} samples/s steady state; {} pulses fired",
        deep.clock_ms, deep.steps, deep.throughput, deep.pulses
    );
    println!();

    let sweep = run_sweep(sizes);
    let mut table = Table::new(&[
        "device",
        "layers",
        "tile grid",
        "tiles",
        "accuracy",
        "samples/s",
        "pulses",
    ]);
    for p in &sweep {
        table.row_owned(vec![
            p.device.to_string(),
            p.depth.to_string(),
            format!("{}x{}", p.tile_rows, p.tile_cols),
            p.tiles.to_string(),
            format!("{:.1}%", 100.0 * p.accuracy),
            format!("{:.0}", p.throughput),
            p.pulses.to_string(),
        ]);
    }
    run.emit(&table);

    run.json("BENCH_analog_training.json", &to_json(&gates, &deep, &sweep, smoke));

    println!();
    println!("Reading: sharding every layer across tile grids leaves training a deterministic");
    println!("function of (config, seed) — the partial-sum reduction order is fixed, tile RNG");
    println!("streams are forked in grid order, and the double-buffered input stage plus the");
    println!("virtual clock make prefetch overlap free without breaking reproducibility. The");
    println!("checkpoint carries conductances, RNG streams, and the clock as raw bits, so a");
    println!("resumed run is indistinguishable from an uninterrupted one. The device surface");
    println!("reproduces Sec. II at depth: symmetric many-state technologies (ideal, ECRAM)");
    println!("train; asymmetric RRAM collapses under plain SGD — the failure zero-shifting");
    println!("and Tiki-Taka (E4) exist to fix. Fine tiling costs throughput (more partial-sum");
    println!("reads per cycle) but not correctness: the reduction stays bit-deterministic.");

    for (name, ok, detail) in [
        ("rerun_identical", gates.rerun_identical, "two seeded runs checkpoint to the same bytes"),
        ("thread_invariant", gates.thread_invariant, "same checkpoint at ENW_THREADS=1/2/8"),
        ("resume_identical", gates.resume_identical, "resume == uninterrupted run, byte for byte"),
        ("zero_alloc_steady_state", gates.zero_alloc, "no allocation anywhere over warm steps"),
        ("deep_stack_has_6_layers", deep.layers >= 6, "trainable layers in the deep run"),
        ("surface_has_8_points", sweep.len() >= 8, "device x tiling x depth sweep points"),
    ] {
        run.gate(name, ok, detail);
    }
}
