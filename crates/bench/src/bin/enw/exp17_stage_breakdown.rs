//! E17 — per-stage work attribution across all four workload lanes via
//! the `enw-trace` span recorder (methodology companion to E1/E16).
//!
//! Every kernel crate records deterministic work units (element counts,
//! pulses) into named spans (`lane/stage`). This binary runs a small
//! representative workload per lane — analog crossbar training with
//! Tiki-Taka transfers, the MANN/X-MANN/TCAM few-shot memory path, DLRM
//! inference, and the E16 serving fleet — and reports each stage's share
//! of its lane's total work. Because the attributed quantities are element
//! counts on the virtual clock, every number here is bit-identical across
//! reruns and any `ENW_THREADS` setting (asserted by rerunning each lane).
//!
//! Emits `BENCH_stage_breakdown.json` (chrome-trace-style summary per
//! lane) in the working directory. Pass `--smoke` for CI-sized inputs.

use crate::json::{num, Json};
use crate::run::Run;
use enw_core::crossbar::devices;
use enw_core::crossbar::pipeline::{AnalogPipeline, PipelineConfig};
use enw_core::crossbar::tiki_taka::TikiTakaConfig;
use enw_core::crossbar::tile::TileConfig;
use enw_core::crossbar::tiled::TilingConfig;
use enw_core::crossbar::train::{tiki_taka_mlp, train_and_evaluate};
use enw_core::mann::memory::{DifferentiableMemory, Similarity};
use enw_core::nn::activation::Activation;
use enw_core::nn::conv::{ConvNetConfig, MapShape};
use enw_core::nn::data::SyntheticImages;
use enw_core::nn::mlp::SgdConfig;
use enw_core::numerics::bits::BitVec;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::trace::TraceGenerator;
use enw_core::report::Table;
use enw_core::serve::presets::{saturation_qps, traffic_classes, try_fleet};
use enw_core::serve::{generate_trace, LoadSpec};
use enw_core::trace::{self, TraceMode, TraceReport};
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::XmannCostParams;
use enw_core::{cam, numerics};

const SEED: u64 = 17;

/// Analog crossbar training lane: forward/backward MVMs, stochastic-pulse
/// updates, programming, Tiki-Taka column transfers, and the streaming
/// tiled conv pipeline (partial-sum reduction + prefetch spans).
fn lane_crossbar(smoke: bool) {
    let mut rng = Rng64::new(SEED);
    let split = SyntheticImages::builder()
        .classes(4)
        .dim(16)
        .train_per_class(if smoke { 8 } else { 40 })
        .test_per_class(4)
        .noise(1.0)
        .build(&mut rng);
    let mut mlp = tiki_taka_mlp(
        &[16, 12, 4],
        &devices::rram(),
        TileConfig::default(),
        TikiTakaConfig::default(),
        Activation::Tanh,
        &mut rng,
    );
    let cfg = SgdConfig { epochs: if smoke { 1 } else { 3 }, learning_rate: 0.05 };
    let out = train_and_evaluate(&mut mlp, &split, &cfg, &mut rng);
    assert!((0.0..=1.0).contains(&out.test_accuracy));

    // Streaming tiled training (E21): conv-as-crossbar-matmul at depth,
    // attributed via the tiled reduce and train fb/update/prefetch spans.
    let conv_split = SyntheticImages::builder()
        .classes(3)
        .dim(64)
        .train_per_class(if smoke { 4 } else { 12 })
        .test_per_class(2)
        .build(&mut Rng64::new(SEED + 1));
    let pipe_cfg = PipelineConfig {
        net: ConvNetConfig {
            input: MapShape { channels: 1, height: 8, width: 8 },
            conv_channels: vec![3, 4],
            embed_dim: 12,
            classes: 3,
        },
        spec: devices::ecram(),
        tile: TileConfig::default(),
        tiling: TilingConfig { tile_rows: 8, tile_cols: 10 },
        lr: 0.005,
        seed: SEED,
    };
    let mut pipe = AnalogPipeline::new(&pipe_cfg, &conv_split.train).expect("valid lane config");
    pipe.run(&conv_split.train, if smoke { 4 } else { 24 });
}

/// Few-shot memory lane: MANN similarity scan, X-MANN tiled
/// similarity/read/write, and TCAM nearest-match search.
fn lane_fewshot(smoke: bool) {
    let mut rng = Rng64::new(SEED);
    let slots = if smoke { 64 } else { 512 };
    let dim = 32;
    let queries = if smoke { 8 } else { 64 };

    let mem = DifferentiableMemory::random(slots, dim, &mut rng);
    let mut xm = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
    let rows: Vec<Vec<f32>> = (0..slots).map(|s| mem.slot(s).to_vec()).collect();
    xm.load_memory(&rows);

    let mut bank = cam::bank::TcamBank::new(
        dim,
        16,
        cam::cells::fefet_2t(),
        cam::array::TcamConfig::default(),
    );
    for row in &rows {
        let bits: Vec<bool> = row.iter().map(|&v| v >= 0.0).collect();
        bank.write(BitVec::from_bools(&bits));
    }

    let (mut scores, mut weights) = (vec![0.0f32; slots], vec![0.0f32; slots]);
    let mut read = vec![0.0f32; dim];
    for _ in 0..queries {
        let q: Vec<f32> = (0..dim).map(|_| rng.uniform_f32() - 0.5).collect();
        mem.similarities_into(&q, Similarity::Cosine, &mut scores);
        xm.similarity_into(&q, &mut weights);
        numerics::vector::softmax_in_place(&mut weights, 1.0);
        xm.soft_read_into(&weights, &mut read);
        let erase = vec![0.1f32; dim];
        let _ = xm.soft_write(&weights, &erase, &q);
        let bits: Vec<bool> = q.iter().map(|&v| v >= 0.0).collect();
        let _ = bank.search_nearest(&BitVec::from_bools(&bits));
    }
}

/// Recommendation lane: embedding gather+pool and the MLP stacks of a
/// DLRM-style model over a Zipf-skewed query trace.
fn lane_recsys(smoke: bool) {
    let mut rng = Rng64::new(SEED);
    let cfg = RecModelConfig {
        dense_features: 16,
        bottom_mlp: vec![32, 16],
        tables: vec![(1000, 4); 4],
        embedding_dim: 16,
        top_mlp: vec![32],
        interaction: Interaction::DotPairwise,
    };
    let mut model = RecModel::new(&cfg, &mut rng);
    let gen = TraceGenerator::new(&cfg, 1.0);
    let queries = gen.batch(if smoke { 64 } else { 512 }, &mut rng);
    let mut preds = vec![0.0f32; queries.len()];
    model.predict_batch_into(&queries, &mut preds);
    assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
}

/// Serving lane: the E16 fleet near its saturation knee on a short
/// virtual-time trace.
fn lane_serve(smoke: bool) {
    let server = try_fleet(SEED).expect("preset fleet");
    let classes = traffic_classes();
    let qps = 0.9 * saturation_qps(&server, &classes);
    let horizon_ns = if smoke { 5_000_000 } else { 50_000_000 };
    let spec = LoadSpec { qps, duration_ns: horizon_ns, seed: SEED };
    let trace = generate_trace(&server, &spec, &classes);
    let report = server.try_run(&trace).expect("generated trace is valid");
    assert!(!report.stations.is_empty());
}

/// Runs one lane under a fresh summary-mode recording and drains it.
fn record_lane(run: &dyn Fn(bool), smoke: bool) -> TraceReport {
    trace::reset();
    run(smoke);
    trace::take_report()
}

struct Lane {
    name: &'static str,
    report: TraceReport,
}
/// One object per lane with per-stage counts, work units, and work
/// shares.
fn to_json(lanes: &[Lane], smoke: bool, deterministic: bool) -> Json {
    let lane = |l: &Lane| {
        let total = l.report.total_work().max(1);
        let stages = l.report.spans.iter().map(|sp| {
            Json::Obj(vec![
                ("name", sp.name.into()),
                ("count", num(sp.count)),
                ("work", num(sp.work)),
                ("work_share", num(format_args!("{:.6}", sp.work as f64 / total as f64))),
            ])
        });
        Json::Obj(vec![
            ("name", l.name.into()),
            ("total_work", num(l.report.total_work())),
            ("stages", Json::arr(stages)),
        ])
    };
    Json::Obj(vec![
        ("bench", "stage_breakdown".into()),
        ("seed", num(SEED)),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("deterministic_rerun", deterministic.into()),
        ("lanes", Json::arr(lanes.iter().map(lane))),
    ])
}

pub fn run(run: &mut Run) {
    let smoke = run.smoke;
    println!(
        "mode: {}; work units are deterministic element/pulse counts, so every share below",
        if smoke { "smoke" } else { "full" }
    );
    println!("is bit-identical across reruns and any ENW_THREADS setting\n");
    trace::set_mode(TraceMode::Summary);

    let runs: [(&'static str, &dyn Fn(bool)); 4] = [
        ("crossbar_training", &lane_crossbar),
        ("fewshot_memory", &lane_fewshot),
        ("recsys_inference", &lane_recsys),
        ("serving", &lane_serve),
    ];

    // Each lane runs twice; the recorder must produce the same bytes both
    // times or the attribution is not trustworthy.
    let mut deterministic = true;
    let mut lanes = Vec::new();
    for (name, lane) in runs {
        let first = record_lane(lane, smoke);
        let second = record_lane(lane, smoke);
        run.gate(
            &format!("{name}_recorded_spans"),
            !first.spans.is_empty(),
            format!("{} spans", first.spans.len()),
        );
        deterministic &= first == second;
        lanes.push(Lane { name, report: first });
    }
    run.gate(
        "deterministic_rerun",
        deterministic,
        "each lane's rerun drains an identical trace report",
    );

    let mut table = Table::new(&["lane", "stage", "count", "work units", "work %"]);
    for l in &lanes {
        let total = l.report.total_work().max(1);
        for sp in &l.report.spans {
            table.row_owned(vec![
                l.name.to_string(),
                sp.name.to_string(),
                format!("{}", sp.count),
                format!("{}", sp.work),
                format!("{:.1}%", 100.0 * sp.work as f64 / total as f64),
            ]);
        }
    }
    run.emit(&table);

    run.json("BENCH_stage_breakdown.json", &to_json(&lanes, smoke, deterministic));

    println!();
    println!("Reading: training work concentrates in the crossbar MVM/update pair with a");
    println!("fixed Tiki-Taka transfer overhead; the few-shot path is dominated by the");
    println!("similarity scans the CAM/X-MANN hardware accelerates; DLRM splits between");
    println!("embedding gather and the MLP stacks; serving work sits in backend execution.");
    println!("These shares are the attribution the paper's per-workload hardware arguments");
    println!("rest on, derived from the same instrumented kernels the experiments run.");
}
