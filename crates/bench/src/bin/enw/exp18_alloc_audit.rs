//! E18 — allocation accounting for the zero-allocation hot paths
//! (methodology companion to E17).
//!
//! The memory-bound workloads (recsys Sec. V, X-MANN Sec. III) spend
//! their budget on bytes moved, so per-inference `Vec` churn is pure
//! overhead. Under `enw`'s counting `#[global_allocator]` this
//! measures, for each of the four workload lanes, heap allocations and
//! bytes per inference through the allocating convenience APIs (before)
//! versus the `_into` APIs (after), whose temporaries live in workspaces
//! their holders own, once warm. It also
//! shows the serving event loop allocates nothing per request at steady
//! state: the marginal allocation cost of 8x more requests through a
//! station is ~zero.
//!
//! Emits `BENCH_alloc.json` in the working directory. Pass `--smoke` for
//! CI-sized iteration counts.

use crate::json::{num, Json};
use crate::run::Run;
use enw_bench::alloc_audit::{self, serve_run_allocs};
use enw_core::crossbar::devices;
use enw_core::crossbar::tile::{AnalogTile, TileConfig};
use enw_core::mann::memory::{DifferentiableMemory, Similarity};
use enw_core::nn::backend::LinearBackend;
use enw_core::numerics::rng::Rng64;
use enw_core::parallel;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::trace::TraceGenerator;
use enw_core::report::Table;
use enw_core::trace::{self, TraceMode};
use enw_core::xmann::arch::{Xmann, XmannConfig};
use enw_core::xmann::cost::XmannCostParams;
use std::hint::black_box;

const SEED: u64 = 18;
const WARMUP: usize = 32;

/// Allocations and bytes per iteration of `f`, after `WARMUP` unmeasured
/// iterations have faulted pages in and grown every owned workspace.
fn measure(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    for _ in 0..WARMUP {
        f();
    }
    let s0 = alloc_audit::thread_snapshot();
    for _ in 0..iters {
        f();
    }
    let d = alloc_audit::thread_snapshot().since(s0);
    (d.allocs as f64 / iters as f64, d.bytes as f64 / iters as f64)
}

struct Lane {
    name: &'static str,
    before: (f64, f64),
    after: (f64, f64),
}

impl Lane {
    fn reduction_pct(&self) -> f64 {
        if self.before.0 <= 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.after.0 / self.before.0)
    }

    fn meets_target(&self) -> bool {
        self.reduction_pct() >= 90.0
    }
}

/// Analog crossbar inference: `AnalogTile::forward` (allocating) vs
/// `forward_into` writing a caller buffer.
fn lane_crossbar(iters: usize) -> Lane {
    let mut rng = Rng64::new(SEED);
    let (out_dim, in_dim) = (64, 64);
    let mut tile =
        AnalogTile::new(out_dim, in_dim, &devices::rram(), TileConfig::default(), &mut rng);
    let x: Vec<f32> = (0..in_dim).map(|_| rng.uniform_f32() - 0.5).collect();
    let before = measure(iters, || {
        black_box(tile.forward(&x));
    });
    let mut out = vec![0.0f32; out_dim];
    let after = measure(iters, || {
        tile.forward_into(&x, &mut out);
        black_box(out[0]);
    });
    Lane { name: "crossbar", before, after }
}

/// X-MANN content addressing + soft read: the allocating API pair vs the
/// `_into` pair over reused buffers.
fn lane_xmann(iters: usize) -> Lane {
    let (slots, dim) = (128, 32);
    let mut rng = Rng64::new(SEED);
    let rows: Vec<Vec<f32>> =
        (0..slots).map(|_| (0..dim).map(|_| rng.uniform_f32() - 0.5).collect()).collect();
    let mut xm = Xmann::new(slots, dim, XmannConfig::default(), XmannCostParams::default());
    xm.load_memory(&rows);
    let q: Vec<f32> = (0..dim).map(|_| rng.uniform_f32() - 0.5).collect();
    let before = measure(iters, || {
        let w = xm.content_address(&q, 1.0);
        let r = xm.soft_read(&w.value);
        black_box(r.value[0]);
    });
    let mut w = vec![0.0f32; slots];
    let mut r = vec![0.0f32; dim];
    let after = measure(iters, || {
        xm.content_address_into(&q, 1.0, &mut w);
        xm.soft_read_into(&w, &mut r);
        black_box(r[0]);
    });
    // The `_into` forms must be bit-identical to the allocating forms.
    let reference = xm.content_address(&q, 1.0).value;
    assert!(
        w.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
        "content_address_into diverged from content_address"
    );
    Lane { name: "xmann", before, after }
}

/// MANN/CAM few-shot memory path: differentiable-memory content
/// addressing + soft read, allocating vs `_into`.
fn lane_cam_mann(iters: usize) -> Lane {
    let (slots, dim) = (256, 32);
    let mut rng = Rng64::new(SEED);
    let mem = DifferentiableMemory::random(slots, dim, &mut rng);
    let q: Vec<f32> = (0..dim).map(|_| rng.uniform_f32() - 0.5).collect();
    let before = measure(iters, || {
        let w = mem.content_address(&q, Similarity::Cosine, 2.0);
        let r = mem.soft_read(&w);
        black_box(r[0]);
    });
    let mut w = vec![0.0f32; slots];
    let mut r = vec![0.0f32; dim];
    let after = measure(iters, || {
        mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
        mem.soft_read_into(&w, &mut r);
        black_box(r[0]);
    });
    let ref_w = mem.content_address(&q, Similarity::Cosine, 2.0);
    let ref_r = mem.soft_read(&ref_w);
    assert!(
        r.iter().zip(&ref_r).all(|(a, b)| a.to_bits() == b.to_bits()),
        "soft_read_into diverged from soft_read"
    );
    Lane { name: "cam_mann", before, after }
}

/// DLRM-style CTR inference: per-table `lookup_pool` + the pooled
/// predict entry (allocating composition) vs the fused `predict_query`,
/// which runs in the model's own workspace.
fn lane_recsys(iters: usize) -> Lane {
    let mut rng = Rng64::new(SEED);
    let cfg = recsys_cfg();
    let mut model = RecModel::new(&cfg, &mut rng);
    let gen = TraceGenerator::new(&cfg, 1.0);
    let q = gen.query(&mut rng);
    let before = measure(iters, || {
        let pooled: Vec<Vec<f32>> =
            model.tables().iter().zip(&q.sparse).map(|(t, idx)| t.lookup_pool(idx)).collect();
        black_box(model.predict_with_pooled(&q.dense, &pooled));
    });
    let after = measure(iters, || {
        black_box(model.predict_query(&q));
    });
    let pooled: Vec<Vec<f32>> =
        model.tables().iter().zip(&q.sparse).map(|(t, idx)| t.lookup_pool(idx)).collect();
    let a = model.predict_with_pooled(&q.dense, &pooled);
    let b = model.predict_query(&q);
    assert!(a.to_bits() == b.to_bits(), "pooled and fused predictions diverged");
    Lane { name: "recsys", before, after }
}

fn recsys_cfg() -> RecModelConfig {
    RecModelConfig {
        dense_features: 16,
        bottom_mlp: vec![32, 16],
        tables: vec![(1000, 4); 4],
        embedding_dim: 16,
        top_mlp: vec![32],
        interaction: Interaction::DotPairwise,
    }
}

/// Allocations of one warm `predict_batch_into` over a full block of
/// 256 queries at one thread: the weights are packed at construction and
/// the block's matrices live in the model's per-participant windows,
/// grown by the first call, so the count is 0.
fn recsys_batch_allocs() -> u64 {
    let mut rng = Rng64::new(SEED);
    let cfg = recsys_cfg();
    let mut model = RecModel::new(&cfg, &mut rng);
    let queries = TraceGenerator::new(&cfg, 1.0).batch(256, &mut rng);
    let mut ctrs = vec![0.0f32; queries.len()];
    parallel::with_threads(1, || {
        model.predict_batch_into(&queries, &mut ctrs);
        let before = alloc_audit::thread_snapshot();
        model.predict_batch_into(&queries, &mut ctrs);
        black_box(&ctrs);
        alloc_audit::thread_snapshot().since(before).allocs
    })
}

struct ServeCheck {
    small_n: usize,
    large_n: usize,
    small_allocs: u64,
    large_allocs: u64,
}

impl ServeCheck {
    fn marginal_per_request(&self) -> f64 {
        self.large_allocs.saturating_sub(self.small_allocs) as f64
            / (self.large_n - self.small_n) as f64
    }

    fn zero_alloc(&self) -> bool {
        // The window is this thread's own, so the count is exact: 8x the
        // requests must cost not one allocation more.
        self.large_allocs == self.small_allocs
    }
}

fn check_serve(smoke: bool) -> ServeCheck {
    let (small_n, large_n) = if smoke { (256, 2048) } else { (512, 4096) };
    // Warm-up run: faults in code paths and any lazily initialized state.
    let allocs = |n| serve_run_allocs(n).expect("fixed station and trace are valid");
    let _ = allocs(small_n);
    let (small_allocs, large_allocs) = (allocs(small_n), allocs(large_n));
    ServeCheck { small_n, large_n, small_allocs, large_allocs }
}
fn to_json(lanes: &[Lane], serve: &ServeCheck, smoke: bool) -> Json {
    let lane = |l: &Lane| {
        Json::Obj(vec![
            ("name", l.name.into()),
            ("allocs_per_inference_before", num(format_args!("{:.3}", l.before.0))),
            ("allocs_per_inference_after", num(format_args!("{:.3}", l.after.0))),
            ("bytes_per_inference_before", num(format_args!("{:.1}", l.before.1))),
            ("bytes_per_inference_after", num(format_args!("{:.1}", l.after.1))),
            ("alloc_reduction_pct", num(format_args!("{:.1}", l.reduction_pct()))),
            ("meets_90pct_target", l.meets_target().into()),
        ])
    };
    let marginal = serve.marginal_per_request();
    let serve = Json::Obj(vec![
        ("requests_small", num(serve.small_n)),
        ("requests_large", num(serve.large_n)),
        ("allocs_small", num(serve.small_allocs)),
        ("allocs_large", num(serve.large_allocs)),
        ("allocs_marginal_per_request", num(format_args!("{marginal:.4}"))),
        ("zero_alloc_steady_state", serve.zero_alloc().into()),
    ]);
    Json::Obj(vec![
        ("bench", "alloc_audit".into()),
        ("seed", num(SEED)),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("lanes", Json::arr(lanes.iter().map(lane))),
        ("serve", serve),
    ])
}

pub fn run(run: &mut Run) {
    let smoke = run.smoke;
    let iters = if smoke { 64 } else { 512 };
    // Feed the counting allocator into the trace layer so
    // ENW_TRACE=summary output carries the allocator line.
    let installed = trace::install_alloc_source(alloc_audit::counters);
    println!(
        "mode: {}; counting global allocator installed (trace alloc source: {}); {} measured",
        if smoke { "smoke" } else { "full" },
        if installed { "wired" } else { "already set" },
        format_args!("{iters} inferences per lane after {WARMUP} warm-up"),
    );
    println!();

    let lanes =
        vec![lane_crossbar(iters), lane_xmann(iters), lane_cam_mann(iters), lane_recsys(iters)];
    let serve = check_serve(smoke);

    let mut table = Table::new(&[
        "lane",
        "allocs/inf before",
        "allocs/inf after",
        "bytes/inf before",
        "bytes/inf after",
        "reduction",
    ]);
    for l in &lanes {
        table.row_owned(vec![
            l.name.to_string(),
            format!("{:.2}", l.before.0),
            format!("{:.2}", l.after.0),
            format!("{:.0}", l.before.1),
            format!("{:.0}", l.after.1),
            format!("{:.1}%", l.reduction_pct()),
        ]);
    }
    run.emit(&table);

    for l in &lanes {
        println!(
            "{}: {:.1}% fewer steady-state allocations per inference -> {}",
            l.name,
            l.reduction_pct(),
            if l.meets_target() { "PASS (>=90%)" } else { "BELOW TARGET" }
        );
        run.gate(
            &format!("{}_alloc_reduction", l.name),
            l.meets_target(),
            format!("{:.1}% fewer allocations per inference, target >= 90%", l.reduction_pct()),
        );
    }
    run.gate(
        "serve_zero_alloc_steady_state",
        serve.zero_alloc(),
        format!(
            "{} -> {} requests cost {} -> {} allocations",
            serve.small_n, serve.large_n, serve.small_allocs, serve.large_allocs
        ),
    );
    println!(
        "serve: {} -> {} requests cost {} -> {} allocations ({:.4}/extra request) -> {}",
        serve.small_n,
        serve.large_n,
        serve.small_allocs,
        serve.large_allocs,
        serve.marginal_per_request(),
        if serve.zero_alloc() { "PASS (zero-alloc steady state)" } else { "BELOW TARGET" }
    );

    run.json("BENCH_alloc.json", &to_json(&lanes, &serve, smoke));

    // Demonstrate the trace integration: a short burst under summary mode
    // renders the span table with the allocator totals appended.
    trace::set_mode(TraceMode::Summary);
    trace::reset();
    {
        let mut rng = Rng64::new(SEED);
        let mem = DifferentiableMemory::random(64, 16, &mut rng);
        let q: Vec<f32> = (0..16).map(|_| rng.uniform_f32() - 0.5).collect();
        let mut w = vec![0.0f32; 64];
        for _ in 0..8 {
            mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
        }
    }
    let report = trace::take_report();
    trace::set_mode(TraceMode::Off);
    println!();
    println!("ENW_TRACE=summary rendering with allocator totals:");
    print!("{}", report.summary_table());

    println!();
    println!("Reading: once the workspaces their holders own are grown, every kernel lane");
    println!("serves inference from reused buffers — the allocating convenience wrappers cost");
    println!("exactly their output vectors, and the _into forms cost nothing. The serving");
    println!("loop's batch and output arenas make the marginal allocation price of a request");
    println!("zero, so tail latency cannot inherit allocator jitter. Outputs stay bit-identical");
    println!("to the allocating APIs (asserted above), preserving the determinism contract.");

    // Last, so its own set-up shows in none of the totals printed above.
    let batch_allocs = recsys_batch_allocs();
    run.gate(
        "recsys_batch_zero_alloc",
        batch_allocs == 0,
        format!(
            "a warm 256-query predict_batch_into at one thread made {batch_allocs} allocations"
        ),
    );
}
