//! E16 — serving SLOs across the paper's workloads (Sec. V-B, lifted to
//! the whole fleet): one deterministic micro-batching runtime fronts the
//! analog crossbar, digital MLP, TCAM few-shot, and recsys lanes, and a
//! reproducible open-loop load generator sweeps the aggregate QPS from
//! under- to over-saturation. Reported per lane and level: latency
//! percentiles, shed/reject/miss rates, and degradation-ladder activity.
//!
//! The simulation itself runs on virtual time, so the response stream and
//! every percentile are a pure function of the seed.
//!
//! Emits `BENCH_serving.json` in the working directory so CI can track
//! tail latencies and shed rates over time. Pass `--smoke` for a short
//! trace (CI-sized); full runs use a 10x longer horizon.

use crate::json::{num, Json};
use crate::run::Run;
use enw_core::report::Table;
use enw_core::serve::presets::{saturation_qps, traffic_classes, try_fleet};
use enw_core::serve::{generate_trace, LoadSpec, RunReport, StationMetrics};

const SEED: u64 = 16;
/// Fractions of the fleet's saturation QPS swept by the experiment:
/// comfortably under, near the knee, and twice over.
const LEVELS: [f64; 4] = [0.4, 0.9, 1.5, 2.5];
const SMOKE_HORIZON_NS: u64 = 20_000_000; // 20 ms of virtual time
const FULL_HORIZON_NS: u64 = 200_000_000; // 200 ms of virtual time

struct LevelResult {
    qps_frac: f64,
    qps: f64,
    arrivals: usize,
    report: RunReport,
}

/// One simulated run at `frac` times saturation.
fn run_level(frac: f64, horizon_ns: u64) -> LevelResult {
    let server = try_fleet(SEED).expect("preset fleet");
    let classes = traffic_classes();
    let qps = frac * saturation_qps(&server, &classes);
    let spec = LoadSpec { qps, duration_ns: horizon_ns, seed: SEED ^ (frac.to_bits()) };
    let trace = generate_trace(&server, &spec, &classes);
    let arrivals = trace.len();
    let report = server.try_run(&trace).expect("generated trace is valid");
    LevelResult { qps_frac: frac, qps, arrivals, report }
}
fn to_json(levels: &[LevelResult], deterministic: bool) -> Json {
    let station = |l: &LevelResult, m: &StationMetrics| {
        let p = m.summary();
        Json::Obj(vec![
            ("name", m.name.as_str().into()),
            ("arrived", num(m.arrived)),
            ("completed", num(m.completed)),
            ("deadline_misses", num(m.deadline_misses)),
            ("shed", num(m.shed)),
            ("rejected", num(m.rejected)),
            ("p50_ns", num(p.p50_ns)),
            ("p95_ns", num(p.p95_ns)),
            ("p99_ns", num(p.p99_ns)),
            ("shed_rate", num(format_args!("{:.6}", m.shed_rate()))),
            ("reject_rate", num(format_args!("{:.6}", m.reject_rate()))),
            ("miss_rate", num(format_args!("{:.6}", m.miss_rate()))),
            ("goodput_qps", num(format_args!("{:.1}", m.goodput_qps(l.report.duration_ns)))),
            ("fallback_switches", num(m.fallback_switches)),
            ("recoveries", num(m.recoveries)),
            ("degraded_batches", num(m.degraded_batches)),
        ])
    };
    let level = |l: &LevelResult| {
        Json::Obj(vec![
            ("qps_frac", num(format_args!("{:.2}", l.qps_frac))),
            ("qps", num(format_args!("{:.1}", l.qps))),
            ("arrivals", num(l.arrivals)),
            ("stations", Json::arr(l.report.stations.iter().map(|m| station(l, m)))),
        ])
    };
    Json::Obj(vec![
        ("bench", "serving_slo".into()),
        ("seed", num(SEED)),
        ("deterministic_rerun", deterministic.into()),
        ("levels", Json::arr(levels.iter().map(level))),
    ])
}

pub fn run(run: &mut Run) {
    let smoke = run.smoke;
    let horizon_ns = if smoke { SMOKE_HORIZON_NS } else { FULL_HORIZON_NS };
    println!(
        "mode: {} ({} ms virtual horizon per level); levels are fractions of the fleet's saturation QPS\n",
        if smoke { "smoke" } else { "full" },
        horizon_ns / 1_000_000
    );

    // Determinism spot-check: the whole point of the virtual clock is that
    // a rerun of the same (seed, spec) yields the same bytes.
    let deterministic = {
        let a = run_level(LEVELS[0], SMOKE_HORIZON_NS).report.render();
        let b = run_level(LEVELS[0], SMOKE_HORIZON_NS).report.render();
        a == b
    };
    run.gate("deterministic_rerun", deterministic, "same (seed, spec) renders the same bytes");

    let levels: Vec<LevelResult> = LEVELS.iter().map(|&f| run_level(f, horizon_ns)).collect();

    let mut table = Table::new(&[
        "load", "lane", "arrived", "p50 (us)", "p95 (us)", "p99 (us)", "shed", "rejected", "late",
        "fallback",
    ]);
    for l in &levels {
        for m in &l.report.stations {
            let p = m.summary();
            table.row_owned(vec![
                format!("{:.1}x sat", l.qps_frac),
                m.name.clone(),
                format!("{}", m.arrived),
                format!("{:.1}", p.p50_ns as f64 / 1e3),
                format!("{:.1}", p.p95_ns as f64 / 1e3),
                format!("{:.1}", p.p99_ns as f64 / 1e3),
                format!("{:.1}%", 100.0 * m.shed_rate()),
                format!("{:.1}%", 100.0 * m.reject_rate()),
                format!("{:.1}%", 100.0 * m.miss_rate()),
                format!("{}x/{}r", m.fallback_switches, m.recoveries),
            ]);
        }
    }
    run.emit(&table);

    run.json("BENCH_serving.json", &to_json(&levels, deterministic));

    let under = levels.first().expect("levels is non-empty");
    let over = levels.last().expect("levels is non-empty");
    let under_dropped: u64 = under.report.stations.iter().map(|m| m.shed + m.rejected).sum();
    let over_dropped: u64 = over.report.stations.iter().map(|m| m.shed + m.rejected).sum();
    println!();
    println!(
        "Reading: at {:.1}x saturation the fleet serves essentially everything on time",
        under.qps_frac
    );
    println!(
        "({} of {} arrivals dropped); at {:.1}x it sheds/rejects {} of {} and the analog",
        under_dropped, under.arrivals, over.qps_frac, over_dropped, over.arrivals
    );
    println!("crossbar lane leans on its digital fallback, exactly the graceful-degradation");
    println!("ladder DESIGN.md specifies. Percentiles are nearest-rank reads of enw-trace's");
    println!("fixed-bucket histograms on virtual time (exact below 64 ns, <=3% quantization");
    println!("above, exact min/max), so this table is byte-reproducible at any ENW_THREADS.");
}
