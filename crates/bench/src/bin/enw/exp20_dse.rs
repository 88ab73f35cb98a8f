//! E20 — hardware/workload co-design search (Sec. VI): deterministic
//! design-space exploration over every tunable subsystem in the
//! workspace. Each lane (crossbar tile periphery, X-MANN bank geometry,
//! TCAM segmentation, recommendation-model shape, serving-lane batching)
//! exposes its config through the `Tunable` API; the engine sweeps an
//! exhaustive grid plus seeded hill-climbs, evaluating candidates in
//! parallel, and reports the Pareto front over modeled latency, energy
//! and quality-per-area — then picks one config per lane under a fleet
//! energy budget with `pick_configs`.
//!
//! Every number is a pure function of `(space, evaluator, seed)`:
//! randomness comes from per-restart `Rng64` streams and time from the
//! virtual clock, so the emitted JSON is byte-identical across reruns
//! and `ENW_THREADS`; the only wall-clock reading times the search.
//!
//! Emits `BENCH_dse.json` in the working directory so CI can track the
//! fronts over time. Pass `--smoke` for the CI-sized search; full runs
//! use more restarts and deeper climbs.

use crate::json::{num, Json};
use crate::run::Run;
use enw_core::report::Table;
use enw_core::tunable::Point;
use enw_dse::{explore, SearchConfig, SearchResult};
use enw_dse::{pick_configs, Candidate, Lane, Objectives, Pick};

/// Slack multiplier on the cheapest-possible selection when deriving the
/// demo energy budget (2x the floor leaves room for upgrades without
/// making every upgrade affordable).
const BUDGET_SLACK: f64 = 2.0;

struct LaneRun {
    lane: Lane,
    result: SearchResult,
    default_point: Point,
    default_objs: Objectives,
    default_dominated: bool,
}

/// Explores one lane and scores its hand-picked default against the
/// front.
fn run_lane(lane: Lane, cfg: &SearchConfig) -> LaneRun {
    let result = explore(&lane.space(), &|p| lane.evaluate(p), cfg);
    let default_point = lane.default_point();
    let default_objs =
        lane.evaluate(&default_point).expect("hand-picked default configs are feasible");
    let default_dominated = result.front.iter().any(|c| c.objectives.dominates(&default_objs));
    LaneRun { lane, result, default_point, default_objs, default_dominated }
}

/// `{"key": …, latency, energy, quality-per-area, <extra>}`.
fn candidate_json(key: String, o: &Objectives, extra: (&'static str, Json)) -> Json {
    Json::Obj(vec![
        ("key", key.as_str().into()),
        ("latency_ns", num(format_args!("{:.6e}", o.latency_ns))),
        ("energy_pj", num(format_args!("{:.6e}", o.energy_pj))),
        ("quality_per_area", num(format_args!("{:.6e}", o.quality_per_area))),
        extra,
    ])
}

/// The per-lane searches. Excludes wall-clock timings so the rendered
/// bytes are a pure function of the virtual-time search.
fn lanes_json(runs: &[LaneRun]) -> Json {
    Json::arr(runs.iter().map(|r| {
        let dominated = ("dominated_by_front", r.default_dominated.into());
        let front =
            r.result.front.iter().map(|c| {
                candidate_json(c.point.key(), &c.objectives, ("stamp_ns", num(c.stamp_ns)))
            });
        Json::Obj(vec![
            ("lane", r.lane.name().into()),
            ("evaluated", num(r.result.evaluated)),
            ("feasible", num(r.result.feasible)),
            ("clock_ns", num(r.result.clock_ns)),
            ("default", candidate_json(r.default_point.key(), &r.default_objs, dominated)),
            ("front", Json::arr(front)),
        ])
    }))
}

fn picks_json(picks: &[Pick], budget_pj: f64) -> Json {
    let selected = picks.iter().map(|p| {
        let lane = ("lane", p.lane.name().into());
        candidate_json(p.candidate.point.key(), &p.candidate.objectives, lane)
    });
    Json::Obj(vec![
        ("budget_pj", num(format_args!("{budget_pj:.6e}"))),
        ("selected", Json::arr(selected)),
    ])
}

fn sweep(cfg: &SearchConfig) -> Vec<LaneRun> {
    Lane::all().iter().map(|&lane| run_lane(lane, cfg)).collect()
}

pub fn run(run: &mut Run) {
    let smoke = run.smoke;
    let cfg = if smoke { SearchConfig::smoke() } else { SearchConfig::default() };
    println!(
        "mode: {} (grid {} levels/axis, {} restarts x {} hill steps, seed {})\n",
        if smoke { "smoke" } else { "full" },
        cfg.grid_levels,
        cfg.restarts,
        cfg.hill_steps,
        cfg.seed
    );

    let runs = sweep(&cfg);

    // Determinism spot-check: the whole sweep rerun must render the same
    // bytes, whatever ENW_THREADS is set to.
    let deterministic = lanes_json(&runs).render() == lanes_json(&sweep(&cfg)).render();
    run.gate("deterministic_rerun", deterministic, "the whole sweep rerun renders the same bytes");

    run.gate("five_lanes", runs.len() == 5, format!("{} lanes searched", runs.len()));
    for r in &runs {
        let front = &r.result.front;
        let dominated =
            front.iter().find(|b| front.iter().any(|a| a.objectives.dominates(&b.objectives)));
        run.gate(
            &format!("{}_front_is_pareto_with_3_members", r.lane.name()),
            front.len() >= 3 && dominated.is_none(),
            format!("{} members; dominated: {:?}", front.len(), dominated.map(|c| c.point.key())),
        );
    }
    run.gate(
        "some_default_dominated",
        runs.iter().any(|r| r.default_dominated),
        "a search front strictly dominates at least one hand-picked default",
    );

    // Deployment selection: budget = 2x the cheapest feasible selection,
    // so some — but not all — upgrades fit.
    let fronts: Vec<(Lane, Vec<Candidate>)> =
        runs.iter().map(|r| (r.lane, r.result.front.clone())).collect();
    let floor_pj: f64 = fronts
        .iter()
        .map(|(_, f)| f.iter().map(|c| c.objectives.energy_pj).fold(f64::INFINITY, f64::min))
        .sum();
    let budget_pj = BUDGET_SLACK * floor_pj;
    let picks = pick_configs(&fronts, budget_pj).expect("2x-floor budget is feasible");
    run.gate(
        "one_pick_per_lane",
        picks.len() == runs.len(),
        format!("{} picks for {} lanes", picks.len(), runs.len()),
    );

    let mut table = Table::new(&[
        "lane",
        "evaluated",
        "feasible",
        "front",
        "best lat (ns)",
        "best en (pJ)",
        "best q/area",
        "default beaten",
        "search clock (ms)",
    ]);
    for r in &runs {
        let best = |f: fn(&Objectives) -> f64, init: f64, pick: fn(f64, f64) -> f64| {
            r.result.front.iter().map(|c| f(&c.objectives)).fold(init, pick)
        };
        table.row_owned(vec![
            r.lane.name().to_string(),
            format!("{}", r.result.evaluated),
            format!("{}", r.result.feasible),
            format!("{}", r.result.front.len()),
            format!("{:.1}", best(|o| o.latency_ns, f64::INFINITY, f64::min)),
            format!("{:.2}", best(|o| o.energy_pj, f64::INFINITY, f64::min)),
            format!("{:.3e}", best(|o| o.quality_per_area, f64::NEG_INFINITY, f64::max)),
            format!("{}", r.default_dominated),
            format!("{:.3}", r.result.clock_ns as f64 / 1.0e6),
        ]);
    }
    run.emit(&table);

    println!("budget {budget_pj:.1} pJ (2x floor {floor_pj:.1} pJ) selects:");
    for p in &picks {
        println!(
            "  {:<8} {}  ({:.1} pJ, q/area {:.3e})",
            p.lane.name(),
            p.candidate.point.key(),
            p.candidate.objectives.energy_pj,
            p.candidate.objectives.quality_per_area
        );
    }
    println!();

    let doc = Json::Obj(vec![
        ("bench", "dse".into()),
        ("seed", num(cfg.seed)),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("deterministic_rerun", deterministic.into()),
        ("lanes", lanes_json(&runs)),
        ("picks", picks_json(&picks, budget_pj)),
    ]);
    run.json("BENCH_dse.json", &doc);

    let xmann = runs.iter().find(|r| r.lane == Lane::Xmann).expect("sweep covers every lane");
    println!();
    println!("Reading: co-design beats catalog defaults. The X-MANN default bank (256 tiles)");
    println!(
        "is over-provisioned for this episode footprint; the search right-sizes it and {}",
        if xmann.default_dominated { "strictly dominates the default" } else { "matches it" }
    );
    println!("on quality-per-area at equal latency and energy. The TCAM front keeps every");
    println!("segment count because segmentation genuinely trades search energy against");
    println!("latency, and the serving lane trades batch-formation delay against goodput —");
    println!("fronts, not single optima, which is why pick_configs exists: under the energy");
    println!("budget it spends slack on whichever lane upgrade buys the most quality per");
    println!("picojoule. Every number above is virtual-time deterministic: reruns emit");
    println!("byte-identical JSON at any ENW_THREADS.");
}
