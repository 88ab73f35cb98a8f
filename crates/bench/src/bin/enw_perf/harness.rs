//! The run protocol: closed loop, one client, one workload per process.
//!
//! *Set-up* builds the workload's read-only inputs from the seed (at
//! least three times in an untraced run, for a median) and runs one discarded
//! warm-up rep, which is also the *checked* rep: it computes the
//! reference comparisons behind `sim_quality` and the digest every later
//! rep must reproduce; `setup_s` is the median build plus that rep, what
//! a process pays before its first timed rep. The *timed phase* then runs identical reps back
//! to back with tracing off until `--seconds` of work has been measured.
//! The *traced pass* (`--trace 1`) instead runs three rounds of one
//! untraced rep, one with benchmark spans and one at one thread, then one
//! rep under the libraries' own recorder and the layer probes.
//!
//! Everything but the one-thread reps runs at [`threads`] =
//! `min(nproc, 2)`, whatever `ENW_THREADS` says: the libraries' default
//! on the 2-core reference host, so `ops_per_s` includes what
//! `enw-parallel` fans out. `setup_s` and `ops_per_s` are in
//! reference-host seconds (see [`Pace`]); every other time is the wall
//! clock as read.

use crate::defs::{LayerValues, END_TO_END};
use crate::json::{array, Obj};
use crate::spans::{allocations, Spans};
use crate::stats::{median, quartiles};
use crate::workloads::{self, LayerCtx, Rep, Size, Workload};
use enw_core::{parallel, trace};
use std::path::PathBuf;
use std::time::Instant;

/// Seed the pinned digests are taken at.
pub const DEFAULT_SEED: u64 = 11;
/// Input builds per untraced run; `setup_s` is their median plus the
/// checked warm-up rep.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
/// Fewest reps a timed phase reports a median of.
const MIN_REPS: usize = 3;
/// Reps of each kind in the traced pass.
const TRACED_REPS: usize = 3;

/// `<workload> <seed> <digest>` per line, written by `enw_perf pin`.
const PINNED: &str = include_str!("digests.txt");

pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// Host seconds of rep work the timed phase measures.
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// Where the traced pass writes `trace_<workload>.json`.
    pub out_dir: Option<PathBuf>,
}

/// Threads every workload runs at: fixed by the benchmark, not the
/// environment.
pub fn threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_rep: u64,
    pub digest: u64,
    /// Whether the digest matched `digests.txt` (`None`: no pin for this
    /// seed and size).
    pub pinned: Option<bool>,
    /// Untraced rep times as the clock read them.
    pub rep_s: Vec<f64>,
    /// The timed phase's reps in reference-host seconds (see [`Pace`]).
    pub rep_ref_s: Vec<f64>,
    /// `setup_s` as the clock read it.
    pub setup_wall_s: f64,
    /// `(name, unit, value)` of every end-to-end metric, or of every
    /// per-layer metric after a traced pass.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.2.is_finite())
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = Obj::new();
        for &(name, unit, value) in &self.metrics {
            metrics = metrics.raw(name, &Obj::new().num("value", value).str("unit", unit).finish());
        }
        Obj::new()
            .bool("correct", self.correct())
            .int("attempted", self.attempted.max(1))
            .int("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// The run's manifest and what does not fit the driver's line.
    pub fn detail_json(&self) -> String {
        let (p25, p50, p75) = quartiles(&self.rep_s);
        let list = |v: &[f64]| array(&v.iter().map(|s| format!("{s}")).collect::<Vec<_>>());
        let reps = Obj::new()
            .int("n", self.rep_s.len() as u64)
            .num("p25_s", p25)
            .num("median_s", p50)
            .num("p75_s", p75)
            .raw("all_s", &list(&self.rep_s))
            .raw("all_reference_s", &list(&self.rep_ref_s));
        // What the wall clock read, beside the reference-host figures of
        // an untraced run's result line, and the ratio between the two.
        let ref_s = if self.rep_ref_s.is_empty() { f64::NAN } else { median(&self.rep_ref_s) };
        let wall = Obj::new()
            .num("setup_s", self.setup_wall_s)
            .num("ops_per_s", self.ops_per_rep as f64 / p50)
            .num("host_speed", ref_s / p50);
        Obj::new()
            .str("workload", &self.workload)
            .int("seed", self.seed)
            .bool("traced", self.traced)
            .int("threads", threads() as u64)
            .int("nproc", nproc() as u64)
            .str("git_rev", &git_rev())
            .int("ops_attempted", self.attempted)
            .int("ops_failed", self.failed)
            .str("sim_digest", &format!("{:016x}", self.digest))
            .str(
                "pinned_digest",
                match self.pinned {
                    Some(true) => "match",
                    Some(false) => "MISMATCH",
                    None => "not pinned for this seed",
                },
            )
            .raw("wall_clock", &wall.finish())
            .raw("reps", &reps.finish())
            .finish()
    }
}

/// `git rev-parse HEAD`, when the working directory is a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The digest `digests.txt` pins for `(workload, seed)`.
fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse() == Ok(seed))
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

/// High-water mark of this process's resident set, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Running totals over the reps of a run.
struct Tally {
    /// Digest every rep must reproduce: the pinned one where there is a
    /// pin, else the checked rep's.
    reference: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts a rep; one whose digest differs from the reference fails
    /// every op.
    fn count(&mut self, rep: &Rep) -> f64 {
        self.attempted += rep.ops;
        self.failed += if rep.digest == self.reference { rep.failed } else { rep.ops };
        rep.work.as_secs_f64()
    }
}

/// Seconds [`fma_chains`] of [`KERNEL_ITERS`] takes on the reference
/// host, at its median. It only fixes the unit: on another host every
/// figure scales by one factor.
const KERNEL_REFERENCE_S: f64 = 1.9e-3;
const KERNEL_ITERS: usize = 500_000;

/// Seconds that `iters` rounds of 64 independent multiply–add chains
/// take: register-only arithmetic, so how long it takes is how fast the
/// host is running right now. (`host.fma_gflops` is the same loop.)
pub fn fma_chains(iters: usize) -> f64 {
    let t = Instant::now();
    let mut acc = [1.0f32; 64];
    let (mul, add) = (std::hint::black_box(0.999_9f32), std::hint::black_box(1e-4f32));
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * mul + add;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Converts measured seconds into *reference-host seconds*.
///
/// The reference host is a shared VM whose speed changes by ±20 % from
/// one second to the next: the kernel above, which touches no memory,
/// varies that much, and the rep times of five of the six workloads
/// follow it (correlation 0.6–0.9 between a run's `ops_per_s` and its
/// kernel time, at two threads). Over ten runs of the same code the
/// wall-clock `ops_per_s` then spreads (interquartile range ÷ median) by
/// 0.06–0.26, past the largest bound a benchmark may declare; divided by
/// the kernel's time taken just before and just after each rep, by
/// 0.02–0.19 (README.md, "Reference host", has the table and the
/// workloads it does not help). So `setup_s` and the reps behind
/// `ops_per_s` are scaled by `reference ÷ mean of the two bracketing
/// kernel runs`: seconds of a host that runs the kernel in
/// [`KERNEL_REFERENCE_S`]. What the wall clock read is in the detail line.
struct Pace {
    last_kernel_s: f64,
}

impl Pace {
    fn start() -> Self {
        Pace { last_kernel_s: fma_chains(KERNEL_ITERS) }
    }

    /// Reference-host seconds of a region that took `wall_s` and ended
    /// just now (and began at the previous call).
    fn reference_s(&mut self, wall_s: f64) -> f64 {
        let now = fma_chains(KERNEL_ITERS);
        let kernel_s = 0.5 * (self.last_kernel_s + now);
        self.last_kernel_s = now;
        wall_s * KERNEL_REFERENCE_S / kernel_s
    }
}

/// Runs `plan` at [`threads`].
///
/// # Panics
///
/// Panics if `plan.workload` is not a workload name.
pub fn run(plan: &Plan) -> Outcome {
    parallel::with_threads(threads(), || run_pinned(plan))
}

fn run_pinned(plan: &Plan) -> Outcome {
    // The libraries' recorder stays off whatever `ENW_TRACE` says.
    trace::set_mode(trace::TraceMode::Off);
    let build = || workloads::build(&plan.workload, plan.seed, plan.size).expect("a workload name");

    // Inputs that build in milliseconds are built more often, so that the
    // median is of more than clock and page-fault granularity.
    let setup_budget_s = (plan.seconds / 20.0).min(0.5);
    let (mut setup_s, mut setup_ref_s) = (Vec::new(), Vec::new());
    let mut pace = Pace::start();
    let mut w: Box<dyn Workload> = loop {
        let t = Instant::now();
        let built = build();
        let wall_s = t.elapsed().as_secs_f64();
        setup_s.push(wall_s);
        setup_ref_s.push(pace.reference_s(wall_s));
        let enough = setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= setup_budget_s;
        if plan.traced || enough || setup_s.len() == MAX_SETUPS {
            break built;
        }
        // Dropped before the next build, so peak memory is one input set.
        drop(built);
    };

    let mut spans = Spans::new();
    let t = Instant::now();
    let checked = w.rep(&mut spans, true);
    let warm_s = t.elapsed().as_secs_f64();
    let warm_ref_s = pace.reference_s(warm_s);
    let pin = (plan.size == Size::Full).then(|| pinned_digest(&plan.workload, plan.seed)).flatten();
    let pinned = pin.map(|p| p == checked.digest);
    let mut tally = Tally { reference: pin.unwrap_or(checked.digest), attempted: 0, failed: 0 };
    tally.count(&checked);

    let (mut rep_s, mut rep_ref_s) = (Vec::new(), Vec::new());
    let metrics = if plan.traced {
        let layers = traced_pass(plan, w.as_mut(), &mut spans, &mut tally, &mut rep_s);
        layers.iter().map(|(d, v)| (d.name, d.unit, v)).collect()
    } else {
        let mut measured = 0.0;
        let mut pace = Pace::start();
        while rep_s.len() < MIN_REPS || measured < plan.seconds {
            let s = tally.count(&w.rep(&mut spans, false));
            measured += s;
            rep_s.push(s);
            rep_ref_s.push(pace.reference_s(s));
        }
        let values = [
            median(&setup_ref_s) + warm_ref_s,
            checked.ops as f64 / median(&rep_ref_s),
            peak_rss_mb(),
            checked.sim_ns / 1e6,
            checked.quality,
        ];
        END_TO_END.iter().zip(values).map(|(d, v)| (d.name, d.unit, v)).collect()
    };
    Outcome {
        workload: plan.workload.clone(),
        seed: plan.seed,
        traced: plan.traced,
        attempted: tally.attempted,
        failed: tally.failed,
        ops_per_rep: checked.ops,
        digest: checked.digest,
        pinned,
        rep_s,
        rep_ref_s,
        setup_wall_s: median(&setup_s) + warm_s,
        metrics,
    }
}

/// [`TRACED_REPS`] rounds of one untraced rep, one under benchmark spans
/// and one at one thread. The three kinds alternate, and each ratio is
/// taken within a round, so that the host's drift over the pass cancels.
fn traced_pass(
    plan: &Plan,
    w: &mut dyn Workload,
    spans: &mut Spans,
    tally: &mut Tally,
    untraced_s: &mut Vec<f64>,
) -> LayerValues {
    let (mut overhead, mut speedup) = (Vec::new(), Vec::new());
    let (allocs_before, ops_before) = (allocations(), tally.attempted);
    for round in 0..TRACED_REPS {
        let untraced = tally.count(&w.rep(spans, false));
        spans.record_rep(round as u32);
        let traced = tally.count(&w.rep(spans, false));
        spans.stop();
        let serial = parallel::with_threads(1, || tally.count(&w.rep(spans, false)));
        untraced_s.push(untraced);
        overhead.push(traced / untraced - 1.0);
        speedup.push(serial / untraced);
    }
    let allocs_per_op =
        (allocations() - allocs_before) as f64 / (tally.attempted - ops_before) as f64;

    // One more rep under the libraries' own recorder, for the
    // deterministic work and byte counts it already keeps.
    trace::reset();
    trace::set_mode(trace::TraceMode::Summary);
    tally.count(&w.rep(spans, false));
    let harvest = trace::take_report();
    trace::set_mode(trace::TraceMode::Off);

    let (p25, rep_s, p75) = quartiles(untraced_s);
    let mut out = LayerValues::new();
    out.set("host.allocs_per_op", allocs_per_op);
    out.set("host.rep_spread_frac", (p75 - p25) / rep_s);
    out.set("host.trace_overhead_frac", median(&overhead));
    out.set("host.unattributed_frac", spans.unattributed_frac());
    out.set("parallel.speedup_T", median(&speedup));
    w.layers(&LayerCtx { spans, traced_reps: TRACED_REPS, harvest: &harvest, rep_s }, &mut out);

    if let Some(dir) = &plan.out_dir {
        let path = dir.join(format!("trace_{}.json", plan.workload));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.chrome_trace()));
        if let Err(e) = written {
            eprintln!("enw_perf: could not write {}: {e}", path.display());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::PER_LAYER;
    use crate::json::{self, Value};
    use std::sync::Mutex;

    /// The libraries' recorder and the thread override are process-wide
    /// state; the passes below take turns.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    fn mini(workload: &str, traced: bool) -> Outcome {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        run(&Plan {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            traced,
            size: Size::Mini,
            out_dir: None,
        })
    }

    #[test]
    fn every_workload_passes_in_miniature_at_one_and_two_threads() {
        for name in workloads::NAMES {
            // The traced pass runs reps at one thread and at two; a digest
            // that differed fails the ops.
            let traced = mini(name, true);
            assert_eq!(traced.failed, 0, "{name}: failed ops in the traced pass");
            assert!(traced.attempted > 0 && traced.correct(), "{name}");
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            for (d, (_, _, value)) in PER_LAYER.iter().zip(&traced.metrics) {
                let measured_here = d.on == "all" || d.on == name;
                // A miniature has too few samples for a tail.
                let tail = d.name.ends_with(".p90") || d.name.ends_with(".p99");
                assert!(
                    !measured_here
                        || *value != 0.0
                        || d.exact
                        || tail
                        || d.name == "host.allocs_per_op",
                    "{name}: {} was never measured",
                    d.name
                );
                assert!(
                    measured_here || *value == 0.0,
                    "{name}: {} set by the wrong workload",
                    d.name
                );
            }

            let plain = mini(name, false);
            assert_eq!(plain.failed, 0, "{name}: failed ops in the timed phase");
            assert_eq!(plain.digest, traced.digest, "{name}: digest differs between runs");
            assert_eq!(plain.rep_s.len(), MIN_REPS);
            let names: Vec<_> = plain.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.map(|d| d.name));
            assert!(plain.metrics.iter().all(|m| m.2 > 0.0), "{name}: an end-to-end metric is 0");
        }
    }

    #[test]
    fn digests_depend_on_the_seed_and_on_nothing_else() {
        let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        for name in workloads::NAMES {
            let digest = |seed, threads| {
                parallel::with_threads(threads, || {
                    let mut w = workloads::build(name, seed, Size::Mini).expect("a workload name");
                    w.rep(&mut Spans::new(), false).digest
                })
            };
            assert_eq!(digest(3, 1), digest(3, 2), "{name}: threads changed the digest");
            assert_ne!(digest(3, 1), digest(4, 1), "{name}: the seed does not reach the inputs");
        }
    }

    #[test]
    fn printed_lines_keep_the_contract() {
        let outcome = mini("fleet_diurnal", false);
        let line = json::parse(&outcome.result_json()).expect("result line parses");
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        for d in &END_TO_END {
            let m = metrics.get(d.name).unwrap_or_else(|| panic!("{} missing", d.name));
            assert!(m.get("value").and_then(Value::as_f64).is_some_and(|v| v > 0.0));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
        }
        let detail = json::parse(&outcome.detail_json()).expect("detail line parses");
        assert_eq!(detail.get("seed").and_then(Value::as_f64), Some(7.0));
        assert_eq!(detail.get("sim_digest").and_then(Value::as_str).map(str::len), Some(16));
    }

    #[test]
    fn every_workload_is_pinned_at_the_default_seed() {
        for name in workloads::NAMES {
            assert!(
                pinned_digest(name, DEFAULT_SEED).is_some(),
                "{name} has no line in digests.txt"
            );
            assert_eq!(pinned_digest(name, DEFAULT_SEED + 1), None);
        }
        assert_eq!(pinned_digest("nonesuch", DEFAULT_SEED), None);
    }
}
