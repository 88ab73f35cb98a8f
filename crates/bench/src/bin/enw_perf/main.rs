//! `enw_perf` — the repo's host-time benchmark: six workloads over the
//! four paper substrates, the server and the fleet, driven through the
//! public API `enw_core` re-exports. Host time is performance; simulated
//! time and accuracy are model outputs that a simulator-speed change
//! must leave bit-identical, and the benchmark checks that they are.
//! README.md beside this file has the metric tables, the predicted
//! interactions and the A/B recipe.
//!
//! ```text
//! enw_perf --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!     one workload in this process; the last line of stdout is
//!     {"correct", "attempted", "failed", "metrics"}
//! enw_perf list                       workload names
//! enw_perf run W|all [--seed N] [--out DIR]
//!     untraced then traced run of each workload, one process at a
//!     time, as one JSON document
//! enw_perf pin                        regenerate digests.txt (default seed)
//! enw_perf stability [--out DIR]      two `run all` sets, compared
//! ```

mod defs;
mod harness;
mod json;
mod spans;
mod stats;
mod workloads;

use defs::{END_TO_END, PER_LAYER};
use harness::{Plan, DEFAULT_SEED};
use json::{Obj, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Size;

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// What `run` passes as `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u64 = 12;

/// Where `pin` writes, from the repo root.
const DIGESTS_PATH: &str = "crates/bench/src/bin/enw_perf/digests.txt";

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out_dir: PathBuf::from("target/enw_perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                flags.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(flags.seconds >= 0.0 && flags.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                flags.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => flags.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

fn check_workload(name: &str) -> Result<(), String> {
    if workloads::NAMES.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown workload `{name}`; one of: {}", workloads::NAMES.join(" ")))
    }
}

/// One workload in this process (what the driver and `run` invoke).
fn worker(flags: Flags) -> Result<(), String> {
    let workload = flags.workload.ok_or("--workload is required")?;
    check_workload(&workload)?;
    let outcome = harness::run(&Plan {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.traced,
        size: Size::Full,
        out_dir: Some(flags.out_dir),
    });
    println!("{}", outcome.detail_json());
    println!("{}", outcome.result_json());
    Ok(())
}

/// Re-executes this binary for one workload and returns its two output
/// lines (detail, result) spliced into one object. Children run one at
/// a time, so `peak_rss_mb` is per workload and only one process
/// generates load.
fn child(workload: &str, flags: &Flags, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &flags.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&flags.out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    match (output.status.success(), lines.next(), lines.next()) {
        (true, Some(result), Some(detail)) => {
            Ok(Obj::new().raw("detail", detail).raw("result", result).finish())
        }
        _ => {
            Err(format!("{workload} (--trace {}) exited with {}", u8::from(traced), output.status))
        }
    }
}

/// `run W|all`: every metric by name and unit, as one document.
fn run_set(which: &str, flags: &Flags) -> Result<String, String> {
    let names: Vec<&str> = if which == "all" {
        workloads::NAMES.to_vec()
    } else {
        check_workload(which)?;
        vec![which]
    };
    let mut rows = Vec::new();
    for name in names {
        eprintln!("enw_perf: {name}");
        let row = Obj::new()
            .str("name", name)
            .raw("end_to_end", &child(name, flags, false)?)
            .raw("per_layer", &child(name, flags, true)?);
        rows.push(row.finish());
    }
    Ok(Obj::new()
        .str("benchmark", "enw_perf")
        .int("seed", flags.seed)
        .int("run_seconds", RUN_SECONDS)
        .raw("workloads", &json::array(&rows))
        .finish())
}

/// `pin`: the digest of one rep of every workload at the default seed.
fn pin() -> Result<(), String> {
    let mut text = String::new();
    for name in workloads::NAMES {
        let digest = enw_core::parallel::with_threads(harness::threads(), || {
            let mut w = workloads::build(name, DEFAULT_SEED, Size::Full).expect("a workload name");
            w.rep(&mut spans::Spans::new(), false).digest
        });
        text.push_str(&format!("{name} {DEFAULT_SEED} {digest:016x}\n"));
    }
    std::fs::write(DIGESTS_PATH, &text)
        .map_err(|e| format!("{DIGESTS_PATH}: {e} (run `pin` from the repo root)"))?;
    print!("{text}");
    eprintln!("wrote {DIGESTS_PATH}; rebuild for the new pins to take effect");
    Ok(())
}

/// One run (`end_to_end` or `per_layer`) of `workload` in a `run` document.
fn run_of<'a>(set: &'a Value, workload: &str, section: &str) -> Option<&'a Value> {
    let rows = set.get("workloads")?.as_array();
    rows.iter().find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?.get(section)
}

fn metric(set: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    run_of(set, workload, section)?.get("result")?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn digest<'a>(set: &'a Value, workload: &str, section: &str) -> Option<&'a str> {
    run_of(set, workload, section)?.get("detail")?.get("sim_digest")?.as_str()
}

/// `stability`: two full sets of the same code must agree — host-time
/// metrics inside their regression bounds, model outputs exactly.
fn stability(flags: &Flags) -> Result<(), String> {
    let sets = [run_set("all", flags)?, run_set("all", flags)?];
    let parsed = [json::parse(&sets[0])?, json::parse(&sets[1])?];
    let [a, b] = &parsed;
    let mut disagreements = 0;
    println!(
        "{:<14} {:<12} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "set 1", "set 2", "change"
    );
    for workload in workloads::NAMES {
        for d in &END_TO_END {
            let (x, y) = (
                metric(a, workload, "end_to_end", d.name),
                metric(b, workload, "end_to_end", d.name),
            );
            let (Some(x), Some(y)) = (x, y) else {
                return Err(format!("{workload}: {} missing from a set", d.name));
            };
            // Same code on both sides, so either direction counts.
            // Host-time metrics inside their regression bound, with the
            // absolute floors below which a difference is clock or page
            // granularity; model outputs exactly.
            let change = (y - x) / x;
            let ok = match d.name {
                "ops_per_s" => change.abs() <= d.bound,
                "setup_s" => change.abs() <= d.bound || (x - y).abs() <= 0.05,
                "peak_rss_mb" => change.abs() <= d.bound || (x - y).abs() <= 2.0,
                _ => x == y,
            };
            disagreements += u32::from(!ok);
            let verdict = if ok { "ok" } else { "DISAGREE" };
            println!(
                "{workload:<14} {:<12} {x:>16.6} {y:>16.6} {:>+8.2}%  {verdict}",
                d.name,
                100.0 * change
            );
        }
        for section in ["end_to_end", "per_layer"] {
            if digest(a, workload, section) != digest(b, workload, section)
                || digest(a, workload, section).is_none()
            {
                disagreements += 1;
                println!("{workload:<14} sim_digest ({section}) DISAGREE");
            }
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            if metric(a, workload, "per_layer", d.name) != metric(b, workload, "per_layer", d.name)
            {
                disagreements += 1;
                println!("{workload:<14} {} (exact) DISAGREE", d.name);
            }
        }
    }
    for (i, set) in sets.iter().enumerate() {
        let path = flags.out_dir.join(format!("stability_set{}.json", i + 1));
        std::fs::create_dir_all(&flags.out_dir)
            .and_then(|()| std::fs::write(&path, set))
            .map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    if disagreements == 0 {
        println!("stability: the two sets agree");
        Ok(())
    } else {
        Err(format!("stability: {disagreements} disagreement(s) between two sets of the same code"))
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            workloads::NAMES.iter().for_each(|n| println!("{n}"));
            Ok(())
        }
        Some("run") => {
            let which = args.get(1).ok_or("run needs a workload name or `all`")?;
            println!("{}", run_set(which, &parse_flags(&args[2..])?)?);
            Ok(())
        }
        Some("pin") => pin(),
        Some("stability") => stability(&parse_flags(&args[1..])?),
        Some(flag) if flag.starts_with("--") => worker(parse_flags(args)?),
        _ => Err("usage: enw_perf --workload W --seed N --seconds S --trace 0|1 [--out DIR] \
                  | list | run W|all [--seed N] [--out DIR] | pin | stability [--out DIR]"
            .to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("enw_perf: {e}");
            ExitCode::from(2)
        }
    }
}
