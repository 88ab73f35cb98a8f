//! `enw` — the one front door over every experiment: each table and
//! figure of the paper (`E1`…`E21`, the ids of `enw_core::registry`)
//! and the four `EXT-*` extensions is a module beside this file with a
//! `pub fn run(run: &mut Run)`, listed once in the table below.
//!
//! ```text
//! enw list                    every id and its module
//! enw run <ID>… [--smoke]     run experiments; --smoke picks CI-sized inputs
//! enw gate                    the CI smoke set; exit 1 naming every failed gate
//! ```
//!
//! EXPERIMENTS.md records the expected output of every id. With
//! `ENW_TRACE=summary`, `enw run` writes each experiment's per-stage
//! attribution table to stderr after it; stdout is unchanged. Any
//! `ENW_TRACE` value but `off` and `summary` traces nothing, and `enw`
//! says so on stderr.

mod json;
mod run;

use enw_bench::alloc_audit::CountingAlloc;
use enw_core::EnwError;
use run::Run;
use std::process::ExitCode;

/// E21 measures allocations, so the whole binary runs on the counting
/// allocator (two relaxed adds per allocation).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Entry {
    id: &'static str,
    /// File stem under `src/bin/enw/`; `Experiment::binary` for `E*` ids.
    module: &'static str,
    body: fn(&mut Run),
}

macro_rules! experiments {
    ($($id:literal => $module:ident,)*) => {
        $(mod $module;)*
        const TABLE: &[Entry] = &[
            $(Entry { id: $id, module: stringify!($module), body: $module::run },)*
        ];
    };
}

experiments! {
    "E1" => exp01_crossbar_ops,
    "E2" => exp02_device_requirements,
    "E3" => exp03_rram_cycling,
    "E4" => exp04_asymmetric_training,
    "E5" => exp05_pcm_pair_drift,
    "E6" => exp06_xmann_speedup,
    "E7" => exp07_range_encoding_accuracy,
    "E8" => exp08_lsh_accuracy,
    "E9" => exp09_tcam_vs_gpu,
    "E10" => exp10_fefet_tcam,
    "E11" => exp11_recsys_inference,
    "E12" => exp12_recsys_roofline,
    "E13" => exp13_embedding_compression,
    "E14" => exp14_embedding_cache,
    "E16" => exp16_serving_slo,
    "E17" => exp17_stage_breakdown,
    "E19" => exp19_fleet_sweep,
    "E20" => exp20_dse,
    "E21" => exp21_deep_analog,
    "EXT-1" => ext01_analog_inference,
    "EXT-2" => ext02_distributed_training,
    "EXT-3" => ext03_sequence_recsys,
    "EXT-4" => ext04_reduced_precision,
}

/// What `enw gate` runs, in smoke mode: every paper experiment that
/// runs in seconds at full size (E2 the longest, ≈ 2 s) and every
/// experiment with a CI-sized form (E6, E16, E17, E19–E21). E1 waits for
/// a smoke size.
const GATE_SET: [&str; 18] = [
    "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16",
    "E17", "E19", "E20", "E21",
];

const USAGE: &str = "usage: enw list | enw run <ID>... [--smoke] | enw gate";

/// Runs one experiment and returns it with its recorded gates.
fn run_one(id: &str, smoke: bool) -> Result<Run, EnwError> {
    let entry = TABLE
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| EnwError::UnknownExperiment { id: id.to_string() })?;
    let mut run = Run::start(entry.id, smoke)?;
    // Experiments share this process: a trace mode one of them switches
    // on (E17 does) must not leak into the next.
    let trace_mode = enw_core::trace::mode();
    (entry.body)(&mut run);
    enw_core::trace::set_mode(trace_mode);
    Ok(run)
}

fn cli(args: &[String]) -> ExitCode {
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let (ids, smoke): (Vec<&str>, bool) = match words.as_slice() {
        ["list"] => {
            for e in TABLE {
                println!("{:<6} {}", e.id, e.module);
            }
            return ExitCode::SUCCESS;
        }
        ["gate"] => {
            // The gate's stderr is compared byte for byte: no trace tables.
            enw_core::trace::set_mode(enw_core::trace::TraceMode::Off);
            (GATE_SET.to_vec(), true)
        }
        ["run", rest @ ..] => {
            (rest.iter().copied().filter(|a| *a != "--smoke").collect(), rest.contains(&"--smoke"))
        }
        _ => (Vec::new(), false),
    };
    if ids.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    // Gates, and under `ENW_TRACE=summary` each experiment's
    // per-stage attribution table, go to stderr, so stdout stays the
    // experiments' own.
    let mut failed = Vec::new();
    for id in ids {
        let run = match run_one(id, smoke) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("enw: {e}");
                return ExitCode::FAILURE;
            }
        };
        if enw_core::trace::enabled() {
            eprint!("{}", enw_core::trace::take_report().summary_table());
        }
        for g in &run.gates {
            let line = format!("{id} {}: {}", g.name, g.detail);
            eprintln!("gate {} {line}", if g.ok { "PASS" } else { "FAIL" });
            if !g.ok {
                failed.push(line);
            }
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("enw: {} gates FAILED:\n  {}", failed.len(), failed.join("\n  "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    if let Ok(v) = std::env::var("ENW_TRACE") {
        if enw_core::trace::TraceMode::from_env_str(&v).is_none() {
            eprintln!("enw: ENW_TRACE={v:?} is neither off nor summary; nothing is traced");
        }
    }
    cli(&std::env::args().skip(1).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pins_hold_for_e9_e10_and_e14() {
        for id in ["E9", "E10", "E14"] {
            let run = run_one(id, false).expect("registered");
            assert!(run.gates.len() >= 2, "{id} lost its paper bands");
            for g in run.gates {
                assert!(g.ok, "{id} {}: {}", g.name, g.detail);
            }
        }
    }

    #[test]
    fn table_matches_the_registry_one_to_one() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/enw");
        let paper: Vec<&Entry> = TABLE.iter().filter(|e| !e.id.starts_with("EXT-")).collect();
        let registry = enw_core::experiments();
        assert_eq!(paper.len(), registry.len());
        for (entry, exp) in paper.iter().zip(&registry) {
            assert_eq!((entry.id, entry.module), (exp.id, exp.binary));
        }
        for e in TABLE {
            assert!(dir.join(format!("{}.rs", e.module)).is_file(), "{}: no module file", e.id);
        }
    }

    #[test]
    fn unknown_id_is_a_typed_error_and_a_failing_exit() {
        let err = run_one("E99", false).err();
        assert_eq!(err, Some(EnwError::UnknownExperiment { id: "E99".into() }));
        assert_eq!(cli(&["run".to_string(), "E99".to_string()]), ExitCode::FAILURE);
        assert_eq!(cli(&["run".to_string()]), ExitCode::from(2));
    }
}
