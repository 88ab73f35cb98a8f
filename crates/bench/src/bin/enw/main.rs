//! `enw` — the one front door over every experiment: each table and
//! figure of the paper (`E1`…`E21`) and the four `EXT-*` extensions is a
//! module beside this file with a `pub fn run(run: &mut Run)`, listed
//! once, with the paper claim it reproduces, in the table below.
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
use run::Run;
use std::fmt;
use std::process::ExitCode;

/// E21 measures allocations, so the whole binary runs on the counting
/// allocator (two relaxed adds per allocation).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One row of the table: an id, the module beside this file that runs it
/// and, for a paper experiment, the claim it reproduces.
struct Entry {
    id: &'static str,
    /// `None` for the `EXT-*` extensions, which print their own header.
    claim: Option<Claim>,
    /// File stem under `src/bin/enw/`.
    module: &'static str,
    body: fn(&mut Run),
}

/// Where in the paper a claim lives and what it says.
struct Claim {
    anchor: &'static str,
    text: &'static str,
}

/// Each row is `"<id>" => <module>`, and a paper experiment adds
/// `["<anchor>"] "<claim>"`. DESIGN.md holds the per-experiment rationale,
/// EXPERIMENTS.md the measured numbers.
macro_rules! experiments {
    (@claim) => { None };
    (@claim $anchor:literal $text:literal) => { Some(Claim { anchor: $anchor, text: $text }) };
    ($($id:literal => $module:ident $([$anchor:literal] $text:literal)?,)*) => {
        $(mod $module;)*
        const TABLE: &[Entry] = &[
            $(Entry {
                id: $id,
                claim: experiments!(@claim $($anchor $text)?),
                module: stringify!($module),
                body: $module::run,
            },)*
        ];
    };
}

experiments! {
    "E1" => exp01_crossbar_ops ["Fig. 1, Sec. II-A"]
        "Crossbar VMM + parallel rank-1 stochastic update run in O(1) crossbar cycles independent of array size",
    "E2" => exp02_device_requirements ["Sec. II-A (RPU specs, ref. 14)"]
        "Analog SGD needs ~0.1% update granularity and few-% update symmetry; accuracy collapses beyond",
    "E3" => exp03_rram_cycling ["Fig. 2, Sec. II-B2"]
        "RRAM response over 3 cycles of 1000 potentiation + 1000 depression pulses: nonlinear, asymmetric, noisy",
    "E4" => exp04_asymmetric_training ["Sec. II-B5 (refs. 30, 35)"]
        "Zero-shifting + coupled-dynamics training on asymmetric devices ≈ ideal-device SGD; plain SGD degrades",
    "E5" => exp05_pcm_pair_drift ["Sec. II-B1 (refs. 18, 26, 27)"]
        "PCM differential pairs track signed weights with periodic reset; projection liner suppresses drift ~10x",
    "E6" => exp06_xmann_speedup ["Sec. III-B"]
        "X-MANN: 23.7-45.7x speedup and 75.1-267.1x energy reduction over GPU across MANN benchmarks",
    "E7" => exp07_range_encoding_accuracy ["Sec. IV-B1 (ref. 48)"]
        "Combined Linf+L2 4-bit TCAM search: ~96.0% on 5-way 1-shot vs 99.06% FP32 cosine",
    "E8" => exp08_lsh_accuracy ["Fig. 5 inset, Sec. IV-B2"]
        "LSH-TCAM accuracy approaches (sometimes matches) cosine-GPU across N-way K-shot settings",
    "E9" => exp09_tcam_vs_gpu ["Sec. IV-B2"]
        "16T CMOS TCAM memory search: 24x energy and 2582x latency reduction vs cosine on GPU+DRAM",
    "E10" => exp10_fefet_tcam ["Sec. IV-C (ref. 9)"]
        "2-FeFET TCAM adds 1.1x latency and 2.4x energy reduction over 16T CMOS, at ~8x density",
    "E11" => exp11_recsys_inference ["Fig. 6, Sec. V-A"]
        "DLRM-style model executes dense stack + embedding pooling + interaction + predictor end to end",
    "E12" => exp12_recsys_roofline ["Sec. V-B"]
        "Embedding ops have orders-of-magnitude lower arithmetic intensity; configs split compute- vs memory-bound",
    "E13" => exp13_embedding_compression ["Sec. V-B (ref. 65)"]
        "Reduced-precision embeddings compress tables up to ~16x with bounded quality loss",
    "E14" => exp14_embedding_cache ["Sec. V-B (ref. 66)"]
        "Zipf-skewed lookups give small caches high hit rates; the tail still forces DRAM",
    "E16" => exp16_serving_slo ["Sec. V-B (serving SLAs)"]
        "All four workloads served under one deterministic micro-batching runtime: SLA-derived batch sizes, deadline shedding, and analog-to-digital degradation keep tails bounded across under- and over-saturated QPS",
    "E17" => exp17_stage_breakdown ["Methodology (workload attribution)"]
        "Instrumented kernels attribute per-stage work shares across all four workload lanes, bit-identical across reruns and thread counts",
    "E19" => exp19_fleet_sweep ["Sec. V-B (deployment at fleet scale)"]
        "Sharded multi-node serving with consistent-hash routing, replicated embedding shards and reactive autoscaling holds tails and goodput-per-node across traffic shapes and fleet sizes, bit-identical at any thread count",
    "E20" => exp20_dse ["Sec. VI (hardware/workload co-design)"]
        "Deterministic design-space exploration over the tunable configs of all five lanes yields per-lane Pareto fronts (latency/energy/quality-per-area) that dominate the hand-picked defaults, bit-identical at any thread count",
    "E21" => exp21_deep_analog ["Sec. II (large-scale analog training, refs. 14, 36)"]
        "A streaming tiled analog-training pipeline trains >=6-layer conv stacks as grids of crossbar tiles with zero steady-state allocations per step, byte-identical across reruns, thread counts and checkpoint/resume; accuracy-vs-device surfaces and virtual-clock throughput recorded",
    "EXT-1" => ext01_analog_inference,
    "EXT-2" => ext02_distributed_training,
    "EXT-3" => ext03_sequence_recsys,
    "EXT-4" => ext04_reduced_precision,
}

/// What `enw gate` runs, in smoke mode: every paper experiment that
/// runs in seconds at full size (E2 the longest, ≈ 2 s), every
/// experiment with a CI-sized form (E1, E6, E16, E17, E19–E21) and the
/// four extensions (EXT-1…EXT-4, ≈ 2 s together; none has a smaller
/// form).
const GATE_SET: [&str; 23] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E16",
    "E17", "E19", "E20", "E21", "EXT-1", "EXT-2", "EXT-3", "EXT-4",
];

const USAGE: &str = "usage: enw list | enw run <ID>... [--smoke] | enw gate";

/// An experiment id the table does not list.
#[derive(Debug, PartialEq)]
struct UnknownExperiment(String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown experiment id {} (see `enw list`)", self.0)
    }
}

/// Runs one experiment and returns it with its recorded gates.
fn run_one(id: &str, smoke: bool) -> Result<Run, UnknownExperiment> {
    let entry =
        TABLE.iter().find(|e| e.id == id).ok_or_else(|| UnknownExperiment(id.to_string()))?;
    let mut run = Run::start(entry, smoke);
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

    /// E15 and E18 are retired; E18's "before" column measured allocating
    /// kernel forms that no longer exist.
    #[test]
    fn ids_run_e1_to_e21_without_e15_and_e18_then_ext_1_to_4() {
        let ids: Vec<&str> = TABLE.iter().map(|e| e.id).collect();
        let paper = (1..=21).filter(|n| ![15, 18].contains(n)).map(|n| format!("E{n}"));
        let want: Vec<String> = paper.chain((1..=4).map(|n| format!("EXT-{n}"))).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn ids_and_modules_are_unique() {
        for key in [|e: &Entry| e.id, |e: &Entry| e.module] {
            let mut keys: Vec<&str> = TABLE.iter().map(key).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), TABLE.len());
        }
    }

    /// Every `E*` row carries a claim and only `E*` rows do: the `EXT-*`
    /// modules print their own headers.
    #[test]
    fn claims_match_the_paper_rows_one_to_one() {
        for e in TABLE {
            assert_eq!(e.claim.is_some(), !e.id.starts_with("EXT-"), "{}", e.id);
        }
    }

    #[test]
    fn every_paper_row_names_its_anchor_and_claim() {
        for (e, c) in TABLE.iter().filter_map(|e| e.claim.as_ref().map(|c| (e, c))) {
            assert!(!c.anchor.is_empty() && !c.text.is_empty(), "{}", e.id);
            assert!(e.module.starts_with("exp"), "{}", e.id);
        }
    }

    #[test]
    fn every_module_file_exists() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/enw");
        for e in TABLE {
            assert!(dir.join(format!("{}.rs", e.module)).is_file(), "{}: no module file", e.id);
        }
    }

    #[test]
    fn unknown_id_is_a_typed_error_and_a_failing_exit() {
        let err = run_one("E99", false).err();
        assert_eq!(err, Some(UnknownExperiment("E99".into())));
        assert_eq!(cli(&["run".to_string(), "E99".to_string()]), ExitCode::FAILURE);
        assert_eq!(cli(&["run".to_string()]), ExitCode::from(2));
    }
}
