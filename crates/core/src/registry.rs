//! The experiment registry: every quantitative claim, table and figure of
//! the paper, mapped to the `enw` module that regenerates it.
//!
//! DESIGN.md holds the full per-experiment rationale; this module is the
//! machine-readable index (used by `enw-bench` to enumerate and by tests
//! to guarantee the index stays complete).

use crate::error::EnwError;

/// One reproducible experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Stable identifier (`"E1"` …).
    pub id: &'static str,
    /// Where in the paper the claim lives.
    pub paper_anchor: &'static str,
    /// What is being reproduced.
    pub claim: &'static str,
    /// The module under `enw-bench`'s `src/bin/enw/` that regenerates it
    /// (`enw run <id>`).
    pub binary: &'static str,
}

/// All experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            paper_anchor: "Fig. 1, Sec. II-A",
            claim: "Crossbar VMM + parallel rank-1 stochastic update run in O(1) crossbar cycles independent of array size",
            binary: "exp01_crossbar_ops",
        },
        Experiment {
            id: "E2",
            paper_anchor: "Sec. II-A (RPU specs, ref. 14)",
            claim: "Analog SGD needs ~0.1% update granularity and few-% update symmetry; accuracy collapses beyond",
            binary: "exp02_device_requirements",
        },
        Experiment {
            id: "E3",
            paper_anchor: "Fig. 2, Sec. II-B2",
            claim: "RRAM response over 3 cycles of 1000 potentiation + 1000 depression pulses: nonlinear, asymmetric, noisy",
            binary: "exp03_rram_cycling",
        },
        Experiment {
            id: "E4",
            paper_anchor: "Sec. II-B5 (refs. 30, 35)",
            claim: "Zero-shifting + coupled-dynamics training on asymmetric devices ≈ ideal-device SGD; plain SGD degrades",
            binary: "exp04_asymmetric_training",
        },
        Experiment {
            id: "E5",
            paper_anchor: "Sec. II-B1 (refs. 18, 26, 27)",
            claim: "PCM differential pairs track signed weights with periodic reset; projection liner suppresses drift ~10x",
            binary: "exp05_pcm_pair_drift",
        },
        Experiment {
            id: "E6",
            paper_anchor: "Sec. III-B",
            claim: "X-MANN: 23.7-45.7x speedup and 75.1-267.1x energy reduction over GPU across MANN benchmarks",
            binary: "exp06_xmann_speedup",
        },
        Experiment {
            id: "E7",
            paper_anchor: "Sec. IV-B1 (ref. 48)",
            claim: "Combined Linf+L2 4-bit TCAM search: ~96.0% on 5-way 1-shot vs 99.06% FP32 cosine",
            binary: "exp07_range_encoding_accuracy",
        },
        Experiment {
            id: "E8",
            paper_anchor: "Fig. 5 inset, Sec. IV-B2",
            claim: "LSH-TCAM accuracy approaches (sometimes matches) cosine-GPU across N-way K-shot settings",
            binary: "exp08_lsh_accuracy",
        },
        Experiment {
            id: "E9",
            paper_anchor: "Sec. IV-B2",
            claim: "16T CMOS TCAM memory search: 24x energy and 2582x latency reduction vs cosine on GPU+DRAM",
            binary: "exp09_tcam_vs_gpu",
        },
        Experiment {
            id: "E10",
            paper_anchor: "Sec. IV-C (ref. 9)",
            claim: "2-FeFET TCAM adds 1.1x latency and 2.4x energy reduction over 16T CMOS, at ~8x density",
            binary: "exp10_fefet_tcam",
        },
        Experiment {
            id: "E11",
            paper_anchor: "Fig. 6, Sec. V-A",
            claim: "DLRM-style model executes dense stack + embedding pooling + interaction + predictor end to end",
            binary: "exp11_recsys_inference",
        },
        Experiment {
            id: "E12",
            paper_anchor: "Sec. V-B",
            claim: "Embedding ops have orders-of-magnitude lower arithmetic intensity; configs split compute- vs memory-bound",
            binary: "exp12_recsys_roofline",
        },
        Experiment {
            id: "E13",
            paper_anchor: "Sec. V-B (ref. 65)",
            claim: "Reduced-precision embeddings compress tables up to ~16x with bounded quality loss",
            binary: "exp13_embedding_compression",
        },
        Experiment {
            id: "E14",
            paper_anchor: "Sec. V-B (ref. 66)",
            claim: "Zipf-skewed lookups give small caches high hit rates; the tail still forces DRAM",
            binary: "exp14_embedding_cache",
        },
        Experiment {
            id: "E16",
            paper_anchor: "Sec. V-B (serving SLAs)",
            claim: "All four workloads served under one deterministic micro-batching runtime: SLA-derived batch sizes, deadline shedding, and analog-to-digital degradation keep tails bounded across under- and over-saturated QPS",
            binary: "exp16_serving_slo",
        },
        Experiment {
            id: "E17",
            paper_anchor: "Methodology (workload attribution)",
            claim: "Instrumented kernels attribute per-stage work shares across all four workload lanes, bit-identical across reruns and thread counts",
            binary: "exp17_stage_breakdown",
        },
        Experiment {
            id: "E19",
            paper_anchor: "Sec. V-B (deployment at fleet scale)",
            claim: "Sharded multi-node serving with consistent-hash routing, replicated embedding shards and reactive autoscaling holds tails and goodput-per-node across traffic shapes and fleet sizes, bit-identical at any thread count",
            binary: "exp19_fleet_sweep",
        },
        Experiment {
            id: "E20",
            paper_anchor: "Sec. VI (hardware/workload co-design)",
            claim: "Deterministic design-space exploration over the tunable configs of all five lanes yields per-lane Pareto fronts (latency/energy/quality-per-area) that dominate the hand-picked defaults, bit-identical at any thread count",
            binary: "exp20_dse",
        },
        Experiment {
            id: "E21",
            paper_anchor: "Sec. II (large-scale analog training, refs. 14, 36)",
            claim: "A streaming tiled analog-training pipeline trains >=6-layer conv stacks as grids of crossbar tiles with zero steady-state allocations per step, byte-identical across reruns, thread counts and checkpoint/resume; accuracy-vs-device surfaces and virtual-clock throughput recorded",
            binary: "exp21_deep_analog",
        },
    ]
}

/// Looks up one experiment by id (`"E1"` … ).
///
/// # Errors
///
/// Returns [`EnwError::UnknownExperiment`] when no entry carries `id`.
pub fn find(id: &str) -> Result<Experiment, EnwError> {
    registry()
        .into_iter()
        .find(|e| e.id == id)
        .ok_or_else(|| EnwError::UnknownExperiment { id: id.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_every_registered_id() {
        for e in registry() {
            assert_eq!(find(e.id), Ok(e));
        }
    }

    #[test]
    fn find_reports_unknown_ids() {
        let err = find("E99");
        assert_eq!(err, Err(EnwError::UnknownExperiment { id: "E99".into() }));
    }

    /// E18, the allocation audit, is retired too: its "before" column
    /// measured allocating kernel forms that no longer exist.
    #[test]
    fn ids_run_e1_to_e21_in_order_without_the_retired_e15() {
        let ids: Vec<String> = registry().iter().map(|e| e.id.to_string()).collect();
        let want: Vec<String> =
            (1..=21).filter(|n| ![15, 18].contains(n)).map(|n| format!("E{n}")).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn ids_and_binaries_unique() {
        let r = registry();
        let mut ids: Vec<_> = r.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), r.len());
        let mut bins: Vec<_> = r.iter().map(|e| e.binary).collect();
        bins.sort_unstable();
        bins.dedup();
        assert_eq!(bins.len(), r.len());
    }

    #[test]
    fn every_entry_names_its_anchor() {
        for e in registry() {
            assert!(!e.paper_anchor.is_empty());
            assert!(!e.claim.is_empty());
            assert!(e.binary.starts_with("exp"));
        }
    }

    #[test]
    fn every_binary_exists_in_enw_bench() {
        // The registry is only useful if each entry's module actually
        // exists; catch dangling names at the source tree level.
        let bench_bins =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/src/bin/enw");
        for e in registry() {
            let src = bench_bins.join(format!("{}.rs", e.binary));
            assert!(src.is_file(), "{}: missing enw module source {}", e.id, src.display());
        }
    }
}
