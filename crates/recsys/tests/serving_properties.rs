//! Property-based tests for the SLA batch-size search (paper Sec. V-B),
//! exercised by the `enw-serve` scheduler's batch-close policy.
//!
//! Compiled only with `--features proptest` so the default tier-1 run
//! stays lean; enable it in CI sweeps via `scripts/verify.sh --full`.
#![cfg(feature = "proptest")]

use enw_numerics::rng::Rng64;
use enw_recsys::characterize::RooflineMachine;
use enw_recsys::error::RecsysError;
use enw_recsys::model::{EmbeddingTable, Interaction, RecModel, RecModelConfig};
use enw_recsys::serving::{batch_latency, try_max_batch_under_sla};
use enw_recsys::trace::TraceGenerator;
use proptest::prelude::*;

/// A small model family spanning compute- and memory-bound shapes.
fn cfg_for(kind: usize) -> RecModelConfig {
    match kind % 3 {
        0 => RecModelConfig::compute_bound(),
        1 => RecModelConfig::memory_bound(),
        _ => RecModelConfig {
            dense_features: 8,
            bottom_mlp: vec![32, 16],
            tables: vec![(1024, 8), (512, 4)],
            embedding_dim: 16,
            top_mlp: vec![32],
            interaction: Interaction::Concat,
        },
    }
}

proptest! {
    /// The search result is admissible (fits the SLA and the cap) and
    /// maximal (one more query would break the SLA, unless capped).
    #[test]
    fn search_is_admissible_and_maximal(kind in 0usize..3,
                                        sla_x in 1.0f64..200.0,
                                        cap in 1u64..2048) {
        let cfg = cfg_for(kind);
        let m = RooflineMachine::server_cpu();
        let sla = sla_x * batch_latency(&cfg, 1, &m);
        let b = try_max_batch_under_sla(&cfg, &m, sla, cap);
        // sla >= latency(1) by construction, so a batch always fits.
        let b = b.expect("reachable SLA must admit batch 1");
        prop_assert!(b >= 1 && b <= cap);
        prop_assert!(batch_latency(&cfg, b, &m) <= sla);
        if b < cap {
            prop_assert!(batch_latency(&cfg, b + 1, &m) > sla,
                         "batch {} is not maximal under cap {}", b, cap);
        }
    }

    /// Monotonicity: a looser SLA or a larger cap never shrinks the batch.
    #[test]
    fn search_is_monotone_in_sla_and_cap(kind in 0usize..3,
                                         sla_x in 1.0f64..100.0,
                                         slack in 1.0f64..4.0,
                                         cap in 1u64..1024) {
        let cfg = cfg_for(kind);
        let m = RooflineMachine::server_cpu();
        let sla = sla_x * batch_latency(&cfg, 1, &m);
        let tight = try_max_batch_under_sla(&cfg, &m, sla, cap).expect("reachable");
        let loose = try_max_batch_under_sla(&cfg, &m, sla * slack, cap).expect("reachable");
        prop_assert!(loose >= tight, "loosening the SLA shrank the batch: {} -> {}", tight, loose);
        let wider = try_max_batch_under_sla(&cfg, &m, sla, cap * 2).expect("reachable");
        prop_assert!(wider >= tight, "raising the cap shrank the batch: {} -> {}", tight, wider);
    }

    /// Edge: a zero cap admits nothing, whatever the SLA.
    #[test]
    fn zero_cap_admits_nothing(kind in 0usize..3, sla_x in 0.0f64..1000.0) {
        let cfg = cfg_for(kind);
        let m = RooflineMachine::server_cpu();
        let sla = sla_x * batch_latency(&cfg, 1, &m);
        prop_assert_eq!(try_max_batch_under_sla(&cfg, &m, sla, 0), Err(RecsysError::ZeroBatchCap));
    }

    /// Edge: an SLA below the single-query latency is unreachable at any cap.
    #[test]
    fn sub_unit_sla_is_unreachable(kind in 0usize..3,
                                   frac in 0.01f64..0.99,
                                   cap in 1u64..4096) {
        let cfg = cfg_for(kind);
        let m = RooflineMachine::server_cpu();
        let sla = frac * batch_latency(&cfg, 1, &m);
        prop_assert_eq!(try_max_batch_under_sla(&cfg, &m, sla, cap),
                        Err(RecsysError::InfeasibleSla { sla_seconds: sla }));
    }
}

// Thread-count invariance and kernel equivalence of the gather/predict
// path: the software-pipelined gather and the pool fan-out must be
// bit-identical to the serial reference at any ENW_THREADS.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// The unrolled + prefetching gather is bitwise equal to the plain
    /// one-row-at-a-time loop for any index multiset (including repeats
    /// and non-multiples of the 8-row unroll).
    #[test]
    fn gather_pool_matches_naive_accumulation(
        rows in 1usize..300, dim in 1usize..80, lookups in 1usize..40,
        seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let table = EmbeddingTable::random(rows, dim, &mut rng);
        let indices: Vec<usize> = (0..lookups).map(|_| rng.below(rows)).collect();
        let fast = table.lookup_pool(&indices);
        let mut naive = vec![0.0f32; dim];
        for &i in &indices {
            for (p, v) in naive.iter_mut().zip(table.row(i)) {
                *p += v;
            }
        }
        for (a, b) in fast.iter().zip(&naive) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Batch prediction is bit-identical at ENW_THREADS=1/2/8 — the
    /// model's table fan-out and batch fan-out must not perturb results.
    #[test]
    fn predict_batch_bit_identical_at_any_thread_count(
        kind in 0usize..3, batch in 1usize..48, seed in any::<u64>()) {
        // Small instantiable shapes (cfg_for's roofline configs allocate
        // gigabyte-scale tables); interaction and MLP variety still come
        // from `kind`.
        let cfg = RecModelConfig {
            dense_features: 8,
            bottom_mlp: vec![32, 16],
            tables: vec![(2048, 4), (512, 2), (128, 8)],
            embedding_dim: 16,
            top_mlp: if kind == 0 { vec![64, 32] } else { vec![32] },
            interaction: if kind == 1 { Interaction::DotPairwise } else { Interaction::Concat },
        };
        let mut rng = Rng64::new(seed);
        let model = RecModel::new(&cfg, &mut rng);
        let queries = TraceGenerator::new(&cfg, 1.0).batch(batch, &mut rng);
        let predict_at = |threads: usize| {
            let mut m = model.clone();
            let mut ctrs = vec![0.0f32; queries.len()];
            enw_parallel::with_threads(threads, || m.predict_batch_into(&queries, &mut ctrs));
            ctrs
        };
        let serial = predict_at(1);
        for t in [2usize, 8] {
            let par = predict_at(t);
            for (a, b) in serial.iter().zip(&par) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "thread count {}", t);
            }
        }
    }
}
