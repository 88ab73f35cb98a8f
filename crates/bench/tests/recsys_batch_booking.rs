//! A batched DLRM prediction reads in a trace as the per-query loop it
//! replaces: same span names, and per name the same entry count, work
//! and bytes — `numerics/matvec` once per layer per query, `recsys/mlp`
//! once per query, `recsys/gather_pool` once per table per query. E17's
//! recsys lane and `enw_perf`'s `recsys.rows_gathered` /
//! `recsys.bytes_gathered` read these counts.
//!
//! Single test function in its own file: the recorder is process-global
//! and `cargo test` runs the tests of one binary concurrently.

use enw_core::numerics::rng::Rng64;
use enw_core::parallel::with_threads;
use enw_core::recsys::model::{Interaction, RecModel, RecModelConfig};
use enw_core::recsys::trace::TraceGenerator;
use enw_core::trace::{self, TraceMode, TraceReport};

fn span_stats(report: &TraceReport) -> Vec<(&'static str, u64, u64, u64, u64)> {
    report.spans.iter().map(|s| (s.name, s.count, s.work, s.bytes_read, s.bytes_written)).collect()
}

#[test]
fn predict_batch_books_what_the_predict_query_loop_books() {
    let mut rng = Rng64::new(17);
    let cfg = RecModelConfig {
        dense_features: 16,
        bottom_mlp: vec![32, 16],
        tables: vec![(1000, 4); 4],
        embedding_dim: 16,
        top_mlp: vec![32],
        interaction: Interaction::DotPairwise,
    };
    let mut model = RecModel::new(&cfg, &mut rng);
    // More than two blocks, the last one partial.
    let queries = TraceGenerator::new(&cfg, 1.0).batch(600, &mut rng);

    trace::set_mode(TraceMode::Summary);
    trace::reset();
    for q in &queries {
        model.predict_query(q);
    }
    let looped = span_stats(&trace::take_report());
    let mut out = vec![0.0f32; queries.len()];
    let batched: Vec<_> = [1usize, 2]
        .iter()
        .map(|&threads| {
            with_threads(threads, || model.predict_batch_into(&queries, &mut out));
            span_stats(&trace::take_report())
        })
        .collect();
    trace::set_mode(TraceMode::Off);

    let n = queries.len() as u64;
    let count = |name: &str| looped.iter().find(|s| s.0 == name).map(|s| s.1);
    assert_eq!(count("recsys/mlp"), Some(n));
    assert_eq!(count("numerics/matvec"), Some(4 * n), "two bottom layers, two top layers");
    assert_eq!(count("recsys/gather_pool"), Some(4 * n));
    for (threads, stats) in [1, 2].iter().zip(&batched) {
        assert_eq!(stats, &looped, "batched booking diverged at {threads} thread(s)");
    }
}
