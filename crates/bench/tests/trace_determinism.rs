//! TraceReport determinism across thread counts.
//!
//! The recorder merges thread-local sinks on join, and every recorded
//! quantity (element counts, pulses, bytes, histogram buckets) is
//! independent of how work was chunked — so the drained report must be
//! equal, field for field, at any `ENW_THREADS` setting. This is the
//! property the E17 stage-breakdown attribution rests on.
//!
//! Single test function: the recorder is process-global and `cargo test`
//! runs tests in one binary concurrently, so all thread-count sweeps live
//! in one sequential body.

use enw_core::parallel::with_threads;
use enw_core::serve::presets::{saturation_qps, traffic_classes, try_fleet};
use enw_core::serve::{generate_trace, LoadSpec};
use enw_core::trace::{self, TraceMode, TraceReport};

/// One serving smoke run (the E16 fleet slightly over saturation, short
/// virtual horizon) under a fresh recording; returns its report.
fn serve_smoke_report() -> TraceReport {
    trace::reset();
    let server = try_fleet(99).expect("preset fleet");
    let classes = traffic_classes();
    let qps = 1.2 * saturation_qps(&server, &classes);
    let spec = LoadSpec { qps, duration_ns: 4_000_000, seed: 99 };
    let arrivals = generate_trace(&server, &spec, &classes);
    server.try_run(&arrivals).expect("generated trace is valid");
    trace::take_report()
}

#[test]
fn serve_trace_report_is_bit_identical_across_thread_counts() {
    trace::set_mode(TraceMode::Summary);
    let t1 = with_threads(1, serve_smoke_report);
    let t2 = with_threads(2, serve_smoke_report);
    let t8 = with_threads(8, serve_smoke_report);
    trace::set_mode(TraceMode::Off);

    let names: Vec<&str> = t1.spans.iter().map(|s| s.name).collect();
    assert!(names.contains(&"serve/backend_execute"), "serving spans missing: {names:?}");
    assert!(names.contains(&"serve/queue_wait"), "queue spans missing: {names:?}");
    assert!(t1.spans.iter().all(|s| s.count > 0), "a span merged with no entries: {t1:?}");
    assert!(t1.total_work() > 0, "no work merged: {t1:?}");
    assert!(!t1.histograms.is_empty(), "serving histograms missing");
    assert_eq!(t1, t2, "trace report diverged between 1 and 2 threads");
    assert_eq!(t1, t8, "trace report diverged between 1 and 8 threads");
}
