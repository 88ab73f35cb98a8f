//! End-to-end determinism of the fleet simulator (E19's acceptance
//! criterion): the same `(spec, trace)` must produce byte-identical
//! reports at `ENW_THREADS` 1, 2 and 8, and across plain reruns — with
//! the real E19 presets, sharded store and autoscaler included. The
//! fleet itself never dispatches to the worker pool, so the thread
//! sweep pins exactly that: nothing it calls depends on the pool.

use enw_fleet::presets::{fleet_spec, scales, trace, Scenario};
use enw_fleet::sim::try_run;
use enw_parallel as parallel;

const HORIZON_NS: u64 = 20_000_000;
const SEED: u64 = 19;

/// Every scenario at the smallest preset fleet, rendered to one
/// comparable byte string.
fn fingerprint() -> String {
    let scale = scales()[0];
    let mut s = String::new();
    for scenario in Scenario::all() {
        let t = trace(scenario, scale, HORIZON_NS, SEED);
        let report = try_run(fleet_spec(scale), &t).expect("preset spec and trace are valid");
        s.push_str(scenario.name());
        s.push('\n');
        s.push_str(&report.render());
    }
    s
}

#[test]
fn same_spec_same_bytes_across_thread_counts() {
    let reference = parallel::with_threads(1, fingerprint);
    for threads in [2, 8] {
        let got = parallel::with_threads(threads, fingerprint);
        assert_eq!(got, reference, "ENW_THREADS={threads} changed the fleet report");
    }
    // And a plain re-run without any thread pinning.
    assert_eq!(fingerprint(), reference);
}

#[test]
fn different_seeds_name_different_runs() {
    let scale = scales()[1];
    let a = try_run(fleet_spec(scale), &trace(Scenario::DiurnalZipf, scale, HORIZON_NS, 1))
        .expect("valid")
        .render();
    let b = try_run(fleet_spec(scale), &trace(Scenario::DiurnalZipf, scale, HORIZON_NS, 2))
        .expect("valid")
        .render();
    assert_ne!(a, b, "distinct trace seeds should name distinct reports");
}
