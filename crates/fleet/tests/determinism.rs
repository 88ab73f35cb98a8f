//! End-to-end determinism of the fleet simulator (E19's acceptance
//! criterion): the same `(spec, trace)` must produce byte-identical
//! reports at `ENW_THREADS` 1, 2 and 8, and across plain reruns — with
//! the real E19 presets, sharded store and autoscaler included. The
//! fleet itself never dispatches to the worker pool, so the thread
//! sweep pins exactly that: nothing it calls depends on the pool.

use enw_fleet::presets::{fleet_spec, scales, trace, Scenario};
use enw_fleet::sim::{try_run, FleetReport};
use enw_parallel as parallel;

const HORIZON_NS: u64 = 20_000_000;
const SEED: u64 = 19;

/// FNV-1a over [`fingerprint`], recorded at 11bf08d, the commit before
/// the fleet loop moved onto a wake-up heap and the sharded read onto
/// one pass. A faster loop must reproduce it; a change that moves what
/// the fleet reports on purpose re-records it and says so in CHANGES.md.
const PINNED: u64 = 0xee38_950d_a275_9273;

/// Every scenario at the smallest preset fleet.
fn reports() -> Vec<(Scenario, FleetReport)> {
    let scale = scales()[0];
    Scenario::all()
        .into_iter()
        .map(|scenario| {
            let t = trace(scenario, scale, HORIZON_NS, SEED);
            let report = try_run(fleet_spec(scale), &t).expect("preset spec and trace are valid");
            (scenario, report)
        })
        .collect()
}

/// Reports rendered to one comparable byte string.
fn render(reports: &[(Scenario, FleetReport)]) -> String {
    let mut s = String::new();
    for (scenario, report) in reports {
        s.push_str(scenario.name());
        s.push('\n');
        s.push_str(&report.render());
    }
    s
}

fn fingerprint() -> String {
    render(&reports())
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
fn fleet_reports_are_pinned() {
    let reports = reports();
    let digest = render(&reports).bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    // The pin covers the paths a faster loop could skip: the cells scale
    // both ways, and their caches miss more often than they have slots,
    // so LRU eviction runs.
    let ups: u64 = reports.iter().flat_map(|(_, r)| &r.lanes).map(|l| l.scale_ups).sum();
    let downs: u64 = reports.iter().flat_map(|(_, r)| &r.lanes).map(|l| l.scale_downs).sum();
    assert!(ups > 0 && downs > 0, "the cells must scale both ways: {ups} up, {downs} down");
    let slots = {
        let store = fleet_spec(scales()[0]).store.expect("the preset fleet has a sharded lane");
        (store.total_shards() * store.cache_rows) as u64
    };
    for (scenario, report) in &reports {
        let shard = report.shard.expect("the preset fleet has a sharded lane");
        assert!(
            shard.cache_misses > slots,
            "{}: {} misses against {slots} cache slots cannot force eviction",
            scenario.name(),
            shard.cache_misses
        );
    }
    assert_eq!(digest, PINNED, "fleet digest {digest:#018x}");
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
