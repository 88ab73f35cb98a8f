//! Integration test of the E20 determinism contract: DSE search
//! trajectories, virtual-clock stamps and Pareto fronts are bit-identical
//! across reruns and across `ENW_THREADS` worker counts, for the real
//! lane evaluators (not just synthetic landscapes).
//!
//! Runs in the default tier-1 suite — determinism is a hard invariant,
//! not an optional property sweep.

use enw_core::parallel::with_threads;
use enw_dse::{explore, Lane, SearchConfig, SearchResult};

fn run_lane(lane: Lane, threads: usize) -> SearchResult {
    with_threads(threads, || explore(&lane.space(), &|p| lane.evaluate(p), &SearchConfig::smoke()))
}

/// One lane's full search result compared across 1, 2, 3 and 8 workers
/// and across a rerun at the same width. `SearchResult` derives `PartialEq`,
/// so this compares fronts, counters, the virtual clock and the full
/// accepted-move trajectory.
fn assert_thread_invariant(lane: Lane) {
    let r1 = run_lane(lane, 1);
    for threads in [2, 3, 8] {
        assert_eq!(r1, run_lane(lane, threads), "{}: 1 vs {threads} workers", lane.name());
    }
    assert_eq!(r1, run_lane(lane, 1), "{}: rerun at one worker drifted", lane.name());
    assert!(r1.clock_ns > 0, "{}: virtual clock never advanced", lane.name());
    assert!(r1.front.len() >= 3, "{}: front collapsed", lane.name());
}

#[test]
fn crossbar_search_is_thread_invariant() {
    assert_thread_invariant(Lane::Crossbar);
}

#[test]
fn cam_search_is_thread_invariant() {
    assert_thread_invariant(Lane::Cam);
}

#[test]
fn xmann_search_is_thread_invariant() {
    assert_thread_invariant(Lane::Xmann);
}

#[test]
fn serve_search_is_thread_invariant() {
    assert_thread_invariant(Lane::Serve);
}
