//! `enw-trace` — the workspace-wide deterministic observability layer.
//!
//! The paper attributes every workload's cycles and joules to specific
//! stages — crossbar MVM vs. pulse update vs. transfer (Sec. II), the
//! X-MANN kernel breakdown (Sec. III), compute- vs. memory-bound DLRM
//! operators (Sec. V) — and the reproduction needs the same per-stage
//! attribution *inside* a training step, a scheduler tick, or a
//! gather/pool call. This crate provides it without giving up the
//! workspace's core guarantee: **every recorded figure is a pure function
//! of the workload, bit-identical across runs, hosts, and `ENW_THREADS`
//! settings.**
//!
//! # What can be recorded
//!
//! * **Spans** — named scoped regions ([`span`] guards, or the one-shot
//!   [`record_span`]). A span accumulates a hit count, elapsed time on
//!   the trace clock, and an explicit deterministic *work* figure
//!   (element counts, modeled ns) added by the instrumented code.
//! * **Counters** — named monotone `u64` sums ([`counter_add`]).
//! * **Histograms** — named fixed-bucket distributions of `u64` values
//!   ([`record_value`]; see [`histogram::Histogram`]). The serving
//!   runtime's latency percentiles are computed from these.
//!
//! # Determinism model
//!
//! Recording is thread-local: each thread owns a private recorder, and a
//! thread that exits merges its recorder into the process-wide sink
//! (merge-on-join — `enw-parallel` workers are scoped threads, so their
//! recorders merge exactly when `map_chunks` joins them). Every merged
//! quantity is a `u64` sum, a histogram bucket add, or an event-list
//! append canonicalized by sorting, so the merged totals are independent
//! of merge order and therefore of the worker count.
//!
//! Time never comes from the host by default: the trace clock is a
//! virtual nanosecond counter advanced explicitly ([`set_virtual_ns`],
//! used by `enw-serve`'s scheduler), so span durations are deterministic.
//! A bench harness *may* install a real monotonic source with
//! [`install_time_source`] — that is a profiling convenience and
//! explicitly outside the determinism contract (only `enw-bench` may
//! name `Instant`: see the workspace `clippy.toml`).
//!
//! # Overhead
//!
//! The mode switch is a single relaxed atomic load. Every entry point is
//! `#[inline]` down to that load, with its recording body out of line,
//! so with `ENW_TRACE=off` (the default) a call from another crate costs
//! a load and a branch: instrumented kernels run at their uninstrumented
//! speed (`enw_perf` times an off-mode span as `trace.off_span.ns`).
//!
//! # Modes
//!
//! | `ENW_TRACE` | behaviour |
//! |---|---|
//! | `off` (default) | nothing recorded; near-zero overhead |
//! | `summary` | span/counter/histogram aggregates only |
//! | `full` | aggregates plus a chrome-trace-compatible event list |
//!
//! ```
//! use enw_trace as trace;
//!
//! trace::set_mode(trace::TraceMode::Summary);
//! {
//!     let s = trace::span("demo/stage");
//!     s.add_work(128);
//! }
//! trace::counter_add("demo.items", 3);
//! let report = trace::take_report();
//! assert_eq!(report.spans[0].name, "demo/stage");
//! assert_eq!(report.spans[0].work, 128);
//! trace::set_mode(trace::TraceMode::Off);
//! ```

pub mod histogram;
pub mod recorder;
pub mod report;

pub use histogram::Histogram;
pub use recorder::{
    counter_add, flush_local, record_span, record_span_io, record_value, reset, span, take_report,
    Span, SpanStat,
};
pub use report::{CounterEntry, HistEntry, SpanEntry, TraceEvent, TraceReport};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing (default); entry points cost one atomic load.
    Off,
    /// Aggregate spans, counters, and histograms.
    Summary,
    /// Aggregates plus the full chrome-trace event list.
    Full,
}

impl TraceMode {
    /// Parses the `ENW_TRACE` value; unknown strings mean [`TraceMode::Off`].
    pub fn from_env_str(s: &str) -> TraceMode {
        match s.trim() {
            "summary" => TraceMode::Summary,
            "full" => TraceMode::Full,
            _ => TraceMode::Off,
        }
    }

    /// Stable lower-case name (`off`/`summary`/`full`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Full => "full",
        }
    }
}

/// Mode cell: 0/1/2 mirror [`TraceMode`]; 3 means "not yet resolved from
/// the environment".
static MODE: AtomicU8 = AtomicU8::new(3);

/// Current trace mode (resolved from `ENW_TRACE` on first call; override
/// with [`set_mode`]).
#[inline]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Summary,
        2 => TraceMode::Full,
        _ => mode_from_env(),
    }
}

/// First-call resolution of `ENW_TRACE`, kept out of line so the
/// inlined [`mode`] is one load and a compare.
#[inline(never)]
fn mode_from_env() -> TraceMode {
    let m =
        std::env::var("ENW_TRACE").map(|v| TraceMode::from_env_str(&v)).unwrap_or(TraceMode::Off);
    set_mode(m);
    m
}

/// Overrides the trace mode for the whole process (tests, experiment
/// binaries). Takes effect immediately on all threads.
pub fn set_mode(m: TraceMode) {
    let v = match m {
        TraceMode::Off => 0,
        TraceMode::Summary => 1,
        TraceMode::Full => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// True when anything at all is being recorded.
#[inline]
pub fn enabled() -> bool {
    !matches!(mode(), TraceMode::Off)
}

/// The virtual clock value read by [`now_ns`] when no external time
/// source is installed.
static VIRTUAL_NOW: AtomicU64 = AtomicU64::new(0);

/// An installed external time source (bench-only; see module docs).
static TIME_SOURCE: OnceLock<fn() -> u64> = OnceLock::new();

/// Sets the virtual trace clock to an absolute nanosecond value. The
/// serving scheduler calls this as its event loop advances, so span
/// durations inside the runtime are virtual-time deltas.
#[inline]
pub fn set_virtual_ns(ns: u64) {
    VIRTUAL_NOW.store(ns, Ordering::Relaxed);
}

/// Installs a process-wide external time source (e.g. a monotonic clock
/// in `enw-bench`). First caller wins; returns `false` if a source was
/// already installed. Deterministic runs never install one.
pub fn install_time_source(f: fn() -> u64) -> bool {
    TIME_SOURCE.set(f).is_ok()
}

/// Current trace-clock reading in nanoseconds: the installed external
/// source if any, else the virtual counter.
pub fn now_ns() -> u64 {
    match TIME_SOURCE.get() {
        Some(f) => f(),
        None => VIRTUAL_NOW.load(Ordering::Relaxed),
    }
}

/// A snapshot of process-wide heap-allocation counters, as reported by an
/// installed [alloc source](install_alloc_source).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations since process start.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// An installed allocation-counter source (bench-only; the counting
/// `#[global_allocator]` lives in `enw-bench`).
static ALLOC_SOURCE: OnceLock<fn() -> (u64, u64)> = OnceLock::new();

/// Installs a process-wide allocation-counter source returning
/// `(allocs, bytes)` since process start. Like [`install_time_source`]
/// this is a profiling convenience outside the determinism contract:
/// counts are rendered in [`TraceReport::summary_table`] but never stored
/// in a [`TraceReport`]. First caller wins; returns `false` if a source
/// was already installed.
pub fn install_alloc_source(f: fn() -> (u64, u64)) -> bool {
    ALLOC_SOURCE.set(f).is_ok()
}

/// Current allocation counters, or `None` when no source is installed
/// (the default — deterministic runs never install one).
pub fn alloc_stats() -> Option<AllocStats> {
    ALLOC_SOURCE.get().map(|f| {
        let (allocs, bytes) = f();
        AllocStats { allocs, bytes }
    })
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Recorder state is process-global; tests that touch it serialize
    /// on this lock so `cargo test`'s parallel runner cannot interleave
    /// them.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_env_values() {
        assert_eq!(TraceMode::from_env_str("summary"), TraceMode::Summary);
        assert_eq!(TraceMode::from_env_str(" full "), TraceMode::Full);
        assert_eq!(TraceMode::from_env_str("off"), TraceMode::Off);
        assert_eq!(TraceMode::from_env_str("nonsense"), TraceMode::Off);
        assert_eq!(TraceMode::Summary.as_str(), "summary");
    }

    #[test]
    fn set_mode_round_trips() {
        let _guard = test_lock::hold();
        let before = mode();
        for m in [TraceMode::Summary, TraceMode::Full, TraceMode::Off] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
        set_mode(before);
    }

    #[test]
    fn virtual_clock_reads_back() {
        let _guard = test_lock::hold();
        set_virtual_ns(123);
        assert_eq!(now_ns(), 123);
        set_virtual_ns(0);
    }

    #[test]
    fn alloc_source_installs_once_and_feeds_the_summary() {
        let _guard = test_lock::hold();
        assert_eq!(alloc_stats(), None, "no source installed yet");
        assert!(install_alloc_source(|| (7, 4096)));
        assert!(!install_alloc_source(|| (0, 0)), "second install must be refused");
        assert_eq!(alloc_stats(), Some(AllocStats { allocs: 7, bytes: 4096 }));
        // The report itself never stores the counters; only the rendered
        // console table shows them.
        let r = TraceReport::default();
        let table = r.summary_table();
        assert!(table.contains("allocator"), "{table}");
        assert!(table.contains("4096"), "{table}");
    }

    #[test]
    fn external_time_source_installs_once() {
        // The installed source mirrors the virtual counter so the other
        // tests in this process keep their clock semantics.
        let first = install_time_source(|| VIRTUAL_NOW.load(Ordering::Relaxed));
        let second = install_time_source(|| 0);
        assert!(first);
        assert!(!second, "second install must be refused");
    }
}
