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
//!   [`record_span`]). A span accumulates a hit count, an explicit
//!   deterministic *work* figure (element counts, modeled ns) and the
//!   bytes it read and wrote, all added by the instrumented code.
//! * **Counters** — named monotone `u64` sums ([`counter_add`]).
//! * **Histograms** — named fixed-bucket distributions of `u64` values
//!   ([`record_value`]; see [`histogram::Histogram`]). The serving
//!   runtime's latency percentiles are computed from these.
//!
//! # Determinism model
//!
//! Recording is thread-local: each thread owns a private recorder and
//! merges it into the process-wide sink when it exits or calls
//! [`flush_local`]. `enw-parallel`'s workers are persistent and never
//! exit, so the pool flushes each worker's recorder after every job.
//! Every merged quantity is a `u64` sum or a histogram bucket add, so
//! the merged totals are independent of merge order and therefore of
//! the worker count. Nothing is read from a clock: a span's figures are
//! what the instrumented code attributes to it (only `enw-bench` may
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
//! | `summary` | span/counter/histogram aggregates |
//!
//! Any other value records nothing, as `off` does.
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
#![expect(
    clippy::disallowed_macros,
    reason = "recording is thread-local by design: each thread's recorder merges into the sink"
)]

pub mod histogram;
pub mod recorder;
pub mod report;

pub use histogram::Histogram;
pub use recorder::{
    counter_add, flush_local, record_span, record_span_io, record_value, reset, span, take_report,
    Span, SpanStat,
};
pub use report::{CounterEntry, HistEntry, SpanEntry, TraceReport};

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing (default); entry points cost one atomic load.
    Off,
    /// Aggregate spans, counters, and histograms.
    Summary,
}

impl TraceMode {
    /// Parses an `ENW_TRACE` value: `None` for anything but `off` and
    /// `summary`, which the process then runs as [`TraceMode::Off`].
    pub fn from_env_str(s: &str) -> Option<TraceMode> {
        match s.trim() {
            "off" => Some(TraceMode::Off),
            "summary" => Some(TraceMode::Summary),
            _ => None,
        }
    }
}

/// Mode cell: 0/1 mirror [`TraceMode`]; 3 means "not yet resolved from
/// the environment".
static MODE: AtomicU8 = AtomicU8::new(3);

/// Current trace mode (resolved from `ENW_TRACE` on first call; override
/// with [`set_mode`]).
#[inline]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Summary,
        _ => mode_from_env(),
    }
}

/// First-call resolution of `ENW_TRACE`, kept out of line so the
/// inlined [`mode`] is one load and a compare.
#[inline(never)]
fn mode_from_env() -> TraceMode {
    let m = std::env::var("ENW_TRACE")
        .ok()
        .and_then(|v| TraceMode::from_env_str(&v))
        .unwrap_or(TraceMode::Off);
    set_mode(m);
    m
}

/// Overrides the trace mode for the whole process (tests, experiment
/// binaries). Takes effect immediately on all threads.
pub fn set_mode(m: TraceMode) {
    let v = match m {
        TraceMode::Off => 0,
        TraceMode::Summary => 1,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// True when anything at all is being recorded.
#[inline]
pub fn enabled() -> bool {
    !matches!(mode(), TraceMode::Off)
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
        assert_eq!(TraceMode::from_env_str("summary"), Some(TraceMode::Summary));
        assert_eq!(TraceMode::from_env_str(" summary\n"), Some(TraceMode::Summary));
        assert_eq!(TraceMode::from_env_str("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::from_env_str("full"), None);
        assert_eq!(TraceMode::from_env_str("nonsense"), None);
    }

    #[test]
    fn set_mode_round_trips() {
        let _guard = test_lock::hold();
        let before = mode();
        for m in [TraceMode::Summary, TraceMode::Off] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
        set_mode(before);
    }
}
