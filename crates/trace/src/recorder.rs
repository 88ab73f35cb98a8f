//! Thread-local recorders with commutative merge-on-join.
//!
//! Every thread records into its own private `Sink`; when a thread
//! exits, or calls [`flush_local`] as the persistent `enw-parallel`
//! workers do after every job, its sink drains into the process-wide
//! one. All merged quantities are order-independent (`u64` sums and
//! histogram bucket adds), so the global totals are identical for any
//! worker count and any join order. [`take_report`]
//! drains the calling thread's sink plus the global one; call it from
//! the thread that owns the workload (experiment binaries, the serving
//! loop) after all parallel sections have joined.

use crate::enabled;
use crate::histogram::Histogram;
use crate::report::{self, TraceReport};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregate statistics of one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total explicit work units attributed via [`Span::add_work`] /
    /// [`record_span`] (element counts, modeled nanoseconds — the
    /// deterministic attribution currency).
    pub work: u64,
    /// Total bytes the instrumented kernel read, attributed via
    /// [`Span::add_io`] / [`record_span_io`]. A pure function of the
    /// operand shapes (rows × cols × element size), never of the memory
    /// system, so it is deterministic like `work`.
    pub bytes_read: u64,
    /// Total bytes the instrumented kernel wrote (see `bytes_read`).
    pub bytes_written: u64,
}

/// One recorder's worth of data (also the global merge target).
#[derive(Debug, Default)]
pub(crate) struct Sink {
    pub(crate) spans: BTreeMap<&'static str, SpanStat>,
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) values: BTreeMap<&'static str, Histogram>,
}

impl Sink {
    const fn empty() -> Self {
        Sink { spans: BTreeMap::new(), counters: BTreeMap::new(), values: BTreeMap::new() }
    }

    /// Commutative merge: sums and bucket adds.
    fn merge_into(self, target: &mut Sink) {
        for (name, s) in self.spans {
            let t = target.spans.entry(name).or_default();
            t.count += s.count;
            t.work += s.work;
            t.bytes_read += s.bytes_read;
            t.bytes_written += s.bytes_written;
        }
        for (name, v) in self.counters {
            *target.counters.entry(name).or_default() += v;
        }
        for (name, h) in self.values {
            target.values.entry(name).or_default().merge(&h);
        }
    }
}

/// The process-wide sink threads merge into on exit.
static GLOBAL: Mutex<Sink> = Mutex::new(Sink::empty());

/// Thread-local sink wrapper whose drop is the merge-on-join step.
struct LocalSink(Sink);

impl Drop for LocalSink {
    fn drop(&mut self) {
        let sink = std::mem::take(&mut self.0);
        let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        sink.merge_into(&mut global);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSink> = const { RefCell::new(LocalSink(Sink::empty())) };
}

/// Runs `f` against this thread's sink; silently a no-op during thread
/// teardown (after the thread-local has been destroyed).
fn with_local(f: impl FnOnce(&mut Sink)) {
    let _ = LOCAL.try_with(|l| {
        if let Ok(mut guard) = l.try_borrow_mut() {
            f(&mut guard.0);
        }
    });
}

/// A scoped span guard: records its count, attributed work and bytes
/// when dropped. Inert (free) when tracing is off.
#[must_use = "a span records on drop; binding it to _ discards the scope"]
pub struct Span {
    name: &'static str,
    work: Cell<u64>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
    live: bool,
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attributes `units` of deterministic work (element counts, modeled
    /// nanoseconds) to this span entry.
    #[inline]
    pub fn add_work(&self, units: u64) {
        if self.live {
            self.work.set(self.work.get().saturating_add(units));
        }
    }

    /// Attributes deterministic data traffic to this span entry: bytes
    /// the kernel read from its operands and bytes it wrote to its
    /// outputs, computed from the operand shapes (so reruns record the
    /// same figures bit for bit).
    pub fn add_io(&self, read: u64, written: u64) {
        if self.live {
            self.bytes_read.set(self.bytes_read.get().saturating_add(read));
            self.bytes_written.set(self.bytes_written.get().saturating_add(written));
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        // The live half is out of line, so an inert span's drop is one
        // branch.
        if self.live {
            record_span_live(
                self.name,
                self.work.get(),
                self.bytes_read.get(),
                self.bytes_written.get(),
            );
        }
    }
}

/// Opens a named span; the returned guard records when it drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        work: Cell::new(0),
        bytes_read: Cell::new(0),
        bytes_written: Cell::new(0),
        live: enabled(),
    }
}

/// One-shot span: records a single entry of `name` carrying `work`
/// units. The cheap form kernel hot paths use.
#[inline]
pub fn record_span(name: &'static str, work: u64) {
    record_span_io(name, work, 0, 0);
}

/// One-shot span carrying `work` units plus deterministic byte traffic
/// (`bytes_read` from operands, `bytes_written` to outputs). The figures
/// must derive from operand shapes only, so the recorded traffic — and
/// the arithmetic-intensity column in the summary table — is identical
/// on every rerun.
#[inline]
pub fn record_span_io(name: &'static str, work: u64, bytes_read: u64, bytes_written: u64) {
    if enabled() {
        record_span_live(name, work, bytes_read, bytes_written);
    }
}

#[inline(never)]
fn record_span_live(name: &'static str, work: u64, bytes_read: u64, bytes_written: u64) {
    with_local(|sink| {
        let stat = sink.spans.entry(name).or_default();
        stat.count += 1;
        stat.work += work;
        stat.bytes_read += bytes_read;
        stat.bytes_written += bytes_written;
    });
}

/// Adds `v` to the named monotone counter.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if enabled() {
        counter_add_live(name, v);
    }
}

#[inline(never)]
fn counter_add_live(name: &'static str, v: u64) {
    with_local(|sink| *sink.counters.entry(name).or_default() += v);
}

/// Records `v` into the named fixed-bucket histogram.
#[inline]
pub fn record_value(name: &'static str, v: u64) {
    if enabled() {
        record_value_live(name, v);
    }
}

#[inline(never)]
fn record_value_live(name: &'static str, v: u64) {
    with_local(|sink| sink.values.entry(name).or_default().record(v));
}

/// Merges the calling thread's sink into the global one.
///
/// Threads that exit do this automatically (merge-on-join). Threads that
/// *never* exit — the persistent `enw-parallel` pool workers — must call
/// this explicitly when a parallel job finishes, or their recordings
/// would sit invisible in thread-local state forever. The merge is
/// commutative (`u64` sums and histogram bucket adds), so
/// flushing per job instead of per thread-lifetime changes nothing in
/// the totals.
pub fn flush_local() {
    flush_thread();
}

fn flush_thread() {
    let _ = LOCAL.try_with(|l| {
        if let Ok(mut guard) = l.try_borrow_mut() {
            let sink = std::mem::take(&mut guard.0);
            let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
            sink.merge_into(&mut global);
        }
    });
}

/// Drains everything recorded so far (this thread + all joined threads)
/// into a [`TraceReport`] and resets the recorders.
pub fn take_report() -> TraceReport {
    flush_thread();
    let sink = {
        let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *global)
    };
    report::build(sink)
}

/// Discards everything recorded so far (this thread + joined threads).
pub fn reset() {
    flush_thread();
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    *global = Sink::empty();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, test_lock, TraceMode};

    fn with_summary_mode<R>(f: impl FnOnce() -> R) -> R {
        let _guard = test_lock::hold();
        set_mode(TraceMode::Summary);
        reset();
        let r = f();
        set_mode(TraceMode::Off);
        r
    }

    #[test]
    fn spans_counters_and_values_round_trip() {
        let report = with_summary_mode(|| {
            {
                let s = span("test/alpha");
                s.add_work(40);
            }
            record_span("test/beta", 7);
            record_span("test/beta", 3);
            counter_add("test.count", 5);
            counter_add("test.count", 6);
            record_value("test.values", 42);
            take_report()
        });
        let alpha = report.spans.iter().find(|s| s.name == "test/alpha").copied();
        assert_eq!(alpha, report.spans.first().copied(), "spans sorted by name");
        let alpha = alpha.unwrap_or_default();
        assert_eq!(alpha.count, 1);
        assert_eq!(alpha.work, 40);
        let beta = report.spans.iter().find(|s| s.name == "test/beta").copied();
        assert_eq!(beta.map(|s| (s.count, s.work)), Some((2, 10)));
        assert_eq!(report.counters, vec![crate::CounterEntry { name: "test.count", value: 11 }]);
        assert_eq!(report.histograms.len(), 1);
        assert_eq!(report.histograms.first().map(|h| h.count), Some(1));
    }

    #[test]
    fn span_io_accumulates_and_merges() {
        let report = with_summary_mode(|| {
            {
                let s = span("test/io");
                s.add_work(64);
                s.add_io(1024, 256);
                s.add_io(1024, 256);
            }
            record_span_io("test/io", 64, 512, 128);
            // Worker-thread recordings of the same span must merge in.
            // Join explicitly: the scope's implicit wait can return
            // before the TLS destructor that performs the merge has run.
            #[allow(clippy::disallowed_methods)]
            std::thread::scope(|scope| {
                let h = scope.spawn(|| record_span_io("test/io", 0, 100, 10));
                h.join().expect("worker panicked");
            });
            take_report()
        });
        let io = report.spans.iter().find(|s| s.name == "test/io").copied().unwrap_or_default();
        assert_eq!(io.count, 3);
        assert_eq!(io.work, 128);
        assert_eq!(io.bytes_read, 1024 + 1024 + 512 + 100);
        assert_eq!(io.bytes_written, 256 + 256 + 128 + 10);
    }

    #[test]
    fn flush_local_is_idempotent_and_preserves_totals() {
        let report = with_summary_mode(|| {
            record_span("test/flush", 5);
            flush_local();
            flush_local(); // nothing left locally; must not double-count
            record_span("test/flush", 7);
            take_report()
        });
        let f = report.spans.iter().find(|s| s.name == "test/flush").copied();
        assert_eq!(f.map(|s| (s.count, s.work)), Some((2, 12)));
    }

    #[test]
    fn off_mode_records_nothing() {
        let _guard = test_lock::hold();
        set_mode(TraceMode::Off);
        reset();
        {
            let s = span("test/ignored");
            s.add_work(10);
            s.add_io(10, 10);
        }
        record_span("test/ignored", 1);
        record_span_io("test/ignored", 1, 1, 1);
        counter_add("test.ignored", 1);
        record_value("test.ignored", 1);
        let report = take_report();
        assert!(report.is_empty(), "off mode must record nothing: {report:?}");
    }

    #[test]
    fn take_report_resets_state() {
        let first = with_summary_mode(|| {
            record_span("test/reset", 1);
            let first = take_report();
            let second = take_report();
            assert!(second.is_empty(), "take_report must drain");
            first
        });
        assert_eq!(first.spans.len(), 1);
    }

    #[test]
    fn worker_thread_sinks_merge_on_join() {
        let report = with_summary_mode(|| {
            #[allow(clippy::disallowed_methods)]
            std::thread::scope(|s| {
                // Join each handle explicitly: the scope's implicit wait
                // returns when the closures finish, which can be before
                // the TLS destructors that perform the merge have run.
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            record_span("test/worker", 10);
                            counter_add("test.worker", 1);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("worker panicked");
                }
            });
            take_report()
        });
        let w = report.spans.iter().find(|s| s.name == "test/worker").copied();
        assert_eq!(w.map(|s| (s.count, s.work)), Some((4, 40)));
        assert_eq!(report.counters.first().map(|c| c.value), Some(4));
    }
}
