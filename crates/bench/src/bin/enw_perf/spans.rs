//! Benchmark-owned instruments: the span recorder of the traced pass
//! and the counting allocator behind `host.allocs_per_op`.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing here instruments a library.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every heap allocation of the process, on any thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every request unchanged to `System`; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) made by the process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const NO_PARENT: u32 = u32::MAX;

/// One closed span of the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at the top level.
    pub parent: u32,
    /// Which traced rep this span belongs to.
    pub rep: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened and not yet closed.
pub struct Open {
    idx: u32,
    start: Instant,
}

/// In-memory span log. `open`/`close` always read the clock, so a
/// caller times its region the same way whether or not the log is on;
/// switching it on adds only the push into a preallocated vector.
pub struct Spans {
    on: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<u32>,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// A log that records nothing until [`Spans::record_rep`].
    pub fn new() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::with_capacity(16),
            recs: Vec::with_capacity(1 << 17),
        }
    }

    /// Records the spans opened from now on as belonging to rep `rep`.
    pub fn record_rep(&mut self, rep: u32) {
        self.on = true;
        self.rep = rep;
    }

    pub fn stop(&mut self) {
        self.on = false;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.on {
            return Open { idx: NO_PARENT, start };
        }
        let idx = self.recs.len() as u32;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            rep: self.rep,
        });
        self.stack.push(idx);
        Open { idx, start }
    }

    /// Closes the innermost open span and returns how long it ran.
    pub fn close(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if open.idx != NO_PARENT {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans close innermost first");
            let rec = &mut self.recs[open.idx as usize];
            rec.end_ns = rec.start_ns + dur.as_nanos() as u64;
        }
        dur
    }

    /// Times `f` under a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    /// Durations in nanoseconds of every recorded span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.recs.iter().filter(|r| r.name == name).map(|r| r.dur_ns() as f64).collect()
    }

    /// Total seconds spent under spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.recs.iter().filter(|r| r.name == name).map(|r| r.dur_ns() as f64).sum::<f64>() / 1e9
    }

    /// A span's duration minus the part its child spans cover, per span.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.recs.iter().map(SpanRec::dur_ns).collect();
        for r in &self.recs {
            if r.parent != NO_PARENT {
                let p = r.parent as usize;
                own[p] = own[p].saturating_sub(r.dur_ns());
            }
        }
        own
    }

    /// Share of the top-level spans' time that no child span covers —
    /// the reported remainder of the attribution.
    pub fn unattributed_frac(&self) -> f64 {
        let own = self.self_ns();
        let (mut total, mut unattributed) = (0u64, 0u64);
        for (r, &s) in self.recs.iter().zip(&own) {
            if r.parent == NO_PARENT {
                total += r.dur_ns();
                unattributed += s;
            }
        }
        if total == 0 {
            0.0
        } else {
            unattributed as f64 / total as f64
        }
    }

    /// The log as chrome-trace JSON ("X" complete events, microseconds;
    /// one `tid` per traced rep; parent index and self time in `args`).
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let own = self.self_ns();
        let mut s = String::with_capacity(self.recs.len() * 120 + 32);
        s.push_str("{\"traceEvents\":[");
        for (i, (r, own_ns)) in self.recs.iter().zip(&own).enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                r.name,
                r.rep,
                r.start_ns as f64 / 1e3,
                r.dur_ns() as f64 / 1e3,
                i,
                if r.parent == NO_PARENT { -1 } else { i64::from(r.parent) },
                *own_ns as f64 / 1e3,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec { name, start_ns, end_ns, parent, rep: 0 }
    }

    #[test]
    fn self_time_subtracts_children_and_reports_the_remainder() {
        let mut s = Spans::new();
        s.recs = vec![
            rec("rep", 0, 1000, NO_PARENT),
            rec("a", 0, 400, 0),
            rec("a.inner", 100, 200, 1),
            rec("b", 400, 900, 0),
        ];
        assert_eq!(s.self_ns(), vec![100, 300, 100, 500]);
        assert!((s.unattributed_frac() - 0.1).abs() < 1e-12);
        assert_eq!(s.durations_ns("a"), vec![400.0]);
        assert!((s.busy_s("b") - 500e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_only_while_on_and_always_times() {
        let mut s = Spans::new();
        let quiet = s.open("off");
        s.close(quiet);
        assert!(s.recs.is_empty());
        s.record_rep(2);
        let outer = s.open("outer");
        s.time("inner", || std::hint::black_box(1 + 1));
        let took = s.close(outer);
        s.stop();
        let [o, i] = &s.recs[..] else { panic!("two spans expected") };
        assert_eq!((o.name, o.parent, o.rep), ("outer", NO_PARENT, 2));
        assert_eq!((i.name, i.parent), ("inner", 0));
        assert!(i.start_ns >= o.start_ns && i.end_ns <= o.end_ns);
        assert_eq!(u128::from(o.dur_ns()), took.as_nanos());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut s = Spans::new();
        s.recs = vec![rec("rep", 0, 2500, NO_PARENT), rec("cam.bank_search", 500, 1500, 0)];
        let doc = json::parse(&s.chrome_trace()).expect("valid JSON");
        let events = doc.get("traceEvents").expect("traceEvents").as_array();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(json::Value::as_str), Some("cam.bank_search"));
        assert_eq!(events[1].get("dur").and_then(json::Value::as_f64), Some(1.0));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("self_us")).and_then(json::Value::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn allocator_counts_allocations() {
        let before = allocations();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(allocations() > before);
        drop(v);
    }
}
