//! Allocation accounting for the E21 zero-allocation gate and the
//! zero-allocation integration tests.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (and requested byte) twice: into process-wide relaxed
//! atomics and into a const-initialised thread-local cell. It is
//! installed as the `#[global_allocator]` **only** in the targets that
//! measure allocation behaviour — the `enw` binary and the
//! `alloc_discipline` integration test.
//!
//! Which reader to use:
//!
//! - [`thread_snapshot`] — the calling thread's totals. A window on one
//!   thread is exact whatever other threads do (the libtest harness
//!   allocates concurrently), so the `alloc_discipline` tests assert
//!   `== 0` on it.
//! - [`snapshot`] — the whole process. E21's pooled training-step gate
//!   reads it, because it must see what pool workers allocate.
//!
//! All counters are monotone totals; callers diff snapshots around the
//! region of interest.

use enw_core::numerics::rng::Rng64;
use enw_core::serve::backend::{Backend, ServiceModel};
use enw_core::serve::policy::{BatchPolicy, StationSpec};
use enw_core::serve::request::{Output, Payload, Request};
use enw_core::serve::scheduler::Server;
use enw_core::serve::ServeError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator neither allocates nor registers a destructor.
    static THREAD: Cell<Snapshot> = const { Cell::new(Snapshot { allocs: 0, bytes: 0 }) };
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = THREAD.try_with(|c| {
        let s = c.get();
        c.set(Snapshot { allocs: s.allocs + 1, bytes: s.bytes + bytes as u64 });
    });
}

/// A `#[global_allocator]` shim over [`System`] that counts allocations.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow on the hot path costs what a fresh allocation costs, so
        // it counts as one.
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counter values at one instant (monotone totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Heap allocations (including zeroed allocations and reallocations).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Snapshot {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Process-wide counter values since process start. Both stay zero
/// unless [`CountingAlloc`] is installed as the global allocator.
pub fn snapshot() -> Snapshot {
    Snapshot { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

/// The calling thread's counter values since the thread started.
pub fn thread_snapshot() -> Snapshot {
    THREAD.get()
}

/// Constant-output backend: isolates the scheduler event loop (queue,
/// batch close, pending hand-off) from backend output allocation —
/// labels are plain enum payloads.
pub struct ConstLabel;

impl Backend for ConstLabel {
    fn name(&self) -> &str {
        "const_label"
    }
    fn service_ns(&self, batch: usize) -> u64 {
        ServiceModel { setup_ns: 200, per_item_ns: 50 }.ns(batch)
    }
    fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
        out.clear();
        out.extend(batch.iter().map(|_| Output::Label(Some(1))));
    }
    fn make_payload(&self, _rng: &mut Rng64) -> Payload {
        Payload::Features(vec![0.0; 16])
    }
}

/// Allocations the calling thread makes during one run of `n` requests
/// through a single [`ConstLabel`] station. The trace is built before
/// the window opens, with 16-float feature payloads: a loop that copied
/// a request's payload would allocate per request inside the window.
///
/// # Errors
///
/// Forwards the server's own validation errors; the fixed station and
/// trace built here are valid.
pub fn serve_run_allocs(n: usize) -> Result<u64, ServeError> {
    let reqs: Vec<Request> = (0..n)
        .map(|k| Request {
            id: k as u64,
            station: 0,
            payload: Payload::Features(vec![0.0; 16]),
            arrival_ns: 1_000 * k as u64,
            deadline_ns: u64::MAX,
        })
        .collect();
    let spec = StationSpec::simple(
        Box::new(ConstLabel),
        BatchPolicy { max_batch: 8, max_wait_ns: 500, queue_cap: 64 },
    );
    let server = Server::try_new(vec![spec])?;
    let s0 = thread_snapshot();
    let report = server.try_run(&reqs)?;
    let allocs = thread_snapshot().since(s0).allocs;
    assert_eq!(report.responses.len(), n, "every request must resolve");
    Ok(allocs)
}
