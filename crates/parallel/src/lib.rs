//! Dependency-free parallel runtime with deterministic chunked reduction.
//!
//! The loops in the workspace that carry enough work to split — crossbar
//! pulse updates by row block, DLRM query blocks, design-space points —
//! are data-parallel over an index range. This module runs such loops
//! on a **persistent, lazily started worker
//! pool** ([`pool`]): workers are spawned once on first use, park on a
//! condvar between jobs, and keep their thread-local scratch pools warm,
//! so the steady-state cost of a parallel section is an enqueue and an
//! unpark — no thread spawn/join on the hot path. The runtime keeps a
//! guarantee the numeric code depends on:
//!
//! **Determinism.** Work is split at *fixed chunk boundaries* derived
//! only from the problem size and a caller-chosen chunk length — never
//! from the thread count. Chunk *i* is always owned by participant slot
//! `i % slots` (a static deal, no work stealing), computed exactly as
//! the serial code would compute it, and handed back in chunk order. A
//! caller that folds the results left-to-right therefore performs the
//! same floating-point operations in the same order as the serial loop,
//! so results are bit-identical for 1, 3, or 64 threads.
//!
//! **No work model.** A caller names its chunk length — a shape-only
//! constant of its own (16 tile rows, 256 DLRM queries, one design
//! point) — and the runtime deals whatever chunks that yields: one chunk
//! runs in line, two or more go to the pool. Nothing here estimates
//! whether a loop is worth splitting; a loop that is not is written as a
//! plain loop.
//!
//! The worker count comes from, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests and the benchmark),
//! 2. the `ENW_THREADS` environment variable, as it stood at the first
//!    dispatch (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! With one worker every entry point degenerates to the plain serial
//! loop on the calling thread — no pool interaction, no overhead. The
//! same degeneration applies to parallel sections reached from *inside*
//! a pool worker (nested parallelism runs serial inline; see [`pool`]).

pub mod pool;
pub mod scratch;

use std::cell::Cell;
use std::ops::Range;
use std::thread;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel entry points will use.
///
/// Resolution order: [`with_threads`] override, then `ENW_THREADS`
/// (values that fail to parse, or `0`, are ignored), then the machine's
/// available parallelism; the last two are resolved at the first call
/// and never again. Always at least 1.
fn max_threads() -> usize {
    match THREAD_OVERRIDE.with(|o| o.get()) {
        Some(n) => n.max(1),
        None => ambient_threads(),
    }
}

/// The worker count outside any [`with_threads`] scope, resolved once
/// per process: the environment read is a lock and a `String`, and
/// [`std::thread::available_parallelism`] re-reads cgroup quota files on
/// Linux — both far too heavy for a per-kernel-dispatch gate. A process
/// that wants another count later uses [`with_threads`].
fn ambient_threads() -> usize {
    static AMBIENT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AMBIENT.get_or_init(|| {
        parse_thread_count(std::env::var("ENW_THREADS").ok().as_deref())
            .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The worker count an `ENW_THREADS` value asks for: a positive integer,
/// surrounding whitespace allowed; anything else asks for nothing.
fn parse_thread_count(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n >= 1)
}

/// Runs `f` with the worker count pinned to `n` on this thread.
///
/// Nested calls stack; the previous override is restored on exit (also
/// on panic, since the guard restores on drop). This is how the
/// equivalence tests and `enw_perf` sweep thread counts.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Raw-pointer writer for per-chunk result slots. Sound because the
/// static chunk deal gives every index to exactly one participant, and
/// the owning `Vec` outlives the job (the pool blocks until all slots
/// finish).
struct SlotWriter<R>(*mut Option<R>);

// SAFETY: distinct job slots write distinct indices; R crosses threads.
unsafe impl<R: Send> Send for SlotWriter<R> {}
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    /// # Safety
    ///
    /// `idx` must be in bounds of the backing `Vec` and owned by exactly
    /// one job slot, and the `Vec` must outlive the job.
    unsafe fn write(&self, idx: usize, value: R) {
        *self.0.add(idx) = Some(value);
    }
}

/// Raw-pointer base for handing disjoint `&mut` windows of one slice to
/// different job slots (the pointer equivalent of `chunks_mut`).
struct DataPtr<T>(*mut T);

// SAFETY: windows derived from this pointer are disjoint per the static
// chunk deal; sending &mut access of T across threads needs T: Send.
unsafe impl<T: Send> Send for DataPtr<T> {}
unsafe impl<T: Send> Sync for DataPtr<T> {}

impl<T> DataPtr<T> {
    /// # Safety
    ///
    /// `start..start + len` must be in bounds of the backing slice,
    /// disjoint from every other live window, and the slice must outlive
    /// the job.
    #[allow(clippy::mut_from_ref)] // windows are disjoint per the chunk deal
    unsafe fn window(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

/// Participant count for a problem with `nchunks` chunks: 1 (serial)
/// unless multiple threads are available, we are not already inside a
/// pool worker, and there is more than one chunk to hand out.
fn job_slots(nchunks: usize) -> usize {
    if pool::is_pool_worker() {
        return 1;
    }
    max_threads().min(nchunks).max(1)
}

/// Number of fixed-boundary chunks `0..n` splits into (`chunk` clamped
/// to at least 1).
fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// The one fan-out every public runner is a shell over: splits `0..n`
/// at fixed `chunk` boundaries and runs `body(c, range)` exactly once
/// per chunk `c`. With a single participant (one thread, one chunk, or
/// a call from inside a pool worker) the chunks run inline in ascending
/// order; otherwise chunk `c` is dealt to slot `c % slots` — a static
/// deal, no stealing — over the persistent pool, which blocks until
/// every slot is done. Allocation-free either way.
fn deal_chunks<F>(n: usize, chunk: usize, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let chunk = chunk.max(1);
    let nchunks = chunk_count(n, chunk);
    let range = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let slots = job_slots(nchunks);
    if slots <= 1 {
        for c in 0..nchunks {
            body(c, range(c));
        }
        return;
    }
    pool::run_job(slots, &|slot| {
        let mut c = slot;
        while c < nchunks {
            body(c, range(c));
            c += slots;
        }
    });
}

/// Applies `f` to each fixed-boundary chunk of `0..n`, in parallel on
/// the persistent pool, and returns the per-chunk results **in chunk
/// order**.
///
/// Chunk boundaries depend only on `n` and `chunk`, so the result vector
/// is identical for any worker count; fold it left-to-right for a
/// bit-deterministic reduction.
pub fn map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let mut results: Vec<Option<R>> = (0..chunk_count(n, chunk)).map(|_| None).collect();
    let out = SlotWriter(results.as_mut_ptr());
    // SAFETY: the dealer hands each chunk index in `0..results.len()` to
    // exactly one participant, and `results` outlives the job.
    deal_chunks(n, chunk, |c, range| unsafe { out.write(c, f(range)) });
    results.into_iter().map(|r| r.expect("chunk not computed")).collect()
}

/// Like [`map_chunks`], but hands each participant a disjoint `&mut`
/// window of `data` (split at fixed `chunk` boundaries) plus the
/// window's start offset. Per-chunk results come back in chunk order.
pub fn for_each_chunk_mut<T, R, F>(data: &mut [T], chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let base = DataPtr(data.as_mut_ptr());
    // SAFETY: fixed chunk boundaries make the windows disjoint and in
    // bounds, each chunk runs exactly once, and `data` outlives the job.
    map_chunks(data.len(), chunk, |r| f(r.start, unsafe { base.window(r.start, r.len()) }))
}

/// Like [`for_each_chunk_mut`] for side-effect-only chunk bodies: no
/// per-chunk result vector is built, so a parallel section costs **zero
/// heap allocations** in steady state (the pool's mailboxes and latch
/// are retained/stack-allocated). This is the fan-out primitive for
/// zero-alloc kernels and training loops; reductions go through
/// caller-owned buffers indexed by chunk, or an integer atomic when the
/// combine is commutative in exact arithmetic (pulse counts, byte
/// totals).
pub fn run_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let base = DataPtr(data.as_mut_ptr());
    // SAFETY: as in `for_each_chunk_mut`.
    deal_chunks(data.len(), chunk, |_, r| f(r.start, unsafe { base.window(r.start, r.len()) }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_are_fixed() {
        assert_eq!(map_chunks(10, 4, |r| r), vec![0..4, 4..8, 8..10]);
        assert_eq!(map_chunks(4, 4, |r| r), vec![0..4]);
        assert_eq!(map_chunks(0, 4, |r| r), Vec::<Range<usize>>::new());
        assert_eq!(map_chunks(3, 0, |r| r), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn map_chunks_results_in_chunk_order_for_any_thread_count() {
        let serial: Vec<Range<usize>> = with_threads(1, || map_chunks(23, 5, |r| r));
        for t in [2, 3, 8] {
            let par = with_threads(t, || map_chunks(23, 5, |r| r));
            assert_eq!(par, serial, "thread count {t} changed chunk order");
        }
    }

    #[test]
    fn map_chunks_reduction_is_bit_identical() {
        let xs: Vec<f32> = (0..997).map(|i| (i as f32 * 0.37).sin()).collect();
        let sum_chunks = |chunks: Vec<f32>| chunks.into_iter().fold(0.0f32, |a, b| a + b);
        let partial = |r: Range<usize>| xs[r].iter().fold(0.0f32, |a, &b| a + b);
        let serial = sum_chunks(with_threads(1, || map_chunks(xs.len(), 64, partial)));
        for t in [2, 3, 7] {
            let par = sum_chunks(with_threads(t, || map_chunks(xs.len(), 64, partial)));
            assert_eq!(par.to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_every_element_once() {
        let mut data = vec![0u32; 31];
        for t in [1, 3, 8] {
            data.iter_mut().for_each(|v| *v = 0);
            let starts = with_threads(t, || {
                for_each_chunk_mut(&mut data, 7, |start, window| {
                    for (i, v) in window.iter_mut().enumerate() {
                        *v += (start + i) as u32;
                    }
                    start
                })
            });
            assert_eq!(starts, vec![0, 7, 14, 21, 28]);
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32, "element {i} touched wrong number of times");
            }
        }
    }

    #[test]
    fn run_chunks_mut_matches_for_each_chunk_mut() {
        let mut a = vec![0u32; 31];
        let mut b = vec![0u32; 31];
        for t in [1, 2, 8] {
            a.iter_mut().for_each(|v| *v = 0);
            b.iter_mut().for_each(|v| *v = 0);
            with_threads(t, || {
                for_each_chunk_mut(&mut a, 7, |start, w| {
                    for (i, v) in w.iter_mut().enumerate() {
                        *v = (start + i) as u32 * 3;
                    }
                });
                run_chunks_mut(&mut b, 7, |start, w| {
                    for (i, v) in w.iter_mut().enumerate() {
                        *v = (start + i) as u32 * 3;
                    }
                });
            });
            assert_eq!(a, b, "thread count {t}");
        }
    }

    #[test]
    fn nested_parallel_sections_run_serial_inline() {
        // An inner map_chunks reached from inside a pool job must not
        // re-enter the pool (deadlock) — it runs serial and still
        // produces chunk-ordered results.
        let outer = with_threads(4, || {
            map_chunks(4, 1, |r| {
                let inner = map_chunks(6, 2, |ir| ir.start);
                (r.start, inner)
            })
        });
        for (c, (start, inner)) in outer.iter().enumerate() {
            assert_eq!(*start, c);
            assert_eq!(*inner, vec![0, 2, 4]);
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let inner = with_threads(3, || {
            let nested = with_threads(5, max_threads);
            assert_eq!(nested, 5);
            max_threads()
        });
        assert_eq!(inner, 3);
        // Override cleared after the scope exits (ambient value may be
        // env-dependent, so check the override cell directly).
        assert_eq!(THREAD_OVERRIDE.with(|o| o.get()), None);
    }

    #[test]
    fn env_var_sets_worker_count() {
        assert_eq!(parse_thread_count(Some("1")), Some(1));
        assert_eq!(parse_thread_count(Some("6")), Some(6));
        assert_eq!(parse_thread_count(Some(" 4 ")), Some(4));
        // Garbage, zero and an unset variable fall back to the machine
        // default.
        assert_eq!(parse_thread_count(Some("zero")), None);
        assert_eq!(parse_thread_count(Some("0")), None);
        assert_eq!(parse_thread_count(None), None);
        assert!(ambient_threads() >= 1);
        // The thread-local override outranks whatever the process
        // started with.
        assert_eq!(with_threads(ambient_threads() + 1, max_threads), ambient_threads() + 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map_chunks(16, 1, |r| {
                    if r.start == 9 {
                        panic!("boom");
                    }
                    r.start
                })
            })
        });
        assert!(caught.is_err());
    }
}
