//! Dependency-free parallel runtime with deterministic chunked reduction.
//!
//! The loops in the workspace that carry enough work to split — crossbar
//! pulse updates by row block, DLRM query blocks, design-space points,
//! TCAM bank chunks — are data-parallel over an index range. This module
//! runs such loops on a **persistent, lazily started worker pool**
//! ([`pool`]): workers are spawned once on first use and poll for the
//! next job a while before they park, so back-to-back parallel sections
//! cost an enqueue and a cache-line hand-off — no thread spawn/join and
//! no wake syscall on the hot path. The runtime keeps a guarantee the
//! numeric code depends on:
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
//!
//! **No thread-local buffers.** A kernel's temporaries live in its
//! holder or in the per-participant windows [`run_chunks_mut_with`]
//! hands out.
#![expect(
    clippy::disallowed_macros,
    reason = "the thread-count override and the pool-worker flag are per-thread by definition"
)]

pub mod pool;

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

/// Applies `f` to each fixed-boundary chunk of `0..n`, in parallel on
/// the persistent pool, and returns the per-chunk results **in chunk
/// order**.
///
/// Chunk boundaries depend only on `n` and `chunk`, so the result vector
/// is identical for any worker count; fold it left-to-right for a
/// bit-deterministic reduction.
#[expect(clippy::expect_used, reason = "the dealer computes every chunk exactly once")]
pub fn map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let mut results: Vec<Option<R>> = (0..n.div_ceil(chunk)).map(|_| None).collect();
    run_chunks_mut(&mut results, 1, |c, slot| slot[0] = Some(f(c * chunk..n.min((c + 1) * chunk))));
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
    run_chunks_mut_with(data, chunk, &mut Vec::<()>::new(), 0, |start, w, _| f(start, w));
}

/// The one dealer every runner above is a shell over: [`run_chunks_mut`]
/// with a workspace. `data` is split at fixed `chunk` boundaries and
/// each chunk runs exactly once. With a single participant (one thread,
/// one chunk, or a call from inside a pool worker) the chunks run inline
/// in ascending order; otherwise chunk `c` goes to participant
/// `c % slots` — a static deal, no stealing — over the persistent pool,
/// which blocks until every participant is done.
///
/// Each participant also gets its own `per_slot`-long window of the
/// caller-owned `workspace`, which is grown (never shrunk) to one window
/// per participant. A participant runs its chunks one after another, so
/// a chunk may use the window as scratch, but must not read what an
/// earlier chunk left there: which chunks share a window depends on the
/// thread count. With a warm workspace the section allocates nothing.
pub fn run_chunks_mut_with<T, W, F>(
    data: &mut [T],
    chunk: usize,
    workspace: &mut Vec<W>,
    per_slot: usize,
    f: F,
) where
    T: Send,
    W: Send + Default,
    F: Fn(usize, &mut [T], &mut [W]) + Sync,
{
    let (n, chunk) = (data.len(), chunk.max(1));
    let nchunks = n.div_ceil(chunk);
    let slots = job_slots(nchunks);
    // An overflowing length saturates to `usize::MAX` elements, which
    // the resize refuses with a panic.
    let len = slots.saturating_mul(per_slot);
    if workspace.len() < len {
        workspace.resize_with(len, W::default);
    }
    let (base, windows) = (DataPtr(data.as_mut_ptr()), DataPtr(workspace.as_mut_ptr()));
    let run = |slot: usize, c: usize| {
        let start = c * chunk;
        // SAFETY: fixed chunk boundaries make the `data` windows disjoint
        // and in bounds, and each chunk runs exactly once; participant
        // `slot` runs its chunks one at a time and alone owns
        // `workspace[slot * per_slot..][..per_slot]`, in bounds for every
        // `slot < slots` after the resize above; both slices outlive the
        // job.
        let (window, ws) = unsafe {
            (base.window(start, chunk.min(n - start)), windows.window(slot * per_slot, per_slot))
        };
        f(start, window, ws);
    };
    if slots <= 1 {
        (0..nchunks).for_each(|c| run(0, c));
    } else {
        pool::run_job(slots, &|slot| (slot..nchunks).step_by(slots).for_each(|c| run(slot, c)));
    }
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
    fn run_chunks_mut_with_hands_each_participant_its_own_window() {
        // Five 7-long chunks, chunk `c` on participant `c % slots`: each
        // records the window it got and leaves its start in it.
        let mut workspace: Vec<u32> = Vec::new();
        for (t, slots, grown) in [(1, 1, 1), (2, 2, 2), (3, 3, 3), (8, 5, 5), (2, 2, 5)] {
            let mut data = vec![0usize; 31];
            with_threads(t, || {
                run_chunks_mut_with(&mut data, 7, &mut workspace, 4, |start, w, window| {
                    window.fill(start as u32);
                    w.fill(window.as_ptr() as usize);
                });
            });
            assert_eq!(workspace.len(), 4 * grown, "grown to the widest deal, never shrunk");
            for c in 0..5 {
                let at = data[7 * c] - workspace.as_ptr() as usize;
                let window = at / std::mem::size_of::<[u32; 4]>();
                assert_eq!(window, c % slots, "chunk {c} at {t} thread(s)");
                let last = (c..5).step_by(slots).next_back().unwrap_or(c);
                assert_eq!(workspace[4 * window..][..4], [7 * last as u32; 4]);
            }
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
