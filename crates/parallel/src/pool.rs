//! The persistent, lazily-started worker pool behind every parallel
//! entry point.
//!
//! Each worker is spawned **once**, on first use, and waits for jobs on
//! its own mailbox. A dispatch costs a spin, not a futex: a worker polls
//! its mailbox for `SPIN` `spin_loop` hints after each job before it
//! parks on the mailbox condvar, and the caller polls its completion
//! latch the same way before it parks the thread. Each side skips the
//! wake syscall when the other is still polling, so back-to-back jobs —
//! a kernel's fan-outs one after another — cost an enqueue and two cache
//! line hand-offs each (≈ 1.5 µs for an empty two-way job on the reference
//! host, against 13–16 µs for a park and unpark per job). The spin is a
//! constant count of hints, not a clock: ≈ 20 µs on the reference host.
//!
//! # Deterministic ownership
//!
//! A job exposes `slots` participant slots: slot 0 is the **caller**
//! (which does chunk work instead of idling on the latch) and slots
//! `1..slots` are pool workers. Chunk *c* is always owned by slot
//! `c % slots` — a static round-robin deal that depends only on the
//! chunk count and the slot count, never on scheduling order. Chunk
//! boundaries themselves derive only from the problem size and the
//! caller's chunk length, each chunk is computed exactly as the serial
//! loop would compute it, and per-chunk results land in index-order
//! slots that the caller folds left to right. Scheduling nondeterminism
//! therefore affects *when* a chunk runs, never *what* it computes or
//! where its result goes, so outputs are bit-identical at any
//! `ENW_THREADS`.
//!
//! # Nesting
//!
//! A parallel section reached from inside a pool worker runs serially
//! inline ([`is_pool_worker`]): the outer job already owns all workers,
//! and blocking a worker on a sub-job it must itself execute would
//! deadlock. Serial execution inside a chunk computes the same bits, so
//! the determinism contract is unaffected.
//!
//! # Panics
//!
//! A panicking chunk does not poison the pool: workers catch the unwind,
//! record the first payload in the job latch, and go back to waiting.
//! The caller re-raises the payload after every participant has left the
//! job's stack frame — which is also what makes the lifetime erasure
//! below sound. A worker's last touch of that frame is the decrement
//! that releases the caller; it wakes a parked caller through its own
//! clone of the caller's thread handle, taken before that decrement.
//!
//! # Tracing
//!
//! `enw-trace` merges thread-local recorders into the process sink when
//! a thread exits. Pool workers never exit, so each worker flushes
//! explicitly ([`enw_trace::flush_local`]) after every job; the merge is
//! commutative, so per-job flushing records the same totals as the old
//! merge-on-join.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::{self, Thread};

/// Polls a side makes before it parks: a worker on its mailbox, the
/// caller on its latch. A constant count of `spin_loop` hints — ≈ 20 µs
/// on the reference host, where a `pause` is ≈ 19 ns — so no clock is
/// read; long enough to span the gap between back-to-back fan-outs, short
/// enough that an idle worker soon stops taking a core from the caller.
const SPIN: u32 = 1 << 10;

/// Polls `ready` up to [`SPIN`] times; true as soon as it holds.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPIN {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    ready()
}

/// A type-erased parallel job: participants call `run(slot)` with their
/// slot index. The references are lifetime-erased to `'static`; this is
/// sound because [`run_job`] does not return (normally or by unwinding)
/// until every participant has finished with them.
#[derive(Clone, Copy)]
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    latch: &'static Latch,
    /// Participant slot the receiving worker should run.
    slot: usize,
}

// SAFETY: both references point at Sync data; the raw erasure only
// removed the lifetime, not the Sync bound.
unsafe impl Send for Job {}

/// `Latch::state`'s low bit: the caller has stopped polling and parks.
const PARKED: usize = 1;
/// One running worker slot in `Latch::state`, above the parked bit.
const WORKER: usize = 2;

/// Stack-allocated completion latch: counts worker slots still running
/// and carries the first panic payload out of the job.
struct Latch {
    /// Running worker slots times [`WORKER`], plus [`PARKED`] once the
    /// caller has given up polling.
    state: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The caller's thread handle, which a worker clones before the
    /// decrement that may free this latch so it can still wake the caller.
    caller: Thread,
}

impl Latch {
    fn new(workers: usize) -> Latch {
        Latch {
            state: AtomicUsize::new(workers * WORKER),
            panic: Mutex::new(None),
            caller: thread::current(),
        }
    }

    /// Marks one worker finished, recording its panic payload (the first
    /// one wins) if it unwound.
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(payload) = panic {
            self.panic.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(payload);
        }
        // A reference-count increment, not an allocation.
        let caller = self.caller.clone();
        // The decrement is this worker's last touch of the latch: once the
        // count reaches zero the caller may return and free it. Release
        // orders the job's writes (and the payload above) before it.
        if self.state.fetch_sub(WORKER, Ordering::AcqRel) == WORKER | PARKED {
            caller.unpark();
        }
    }

    /// Blocks until every worker slot has completed — polling first,
    /// then parked — and returns the first recorded panic payload.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let running = || self.state.load(Ordering::Acquire) >= WORKER;
        if !spin_until(|| !running()) {
            // From here the last worker out sees the bit and unparks us;
            // one that finished before it sees nothing to wake, and the
            // loop below then never parks.
            self.state.fetch_or(PARKED, Ordering::AcqRel);
            while running() {
                thread::park();
            }
        }
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// One worker's mailbox: a FIFO of jobs, the count the worker polls, and
/// the condvar it parks on once polling gives up. A FIFO (rather than a
/// single slot) lets two user threads overlap parallel sections — each
/// worker simply drains jobs in arrival order.
struct Mailbox {
    /// Jobs queued and not yet taken, kept beside the queue so the worker
    /// polls an atomic rather than the lock. A hint only, so `Relaxed`:
    /// the jobs themselves pass through the lock.
    pending: AtomicUsize,
    queue: Mutex<Queue>,
    wake: Condvar,
}

struct Queue {
    jobs: Vec<Job>,
    /// The worker is waiting on the condvar, so a push must notify it.
    parked: bool,
}

/// The process-wide pool. Workers are spawned lazily by
/// [`Pool::ensure_workers`] and live for the rest of the process,
/// polling or parked on their mailbox while idle.
struct Pool {
    /// Mailboxes of spawned workers; grows monotonically, never shrinks.
    /// Boxed and leaked so worker threads can hold `'static` references.
    mailboxes: Mutex<Vec<&'static Mailbox>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool { mailboxes: Mutex::new(Vec::new()) })
}

thread_local! {
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True on a pool worker thread. Parallel entry points use this to run
/// nested parallel sections serially inline (see module docs).
pub fn is_pool_worker() -> bool {
    IS_POOL_WORKER.with(|f| f.get())
}

impl Pool {
    /// Grows the pool toward `n` spawned workers and returns how many it
    /// actually has. If the OS refuses a thread, the pool stops growing
    /// and callers cover the missing slots inline — degraded throughput,
    /// identical results.
    fn ensure_workers(&'static self, n: usize) -> usize {
        let mut boxes = self.mailboxes.lock().unwrap_or_else(|e| e.into_inner());
        while boxes.len() < n {
            let mb: &'static Mailbox = Box::leak(Box::new(Mailbox {
                pending: AtomicUsize::new(0),
                queue: Mutex::new(Queue { jobs: Vec::new(), parked: false }),
                wake: Condvar::new(),
            }));
            let id = boxes.len();
            #[expect(clippy::disallowed_methods, reason = "the pool starts every worker thread")]
            let spawned = thread::Builder::new()
                .name(format!("enw-worker-{id}"))
                .spawn(move || worker_loop(mb));
            match spawned {
                Ok(_) => boxes.push(mb),
                Err(_) => break,
            }
        }
        boxes.len()
    }

    /// Enqueues `job` (with per-worker slot indices `1..=workers`) on
    /// the first `workers` mailboxes, waking only the workers that have
    /// parked; a polling one finds the job on its next poll.
    fn dispatch(&'static self, workers: usize, job: Job) {
        let boxes = self.mailboxes.lock().unwrap_or_else(|e| e.into_inner());
        for (w, mb) in boxes.iter().take(workers).enumerate() {
            let mut q = mb.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.jobs.push(Job { slot: w + 1, ..job });
            mb.pending.fetch_add(1, Ordering::Relaxed);
            let parked = q.parked;
            drop(q);
            if parked {
                mb.wake.notify_one();
            }
        }
    }
}

fn worker_loop(mb: &'static Mailbox) {
    IS_POOL_WORKER.with(|f| f.set(true));
    loop {
        spin_until(|| mb.pending.load(Ordering::Relaxed) > 0);
        let job = {
            let mut q = mb.queue.lock().unwrap_or_else(|e| e.into_inner());
            while q.jobs.is_empty() {
                q.parked = true;
                q = mb.wake.wait(q).unwrap_or_else(|e| e.into_inner()); // park
            }
            q.parked = false;
            mb.pending.fetch_sub(1, Ordering::Relaxed);
            q.jobs.remove(0) // FIFO: preserve job arrival order
        };
        let result = catch_unwind(AssertUnwindSafe(|| (job.run)(job.slot)));
        // Merge this worker's trace recordings before the caller can
        // observe job completion (pool workers never exit, so the
        // merge-on-thread-drop path never runs for them).
        enw_trace::flush_local();
        job.latch.complete(result.err());
    }
}

/// Runs `run(slot)` for every slot in `0..slots` across the pool: slot 0
/// on the calling thread, slots `1..slots` on pool workers (spawned on
/// first use). Blocks until every slot has finished; re-raises the first
/// panic any slot produced.
///
/// `run` must treat the slot index as its identity in a static chunk
/// deal (`chunk c` belongs to `slot c % slots`) so that no two slots
/// touch the same chunk.
///
/// # Panics
///
/// Propagates panics from any slot (after all slots have finished, so
/// borrowed state stays alive for the full job).
pub(crate) fn run_job(slots: usize, run: &(dyn Fn(usize) + Sync)) {
    debug_assert!(slots >= 2, "serial case is the caller's fast path");
    let extra = slots - 1;
    let p = pool();
    // Workers the pool could actually provide; any shortfall (the OS
    // refused a thread) is covered by the caller inline below — slot
    // ownership is positional, so results don't change.
    let extra = p.ensure_workers(extra).min(extra);
    if extra == 0 {
        for s in 0..slots {
            run(s);
        }
        return;
    }
    let latch = Latch::new(extra);
    // SAFETY: lifetime erasure to 'static. Every dispatched copy of
    // these references is consumed by a worker that signals `latch`
    // afterwards, and we do not leave this frame — even on panic —
    // until `latch.wait()` has seen all `extra` completions.
    let job: Job = unsafe {
        Job {
            run: std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                run,
            ),
            latch: std::mem::transmute::<&Latch, &'static Latch>(&latch),
            slot: 0,
        }
    };
    p.dispatch(extra, job);
    // The caller is slot 0: it does chunk work instead of idling (plus
    // any trailing slots no worker exists for). Its own panic is
    // deferred until the workers are done with `run`.
    let caller = catch_unwind(AssertUnwindSafe(|| {
        run(0);
        for s in extra + 1..slots {
            run(s);
        }
    }));
    let worker_panic = latch.wait();
    if let Err(payload) = caller {
        std::panic::resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_job_runs_every_slot_exactly_once() {
        for slots in [2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..slots).map(|_| AtomicUsize::new(0)).collect();
            let hits_ref = &hits;
            run_job(slots, &move |s| {
                hits_ref[s].fetch_add(1, Ordering::SeqCst);
            });
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "slot {s} of {slots}");
            }
        }
    }

    #[test]
    fn pool_threads_persist_across_jobs() {
        use std::sync::Mutex as StdMutex;
        let seen: StdMutex<Vec<String>> = StdMutex::new(Vec::new());
        let seen_ref = &seen;
        for _ in 0..4 {
            run_job(3, &move |s| {
                if s > 0 {
                    seen_ref.lock().unwrap().push(format!("{:?}", thread::current().id()));
                }
            });
        }
        // 4 jobs x 2 worker slots land on the same 2 persistent threads
        // (not 8 fresh ones).
        let mut ids = seen.into_inner().unwrap();
        assert_eq!(ids.len(), 8);
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn worker_panic_reaches_caller_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_job(4, &|s| {
                if s == 2 {
                    panic!("slot 2 boom");
                }
            });
        }));
        let payload = caught.expect_err("panic payload");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "slot 2 boom", "original payload must propagate");
        // The pool must keep working after a panicking job.
        let ok = AtomicUsize::new(0);
        let ok_ref = &ok;
        run_job(4, &move |_| {
            ok_ref.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    /// The caller gives up polling and parks before the worker finishes:
    /// the worker's completion must see the parked bit and wake it.
    #[test]
    fn caller_parked_past_its_spin_is_woken() {
        let latch = Latch::new(1);
        let returned = std::sync::atomic::AtomicBool::new(false);
        #[expect(clippy::disallowed_methods, reason = "the test stands in for a pool worker")]
        thread::scope(|sc| {
            sc.spawn(|| {
                while latch.state.load(Ordering::Acquire) & PARKED == 0 {
                    thread::yield_now();
                }
                latch.complete(None);
                // A scoped thread's exit unparks the scope's owner, which
                // would hide a lost wake-up: outlive the wait.
                while !returned.load(Ordering::Acquire) {
                    thread::yield_now();
                }
            });
            assert!(latch.wait().is_none());
            returned.store(true, Ordering::Release);
        });
    }

    /// Each dispatch lands on a worker that has stopped polling and
    /// parked; a lost wake-up would hang the loop.
    #[test]
    fn dispatch_after_the_worker_parks_wakes_it_every_time() {
        pool().ensure_workers(1);
        let mb = pool().mailboxes.lock().unwrap()[0];
        let hits = AtomicUsize::new(0);
        let hits_ref = &hits;
        for i in 0..1000 {
            while !mb.queue.lock().unwrap().parked {
                thread::yield_now();
            }
            run_job(2, &move |s| {
                if s == 1 {
                    hits_ref.fetch_add(1, Ordering::SeqCst);
                }
            });
            assert_eq!(hits.load(Ordering::SeqCst), i + 1);
        }
    }

    /// Two user threads fan out at once, back to back: every worker
    /// drains both callers' jobs, and every slot of every job runs once.
    #[test]
    fn two_callers_dispatching_at_once_each_see_every_slot() {
        const JOBS: usize = 10_000;
        let caller = || {
            let hits = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let hits_ref = &hits;
            for _ in 0..JOBS {
                run_job(2, &move |s| {
                    hits_ref[s].fetch_add(1, Ordering::Relaxed);
                });
            }
            hits.map(|h| h.into_inner())
        };
        #[expect(clippy::disallowed_methods, reason = "the test needs two user threads")]
        let (a, b) = thread::scope(|sc| {
            let a = sc.spawn(caller);
            let b = sc.spawn(caller);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, [JOBS; 2]);
        assert_eq!(b, [JOBS; 2]);
    }
}
