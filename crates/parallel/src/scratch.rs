//! Thread-local, size-classed scratch buffer pools for zero-allocation
//! hot paths.
//!
//! The paper's recsys (Sec. V) and X-MANN (Sec. III) workloads are
//! memory-bound: per-call `Vec` churn in an inference loop costs more
//! than the arithmetic it feeds. Kernels therefore borrow their
//! temporaries from a per-thread pool instead of allocating:
//!
//! ```
//! use enw_parallel::scratch;
//! let mut y = scratch::take_f32(128); // zeroed, len == 128
//! y[0] = 1.0;
//! drop(y); // buffer returns to this thread's pool for reuse
//! ```
//!
//! **Size classes.** A request for `len` elements is served from the
//! class `ceil(log2(len))`; freed buffers are binned by
//! `floor(log2(capacity))`, so any pooled buffer in a class can satisfy
//! any request mapped to it without growing. Each thread retains at most
//! a few buffers per class — steady-state kernels hit the pool every
//! time, while one-off giants are dropped rather than hoarded.
//!
//! **Determinism.** Checked-out buffers are always zero-filled to the
//! requested length before the caller sees them, so no stale contents
//! from a previous checkout (possibly a different kernel) can leak into
//! results. Pools are `thread_local!`, never shared, so the values a
//! kernel computes are independent of which worker ran it — results
//! stay bit-identical at any `ENW_THREADS`.
//!
//! **RAII.** [`ScratchF32`], [`ScratchUsize`] and [`ScratchBits`] are
//! checkout guards: they deref to a slice and return the buffer to the
//! pool on drop (including on panic unwind). During thread teardown the
//! pool may already be destroyed; the guard then simply frees the
//! buffer.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Buffers with more than `2^MAX_CLASS` elements are never pooled.
const MAX_CLASS: usize = 28;

/// Retained buffers per size class per thread. Hot kernels need one or
/// two temporaries of a given shape at a time; anything beyond this is
/// returned to the allocator.
const MAX_PER_CLASS: usize = 4;

/// Class that serves a request for `len` elements: `ceil(log2(len))`.
fn request_class(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Class a freed buffer of `capacity` elements is binned into:
/// `floor(log2(capacity))`, so every resident of class `c` has capacity
/// at least `2^c` and can serve any request mapped to `c`.
fn capacity_class(capacity: usize) -> usize {
    (usize::BITS - 1 - capacity.max(1).leading_zeros()) as usize
}

/// Per-thread pool counters, for tests and the allocation audit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total checkouts served on this thread.
    pub checkouts: u64,
    /// Checkouts served by reusing a pooled buffer (no allocation).
    pub pool_hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub fresh_allocs: u64,
}

struct Pool<T> {
    classes: Vec<Vec<Vec<T>>>,
    stats: PoolStats,
}

impl<T> Pool<T> {
    fn new() -> Self {
        Pool { classes: Vec::new(), stats: PoolStats::default() }
    }

    fn checkout(&mut self, len: usize) -> Vec<T> {
        self.stats.checkouts += 1;
        let class = request_class(len);
        if class <= MAX_CLASS {
            if let Some(stack) = self.classes.get_mut(class) {
                if let Some(buf) = stack.pop() {
                    self.stats.pool_hits += 1;
                    return buf;
                }
            }
        }
        self.stats.fresh_allocs += 1;
        // Allocate the full class width so the buffer re-bins into the
        // same class it was checked out from.
        Vec::with_capacity(len.max(1).next_power_of_two())
    }

    fn put_back(&mut self, mut buf: Vec<T>) {
        let class = capacity_class(buf.capacity());
        if buf.capacity() == 0 || class > MAX_CLASS {
            return; // not worth pooling / too large to hoard
        }
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let stack = &mut self.classes[class];
        if stack.len() < MAX_PER_CLASS {
            buf.clear();
            stack.push(buf);
        }
    }

    fn clear(&mut self) {
        self.classes.clear();
        self.stats = PoolStats::default();
    }
}

macro_rules! scratch_pool {
    ($pool:ident, $take:ident, $guard:ident, $elem:ty, $zero:expr, $doc:expr) => {
        thread_local! {
            static $pool: RefCell<Pool<$elem>> = RefCell::new(Pool::new());
        }

        #[doc = $doc]
        ///
        /// RAII checkout guard: derefs to a slice of the requested
        /// length and returns the buffer to this thread's pool on drop.
        pub struct $guard {
            buf: Vec<$elem>,
        }

        #[doc = concat!("Checks out a zero-filled buffer of `len` elements (see [`", stringify!($guard), "`]).")]
        pub fn $take(len: usize) -> $guard {
            let mut buf = $pool.with(|p| p.borrow_mut().checkout(len));
            buf.clear();
            buf.resize(len, $zero);
            $guard { buf }
        }

        impl $guard {
            /// The checked-out buffer as a shared slice.
            pub fn as_slice(&self) -> &[$elem] {
                &self.buf
            }

            /// The checked-out buffer as a mutable slice.
            pub fn as_mut_slice(&mut self) -> &mut [$elem] {
                &mut self.buf
            }
        }

        impl Deref for $guard {
            type Target = [$elem];
            fn deref(&self) -> &[$elem] {
                &self.buf
            }
        }

        impl DerefMut for $guard {
            fn deref_mut(&mut self) -> &mut [$elem] {
                &mut self.buf
            }
        }

        impl Drop for $guard {
            fn drop(&mut self) {
                let buf = std::mem::take(&mut self.buf);
                // `try_with`: during thread teardown the pool TLS slot
                // may already be gone — then just free the buffer.
                let _ = $pool.try_with(|p| p.borrow_mut().put_back(buf));
            }
        }
    };
}

scratch_pool!(
    POOL_F32,
    take_f32,
    ScratchF32,
    f32,
    0.0f32,
    "Pooled `f32` scratch buffer (activations, pooled embeddings, matvec outputs)."
);
scratch_pool!(
    POOL_USIZE,
    take_usize,
    ScratchUsize,
    usize,
    0usize,
    "Pooled `usize` scratch buffer (index lists, permutation workspaces)."
);
scratch_pool!(
    POOL_BITS,
    take_bits,
    ScratchBits,
    u64,
    0u64,
    "Pooled `u64`-word scratch buffer (bit-vector workspaces for CAM/TCAM kernels)."
);

/// Combined checkout counters for this thread's three pools.
///
/// **Calling-thread-only.** Scratch pools are `thread_local!`, and this
/// function reads only the *calling* thread's counters. Kernels that ran
/// on the persistent worker pool checked their scratch out on *worker*
/// threads, which this function cannot see — after a parallel section it
/// can legitimately report zero checkouts.
pub fn thread_stats() -> PoolStats {
    let mut total = PoolStats::default();
    for s in [
        POOL_F32.with(|p| p.borrow().stats),
        POOL_USIZE.with(|p| p.borrow().stats),
        POOL_BITS.with(|p| p.borrow().stats),
    ] {
        total.checkouts += s.checkouts;
        total.pool_hits += s.pool_hits;
        total.fresh_allocs += s.fresh_allocs;
    }
    total
}

/// Drops every buffer retained by this thread's pools and zeroes the
/// counters. Used by tests and the allocation audit to measure cold
/// (first-touch) versus warm behaviour.
///
/// **Calling-thread-only**, like [`thread_stats`]: buffers retained by
/// persistent pool workers stay warm.
pub fn reset_thread_pools() {
    POOL_F32.with(|p| p.borrow_mut().clear());
    POOL_USIZE.with(|p| p.borrow_mut().clear());
    POOL_BITS.with(|p| p.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_zeroed_and_sized() {
        reset_thread_pools();
        let mut a = take_f32(37);
        assert_eq!(a.len(), 37);
        assert!(a.iter().all(|&v| v == 0.0));
        for v in a.iter_mut() {
            *v = 7.5;
        }
        drop(a);
        // Reused buffer must come back zeroed despite the writes above.
        let b = take_f32(37);
        assert_eq!(b.len(), 37);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn same_class_checkout_reuses_the_buffer() {
        reset_thread_pools();
        let a = take_f32(100); // class ceil(log2 100) = 7
        drop(a);
        let before = thread_stats();
        let b = take_f32(100);
        drop(b);
        let c = take_f32(128); // 128 maps to the same class 7
        drop(c);
        let after = thread_stats();
        assert_eq!(after.pool_hits - before.pool_hits, 2, "warm checkouts must hit the pool");
        assert_eq!(after.fresh_allocs, before.fresh_allocs, "warm checkouts must not allocate");
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        reset_thread_pools();
        let small = take_usize(8);
        let big = take_usize(1 << 12);
        assert_eq!(small.len(), 8);
        assert_eq!(big.len(), 1 << 12);
        drop(small);
        drop(big);
        // A mid-size request lands in its own class; the class-7 request
        // below must not be served by the class-3 buffer.
        let mid = take_usize(100);
        assert_eq!(mid.len(), 100);
    }

    #[test]
    fn pool_retention_is_bounded() {
        reset_thread_pools();
        // Check out more guards of one class than the pool retains.
        let guards: Vec<ScratchBits> = (0..MAX_PER_CLASS + 3).map(|_| take_bits(64)).collect();
        drop(guards);
        let stats = thread_stats();
        assert_eq!(stats.fresh_allocs as usize, MAX_PER_CLASS + 3);
        // Only MAX_PER_CLASS buffers were retained; the rest were freed.
        let again: Vec<ScratchBits> = (0..MAX_PER_CLASS + 3).map(|_| take_bits(64)).collect();
        let warm = thread_stats();
        assert_eq!(warm.pool_hits as usize, MAX_PER_CLASS);
        drop(again);
    }

    #[test]
    fn zero_len_checkout_is_fine() {
        let g = take_f32(0);
        assert!(g.is_empty());
    }

    #[test]
    fn reset_clears_retained_buffers_and_stats() {
        let g = take_f32(64);
        drop(g);
        reset_thread_pools();
        assert_eq!(thread_stats(), PoolStats::default());
        let _g = take_f32(64);
        assert_eq!(thread_stats().fresh_allocs, 1, "pool must be cold after reset");
    }

    #[test]
    fn classes_round_as_documented() {
        assert_eq!(request_class(1), 0);
        assert_eq!(request_class(2), 1);
        assert_eq!(request_class(3), 2);
        assert_eq!(request_class(100), 7);
        assert_eq!(request_class(128), 7);
        assert_eq!(capacity_class(128), 7);
        assert_eq!(capacity_class(255), 7);
        assert_eq!(capacity_class(256), 8);
    }

    #[test]
    fn pools_are_thread_local() {
        reset_thread_pools();
        let g = take_f32(512);
        drop(g);
        let other = std::thread::spawn(|| {
            let before = thread_stats();
            let g = take_f32(512);
            drop(g);
            (before, thread_stats())
        });
        let (before, after) = other.join().unwrap();
        assert_eq!(before, PoolStats::default(), "fresh thread starts with an empty pool");
        assert_eq!(after.fresh_allocs, 1, "other thread cannot see this thread's buffers");
    }
}
