//! Virtual time: the only clock the serving runtime knows about.
//!
//! Nothing in `enw-serve` reads wall-clock time (the workspace
//! `clippy.toml` denies `Instant`/`SystemTime` here). Instead the scheduler
//! owns a [`VirtualClock`] — a monotone nanosecond counter advanced by
//! the event loop — and every latency, deadline and service time is a
//! `u64` nanosecond count derived from analytic hardware models. Two runs
//! with the same trace therefore see *exactly* the same timestamps, which
//! is what makes response streams and tail percentiles bit-reproducible.
//! Real monotonic timing exists only in the `enw-bench` experiment
//! binaries, which time the simulator itself, never the simulation.

/// Monotone simulated time in nanoseconds, starting at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ns: u64,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        VirtualClock { now_ns: 0 }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Jumps to an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `t_ns` is in the past — the event loop must only move
    /// forward; a backwards jump means event ordering is broken.
    pub fn advance_to(&mut self, t_ns: u64) {
        assert!(t_ns >= self.now_ns, "virtual clock moved backwards: {} -> {t_ns}", self.now_ns);
        self.now_ns = t_ns;
    }
}

/// Converts non-negative seconds to nanoseconds, rounding up so that a
/// positive duration never becomes zero (the scheduler relies on service
/// times being at least 1 ns to keep the event loop monotone).
pub fn ns_from_secs(seconds: f64) -> u64 {
    if seconds <= 0.0 || !seconds.is_finite() {
        return if seconds.is_finite() { 0 } else { u64::MAX };
    }
    let ns = (seconds * 1e9).ceil();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        (ns as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance_to(10);
        c.advance_to(15);
        assert_eq!(c.now_ns(), 15);
        c.advance_to(15); // same instant is fine
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    #[should_panic(expected = "virtual clock moved backwards")]
    fn clock_rejects_backwards_jump() {
        let mut c = VirtualClock::new();
        c.advance_to(10);
        c.advance_to(9);
    }

    #[test]
    fn ns_from_secs_rounds_up_and_saturates() {
        assert_eq!(ns_from_secs(0.0), 0);
        assert_eq!(ns_from_secs(-1.0), 0);
        assert_eq!(ns_from_secs(1e-12), 1, "positive durations never truncate to zero");
        assert_eq!(ns_from_secs(1.5e-9), 2);
        assert_eq!(ns_from_secs(2.0), 2_000_000_000);
        assert_eq!(ns_from_secs(f64::INFINITY), u64::MAX);
        assert_eq!(ns_from_secs(1e30), u64::MAX);
    }
}
