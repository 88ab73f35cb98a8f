//! The `Backend` trait: one surface over all four paper workloads.
//!
//! A backend is a *simulated accelerator lane*: it computes real outputs
//! (so accuracy-bearing experiments can run through the serving path) and
//! it prices a closed batch with a deterministic analytic service-time
//! model (so the scheduler's virtual clock never depends on host speed).
//! Compute and time are deliberately decoupled — the simulator may take
//! milliseconds of host time to produce a batch the model says costs
//! 40 µs of device time.

use crate::request::{Output, Payload, Request};
use enw_numerics::rng::Rng64;

/// A servable workload lane.
pub trait Backend {
    /// Human-readable lane name (also used in reports).
    fn name(&self) -> &str;

    /// Modeled device time (ns) to serve a closed batch of `batch`
    /// requests. Must be deterministic, total, and at least 1 for
    /// `batch >= 1` so the event loop always moves forward.
    fn service_ns(&self, batch: usize) -> u64;

    /// Computes one output per payload into a caller-owned buffer (`out`
    /// is cleared, then filled in batch order). A lane only reads the
    /// payloads: the scheduler hands it references into the trace it
    /// borrows, and refills one warm `out` per station, so serving a
    /// batch copies no request and allocates only what the outputs
    /// themselves hold. Results must be bit-identical at any
    /// `ENW_THREADS` setting, and each output equal to serving that
    /// payload alone (the lanes in [`crate::backends`] run one
    /// single-request kernel per payload, in line).
    fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>);

    /// [`serve_payloads`](Backend::serve_payloads) over whole requests,
    /// for callers that hold a batch of them (lane probes, tests).
    fn serve_into(&mut self, batch: &[Request], out: &mut Vec<Output>) {
        self.serve_payloads(&batch.iter().map(|r| &r.payload).collect::<Vec<_>>(), out);
    }

    /// [`serve_into`](Backend::serve_into), allocating the result.
    fn serve(&mut self, batch: &[Request]) -> Vec<Output> {
        let mut out = Vec::new();
        self.serve_into(batch, &mut out);
        out
    }

    /// Draws a payload this backend understands — used by the load
    /// generator so traffic always matches its lane.
    fn make_payload(&self, rng: &mut Rng64) -> Payload;
}

/// Affine batch service-time model: `setup + per_item * batch` ns.
///
/// `setup` covers per-batch overheads (operand staging, DAC programming,
/// kernel launch), `per_item` the marginal request. Constants are
/// representative, documented at each backend's construction site, and —
/// crucially — fixed, so simulated latencies are reproducible anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Per-batch fixed cost in nanoseconds.
    pub setup_ns: u64,
    /// Per-request marginal cost in nanoseconds.
    pub per_item_ns: u64,
}

impl ServiceModel {
    /// Modeled time for a batch (at least 1 ns for non-empty batches).
    pub fn ns(&self, batch: usize) -> u64 {
        if batch == 0 {
            return 0;
        }
        self.setup_ns.saturating_add(self.per_item_ns.saturating_mul(batch as u64)).max(1)
    }

    /// Steady-state capacity in requests per second at batch size `b`
    /// (the lane serves back-to-back batches of `b`).
    pub fn capacity_qps(&self, b: usize) -> f64 {
        if b == 0 {
            return 0.0;
        }
        b as f64 / (self.ns(b) as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_model_prices_batches() {
        let m = ServiceModel { setup_ns: 100, per_item_ns: 10 };
        assert_eq!(m.ns(0), 0);
        assert_eq!(m.ns(1), 110);
        assert_eq!(m.ns(8), 180);
    }

    #[test]
    fn zero_model_still_advances_time() {
        let m = ServiceModel { setup_ns: 0, per_item_ns: 0 };
        assert_eq!(m.ns(5), 1, "non-empty batches must cost at least 1 ns");
    }

    #[test]
    fn capacity_grows_with_batch_under_fixed_setup() {
        let m = ServiceModel { setup_ns: 1_000, per_item_ns: 100 };
        assert!(m.capacity_qps(16) > m.capacity_qps(1));
        assert_eq!(m.capacity_qps(0), 0.0);
    }
}
