//! Batch-close and degradation policies.
//!
//! Micro-batching trades throughput against latency (paper Sec. V-B): a
//! batch closes when it is *full* (`max_batch`) or when its oldest
//! request has waited `max_wait_ns` — the classic size-or-timeout rule.
//! For the recommendation lane the size limit is not hand-tuned: it comes
//! from `enw_recsys::serving::try_max_batch_under_sla`, the paper's
//! binary-search for the largest batch whose modeled latency still fits
//! the SLA.

use crate::backend::Backend;
use crate::clock::ns_from_secs;
use crate::error::ServeError;
use enw_numerics::error::{check, ConfigError};
use enw_recsys::characterize::RooflineMachine;
use enw_recsys::model::RecModelConfig;
use enw_recsys::serving::try_max_batch_under_sla;

/// When a station closes the batch it is accumulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Close as soon as this many requests wait (and the lane is idle).
    pub max_batch: usize,
    /// Close when the oldest waiting request has waited this long.
    pub max_wait_ns: u64,
    /// Admission-queue capacity (≥ `max_batch`).
    pub queue_cap: usize,
}

impl BatchPolicy {
    /// Checks the policy: batches of at least one request and a queue
    /// that holds a full batch. [`Server::try_new`](crate::Server::try_new)
    /// and `enw-fleet`'s `Fleet::try_new` reject what this rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(self.max_batch >= 1, "max_batch must be at least 1")?;
        check(self.queue_cap >= self.max_batch, "queue_cap must hold at least one full batch")
    }

    /// SLA-derived policy for a recommendation lane: `max_batch` is the
    /// largest batch whose modeled latency fits `sla_seconds` on
    /// `machine` (capped at `batch_cap`), per the paper's binary search;
    /// the batch timeout is the SLA headroom left after serving at that
    /// size, so a timeout-closed batch still finishes inside the SLA.
    /// Fails with [`ServeError::InfeasibleSla`] when even batch 1 misses
    /// the SLA — such a lane cannot be served compliantly at all.
    pub fn try_for_recsys_sla(
        cfg: &RecModelConfig,
        machine: &RooflineMachine,
        sla_seconds: f64,
        batch_cap: usize,
        queue_cap: usize,
    ) -> Result<Self, ServeError> {
        let b = try_max_batch_under_sla(cfg, machine, sla_seconds, batch_cap as u64)
            .map_err(|_| ServeError::InfeasibleSla { sla_ns: ns_from_secs(sla_seconds) })?;
        let max_batch = (b as usize).max(1);
        let service = enw_recsys::serving::batch_latency(cfg, max_batch as u64, machine);
        let headroom = (sla_seconds - service).max(0.0);
        let policy = BatchPolicy {
            max_batch,
            max_wait_ns: ns_from_secs(headroom),
            queue_cap: queue_cap.max(max_batch),
        };
        policy.validate()?;
        Ok(policy)
    }
}

/// The degradation ladder (DESIGN.md "Serving runtime"): after
/// `miss_streak` consecutive batches containing a deadline miss, a
/// station steps down from its primary (analog-noisy) backend to its
/// digital fallback; after `recover_streak` consecutive clean batches on
/// the fallback it steps back up. `recover_streak == 0` makes the step
/// down sticky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Consecutive missed batches before stepping down.
    pub miss_streak: u32,
    /// Consecutive clean batches before stepping back up (0 = never).
    pub recover_streak: u32,
}

impl DegradePolicy {
    /// Checks the ladder: a step down needs at least one missed batch
    /// (degrading on the first miss is `miss_streak = 1`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(self.miss_streak >= 1, "miss streak must be at least 1")
    }
}

/// A station's primary backend plus its optional degradation rung.
pub struct StationSpec {
    /// The lane that serves traffic in the healthy state.
    pub primary: Box<dyn Backend>,
    /// Batch-close policy.
    pub policy: BatchPolicy,
    /// Fallback lane + switching rule (the degradation ladder).
    pub degrade: Option<(Box<dyn Backend>, DegradePolicy)>,
}

impl StationSpec {
    /// A station with no fallback.
    pub fn simple(primary: Box<dyn Backend>, policy: BatchPolicy) -> Self {
        StationSpec { primary, policy, degrade: None }
    }

    /// A station that steps down to `fallback` per `ladder`.
    pub fn with_fallback(
        primary: Box<dyn Backend>,
        policy: BatchPolicy,
        fallback: Box<dyn Backend>,
        ladder: DegradePolicy,
    ) -> Self {
        StationSpec { primary, policy, degrade: Some((fallback, ladder)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enw_recsys::serving::batch_latency;

    fn cfg() -> RecModelConfig {
        RecModelConfig::compute_bound()
    }

    #[test]
    fn sla_policy_uses_the_paper_binary_search() {
        let c = cfg();
        let m = RooflineMachine::server_cpu();
        let sla = 2.0 * batch_latency(&c, 64, &m);
        let p = BatchPolicy::try_for_recsys_sla(&c, &m, sla, 4096, 8192).expect("sla reachable");
        let direct = try_max_batch_under_sla(&c, &m, sla, 4096).expect("sla reachable");
        assert_eq!(p.max_batch as u64, direct);
        // Timeout-closed batches still fit the SLA: wait + service <= sla.
        let service = ns_from_secs(batch_latency(&c, p.max_batch as u64, &m));
        assert!(p.max_wait_ns + service <= ns_from_secs(sla) + 2, "headroom accounting broken");
    }

    #[test]
    fn unreachable_sla_yields_a_typed_error() {
        let c = cfg();
        let m = RooflineMachine::server_cpu();
        let err = BatchPolicy::try_for_recsys_sla(&c, &m, 1e-15, 1024, 2048);
        assert!(matches!(err, Err(ServeError::InfeasibleSla { .. })), "{err:?}");
    }

    #[test]
    fn queue_cap_is_raised_to_hold_a_batch() {
        let c = cfg();
        let m = RooflineMachine::server_cpu();
        let sla = 4.0 * batch_latency(&c, 256, &m);
        let p = BatchPolicy::try_for_recsys_sla(&c, &m, sla, 4096, 1).expect("sla reachable");
        assert!(p.queue_cap >= p.max_batch);
    }

    #[test]
    fn policy_validates_queue_cap() {
        let err = BatchPolicy { max_batch: 16, max_wait_ns: 0, queue_cap: 8 }.validate();
        assert!(matches!(err, Err(ConfigError { reason }) if reason.contains("queue")));
    }

    #[test]
    fn ladder_validates_streak() {
        let err = DegradePolicy { miss_streak: 0, recover_streak: 1 }.validate();
        assert!(matches!(err, Err(ConfigError { reason }) if reason.contains("miss streak")));
        assert_eq!(DegradePolicy { miss_streak: 1, recover_streak: 0 }.validate(), Ok(()));
    }

    #[test]
    fn builder_defaults_and_validation() {
        let p = BatchPolicy { max_batch: 4, max_wait_ns: 0, queue_cap: 4 };
        assert_eq!(p.validate(), Ok(()));
        let err = BatchPolicy { max_batch: 16, queue_cap: 8, ..p }.validate();
        assert!(err.is_err(), "{err:?}");
        let err = BatchPolicy { max_batch: 0, queue_cap: 0, ..p }.validate();
        assert!(err.is_err(), "{err:?}");
        assert_eq!(BatchPolicy { max_batch: 2, max_wait_ns: 7, queue_cap: 9 }.validate(), Ok(()));
    }
}
