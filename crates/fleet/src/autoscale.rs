//! Reactive replica autoscaling on the virtual clock.
//!
//! At every control epoch the simulator hands the autoscaler what a real
//! controller would read from its metrics plane — queue depth against
//! capacity, the epoch's p99, shed counts — and gets back a scale
//! decision. The state machine is deliberately conservative and fully
//! deterministic:
//!
//! ```text
//!           hot signal & below max          calm streak & above min
//! Steady ────────────────────────▶ Up   ◀── (resets the streak) ── Down
//!    ▲            cooldown epochs hold every decision             ▲
//!    └────────────────────────────────────────────────────────────┘
//! ```
//!
//! "Hot" is any of: epoch p99 over the SLO, waiting work over
//! `up_queue_frac` of lane queue capacity, or any sheds this epoch.
//! "Calm" requires *all* of: p99 under half the SLO, waiting work under
//! `down_queue_frac`, and a clean epoch — sustained for
//! `calm_epochs_to_downscale` consecutive epochs, so one quiet epoch in
//! a diurnal trough cannot flap the fleet.

use enw_numerics::error::{check, ConfigError};

/// Scaling thresholds and pacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Floor on replicas (never scale below).
    pub min_replicas: usize,
    /// Ceiling on replicas (never scale above).
    pub max_replicas: usize,
    /// Control epoch length in virtual ns.
    pub epoch_ns: u64,
    /// Epoch p99 above this is a hot signal.
    pub p99_slo_ns: u64,
    /// Waiting work above this fraction of lane queue capacity is hot.
    pub up_queue_frac: f64,
    /// Waiting work must be below this fraction to count as calm.
    pub down_queue_frac: f64,
    /// Consecutive calm epochs required before scaling down.
    pub calm_epochs_to_downscale: u32,
    /// Epochs every decision is held after a scale event.
    pub cooldown_epochs: u32,
}

impl AutoscalePolicy {
    /// Checks internal consistency: bounds in order, a positive epoch and
    /// SLO, queue fractions with `0 < down <= up <= 1`, and at least one
    /// calm epoch before a downscale.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(self.min_replicas >= 1, "a lane cannot run on zero replicas")?;
        check(self.min_replicas <= self.max_replicas, "min_replicas exceeds max_replicas")?;
        check(self.epoch_ns > 0, "control epoch must be positive")?;
        check(self.p99_slo_ns > 0, "p99 SLO must be positive")?;
        check(
            self.down_queue_frac > 0.0 && self.down_queue_frac <= self.up_queue_frac,
            "queue fractions must satisfy 0 < down <= up",
        )?;
        check(self.up_queue_frac <= 1.0, "up_queue_frac above 1 can never fire")?;
        check(self.calm_epochs_to_downscale >= 1, "downscale needs at least one calm epoch")
    }
}

/// What the autoscaler wants done this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current replica set.
    Hold,
    /// Add one replica.
    Up,
    /// Retire one replica.
    Down,
}

/// One epoch's observed signals for a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSignals {
    /// Live replicas when the epoch closed.
    pub replicas: usize,
    /// Requests waiting in replica queues when the epoch closed.
    pub queued: usize,
    /// Total queue slots across live replicas.
    pub queue_cap: usize,
    /// Nearest-rank p99 of latencies completed this epoch (0 when none).
    pub epoch_p99_ns: u64,
    /// Requests completed this epoch.
    pub served: u64,
    /// Requests shed or rejected this epoch.
    pub dropped: u64,
}

/// The per-lane scaling state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    calm_streak: u32,
    cooldown_left: u32,
    scale_ups: u64,
    scale_downs: u64,
}

impl Autoscaler {
    /// A fresh controller for `policy`.
    ///
    /// # Panics
    ///
    /// Panics if [`AutoscalePolicy::validate`] rejects `policy`.
    pub fn new(policy: AutoscalePolicy) -> Self {
        let valid = policy.validate();
        assert!(valid.is_ok(), "inconsistent autoscale policy: {valid:?}");
        Autoscaler { policy, calm_streak: 0, cooldown_left: 0, scale_ups: 0, scale_downs: 0 }
    }

    /// The thresholds in force.
    pub fn policy(&self) -> &AutoscalePolicy {
        &self.policy
    }

    /// Scale events issued so far, `(ups, downs)`.
    pub fn events(&self) -> (u64, u64) {
        (self.scale_ups, self.scale_downs)
    }

    /// Feeds one closed epoch through the state machine.
    pub fn observe(&mut self, s: &EpochSignals) -> ScaleDecision {
        let p = self.policy;
        let queued_frac = if s.queue_cap == 0 { 1.0 } else { s.queued as f64 / s.queue_cap as f64 };
        let hot = s.epoch_p99_ns > p.p99_slo_ns || queued_frac > p.up_queue_frac || s.dropped > 0;
        let calm = !hot
            && s.epoch_p99_ns * 2 < p.p99_slo_ns
            && queued_frac < p.down_queue_frac
            && s.dropped == 0;
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.calm_streak = if calm { self.calm_streak + 1 } else { 0 };
            return ScaleDecision::Hold;
        }
        if hot {
            self.calm_streak = 0;
            if s.replicas < p.max_replicas {
                self.cooldown_left = p.cooldown_epochs;
                self.scale_ups += 1;
                return ScaleDecision::Up;
            }
            return ScaleDecision::Hold;
        }
        if calm {
            self.calm_streak += 1;
            if self.calm_streak >= p.calm_epochs_to_downscale && s.replicas > p.min_replicas {
                self.calm_streak = 0;
                self.cooldown_left = p.cooldown_epochs;
                self.scale_downs += 1;
                return ScaleDecision::Down;
            }
        } else {
            self.calm_streak = 0;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            min_replicas: 1,
            max_replicas: 4,
            epoch_ns: 10_000_000,
            p99_slo_ns: 1_000_000,
            up_queue_frac: 0.5,
            down_queue_frac: 0.1,
            calm_epochs_to_downscale: 3,
            cooldown_epochs: 1,
        }
    }

    fn calm(replicas: usize) -> EpochSignals {
        EpochSignals {
            replicas,
            queued: 0,
            queue_cap: 64,
            epoch_p99_ns: 100_000,
            served: 50,
            dropped: 0,
        }
    }

    fn hot(replicas: usize) -> EpochSignals {
        EpochSignals {
            replicas,
            queued: 60,
            queue_cap: 64,
            epoch_p99_ns: 5_000_000,
            served: 50,
            dropped: 3,
        }
    }

    #[test]
    fn hot_epochs_scale_up_to_the_ceiling() {
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.observe(&hot(2)), ScaleDecision::Up);
        assert_eq!(a.observe(&hot(3)), ScaleDecision::Hold, "cooldown holds");
        assert_eq!(a.observe(&hot(3)), ScaleDecision::Up);
        assert_eq!(a.observe(&hot(4)), ScaleDecision::Hold, "cooldown again");
        assert_eq!(a.observe(&hot(4)), ScaleDecision::Hold, "at max, hold");
        assert_eq!(a.events(), (2, 0));
    }

    #[test]
    fn downscale_needs_a_sustained_calm_streak() {
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.observe(&calm(3)), ScaleDecision::Hold);
        assert_eq!(a.observe(&calm(3)), ScaleDecision::Hold);
        assert_eq!(a.observe(&calm(3)), ScaleDecision::Down, "third calm epoch");
        assert_eq!(a.observe(&calm(2)), ScaleDecision::Hold, "cooldown");
        assert_eq!(a.events(), (0, 1));
    }

    #[test]
    fn one_busy_epoch_resets_the_calm_streak() {
        let mut a = Autoscaler::new(policy());
        a.observe(&calm(3));
        a.observe(&calm(3));
        // Busy but not hot: between the calm and hot thresholds.
        let midway = EpochSignals { queued: 20, ..calm(3) };
        assert_eq!(a.observe(&midway), ScaleDecision::Hold);
        assert_eq!(a.observe(&calm(3)), ScaleDecision::Hold, "streak restarted");
    }

    #[test]
    fn floor_is_respected() {
        let mut a = Autoscaler::new(policy());
        for _ in 0..10 {
            assert_ne!(a.observe(&calm(1)), ScaleDecision::Down, "cannot drop below min");
        }
    }

    #[test]
    fn decisions_are_reproducible() {
        let signals: Vec<EpochSignals> =
            (0..20).map(|i| if i % 3 == 0 { hot(2) } else { calm(2) }).collect();
        let mut a = Autoscaler::new(policy());
        let mut b = Autoscaler::new(policy());
        for s in &signals {
            assert_eq!(a.observe(s), b.observe(s));
        }
    }

    #[test]
    #[should_panic(expected = "min_replicas exceeds max_replicas")]
    fn inverted_bounds_are_rejected() {
        Autoscaler::new(AutoscalePolicy { min_replicas: 5, ..policy() });
    }
}
