//! Fleet-level load generation: shaped arrivals carrying routable user
//! keys.
//!
//! The arrivals come from `serve`'s one open-loop generator
//! ([`generate_arrivals`]: one gap draw, one class pick, then one user
//! draw per arrival, all from a single seeded stream, shaped by any
//! [`ShapeKind`]), but fleet requests carry a *user key* instead of a
//! payload: the router hashes it, the sharded store derives the user's
//! embedding lookups from it, and popularity skew in the [`UserMix`] is
//! what turns traffic shape into shard heat. This is the one place that
//! draws users.

use enw_numerics::rng::{Rng64, ZipfSampler};
use enw_serve::{generate_arrivals, ShapeKind, TrafficClass};

/// One routed request. No payload: everything a replica serves is a
/// deterministic function of `(user, lane)`, which is what keeps the
/// steady-state path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Trace-unique id, ascending with arrival order.
    pub id: u64,
    /// Target lane index.
    pub lane: usize,
    /// Routing key and lookup seed.
    pub user: u64,
    /// Arrival instant, virtual ns.
    pub arrival_ns: u64,
    /// Latency budget: completions after this are deadline misses.
    pub deadline_ns: u64,
}

/// Which user issues each request — the key the router hashes and the
/// seed of the request's embedding lookups, so popularity skew here is
/// what concentrates load on hot shards.
#[derive(Debug, Clone, PartialEq)]
pub enum UserMix {
    /// Every user equally likely.
    Uniform {
        /// Catalogue size.
        users: u64,
    },
    /// Zipf-distributed popularity (the paper's Sec. V-B access model).
    Zipf {
        /// Catalogue size.
        users: u64,
        /// Skew exponent (1.0 ≈ web traffic).
        alpha: f64,
    },
    /// Adversarial hot set: `hot_share` of requests hit the first `hot`
    /// users, the rest spread over the remainder.
    HotSet {
        /// Catalogue size.
        users: u64,
        /// Size of the hot prefix.
        hot: u64,
        /// Fraction of traffic on the hot prefix, in `(0, 1)`.
        hot_share: f64,
    },
}

impl UserMix {
    /// Short stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            UserMix::Uniform { .. } => "uniform",
            UserMix::Zipf { .. } => "zipf",
            UserMix::HotSet { .. } => "hot_set",
        }
    }
}

/// A ready-to-draw sampler for a [`UserMix`] (Zipf needs a precomputed
/// normalization table, so building is separated from sampling).
#[derive(Debug, Clone)]
pub struct UserSampler {
    mix: UserMix,
    zipf: Option<ZipfSampler>,
}

impl UserSampler {
    /// Prepares a sampler for `mix`.
    ///
    /// # Panics
    ///
    /// Panics if the catalogue is empty, a hot set is empty or not a
    /// strict subset, or `hot_share` is outside `(0, 1)`.
    pub fn new(mix: UserMix) -> Self {
        let zipf = match mix {
            UserMix::Uniform { users } => {
                assert!(users > 0, "empty user catalogue");
                None
            }
            UserMix::Zipf { users, alpha } => {
                assert!(users > 0, "empty user catalogue");
                Some(ZipfSampler::new(users as usize, alpha))
            }
            UserMix::HotSet { users, hot, hot_share } => {
                assert!(hot > 0 && hot < users, "hot set must be a non-empty strict subset");
                assert!(
                    hot_share > 0.0 && hot_share < 1.0,
                    "hot_share must sit strictly inside (0, 1)"
                );
                None
            }
        };
        UserSampler { mix, zipf }
    }

    /// The mix this sampler draws from.
    pub fn mix(&self) -> &UserMix {
        &self.mix
    }

    /// Draws one user id.
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        match self.mix {
            UserMix::Uniform { users } => rng.below(users as usize) as u64,
            UserMix::Zipf { .. } => match &self.zipf {
                Some(z) => z.sample(rng) as u64,
                None => 0,
            },
            UserMix::HotSet { users, hot, hot_share } => {
                if rng.uniform() < hot_share {
                    rng.below(hot as usize) as u64
                } else {
                    hot + rng.below((users - hot) as usize) as u64
                }
            }
        }
    }
}

/// Generates a fleet arrival trace: [`generate_arrivals`] over `shape`
/// up to `duration_ns`, each class's `station` the target lane, a user
/// key from `users` per request.
///
/// # Panics
///
/// Panics if `classes` is empty, any weight is non-positive, or the
/// shape's rate is not positive and finite.
pub fn generate_fleet_trace(
    shape: &ShapeKind,
    duration_ns: u64,
    seed: u64,
    classes: &[TrafficClass],
    users: &UserSampler,
) -> Vec<FleetRequest> {
    generate_arrivals(shape, duration_ns, seed, classes, |a, rng| FleetRequest {
        id: a.id,
        lane: a.station,
        user: users.sample(rng),
        arrival_ns: a.arrival_ns,
        deadline_ns: a.deadline_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON_NS: u64 = 50_000_000;

    fn classes() -> Vec<TrafficClass> {
        vec![
            TrafficClass { station: 0, weight: 3.0, deadline_ns: 2_000_000 },
            TrafficClass { station: 1, weight: 1.0, deadline_ns: 5_000_000 },
        ]
    }

    #[test]
    fn traces_are_reproducible_and_sorted() {
        let users = UserSampler::new(UserMix::Zipf { users: 10_000, alpha: 1.0 });
        let shape = ShapeKind::Diurnal { base_qps: 20_000.0, swing: 0.5, period_s: 0.01 };
        let a = generate_fleet_trace(&shape, HORIZON_NS, 1, &classes(), &users);
        let b = generate_fleet_trace(&shape, HORIZON_NS, 1, &classes(), &users);
        assert_eq!(a, b, "same seed must name the same trace");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn bursts_concentrate_arrivals_in_the_on_phase() {
        let users = UserSampler::new(UserMix::Uniform { users: 1000 });
        let shape =
            ShapeKind::Bursty { hi_qps: 50_000.0, lo_qps: 1_000.0, on_s: 0.01, off_s: 0.01 };
        let trace = generate_fleet_trace(&shape, HORIZON_NS, 2, &classes(), &users);
        let in_burst =
            trace.iter().filter(|r| (r.arrival_ns as f64 / 1e9).rem_euclid(0.02) < 0.01).count()
                as f64;
        let share = in_burst / trace.len() as f64;
        assert!(share > 0.9, "burst share {share} too low for a 50:1 rate ratio");
    }

    #[test]
    fn lanes_follow_the_class_weights() {
        let users = UserSampler::new(UserMix::Uniform { users: 1000 });
        let shape = ShapeKind::Poisson { qps: 20_000.0 };
        let trace = generate_fleet_trace(&shape, HORIZON_NS, 3, &classes(), &users);
        let to_zero = trace.iter().filter(|r| r.lane == 0).count() as f64;
        let share = to_zero / trace.len() as f64;
        assert!((0.65..0.85).contains(&share), "lane share {share} far from 0.75");
        for r in &trace {
            let budget = if r.lane == 0 { 2_000_000 } else { 5_000_000 };
            assert_eq!(r.deadline_ns, r.arrival_ns + budget);
        }
    }

    #[test]
    fn hot_set_concentrates_traffic() {
        let sampler = UserSampler::new(UserMix::HotSet { users: 10_000, hot: 10, hot_share: 0.8 });
        let mut rng = Rng64::new(11);
        let mut hot_hits = 0usize;
        for _ in 0..5_000 {
            if sampler.sample(&mut rng) < 10 {
                hot_hits += 1;
            }
        }
        let share = hot_hits as f64 / 5_000.0;
        assert!((0.75..0.85).contains(&share), "hot share {share} far from 0.8");
    }

    #[test]
    fn samplers_are_reproducible() {
        for mix in [
            UserMix::Uniform { users: 1000 },
            UserMix::Zipf { users: 1000, alpha: 1.0 },
            UserMix::HotSet { users: 1000, hot: 50, hot_share: 0.6 },
        ] {
            let s = UserSampler::new(mix);
            let a: Vec<u64> = {
                let mut rng = Rng64::new(3);
                (0..64).map(|_| s.sample(&mut rng)).collect()
            };
            let b: Vec<u64> = {
                let mut rng = Rng64::new(3);
                (0..64).map(|_| s.sample(&mut rng)).collect()
            };
            assert_eq!(a, b, "{} sampler drifted", s.mix().name());
            assert!(a.iter().all(|&u| u < 1000));
        }
    }
}
