//! Reproducible open-loop load generation: the one arrival generator
//! behind every trace in the workspace.
//!
//! Open-loop means arrivals do not wait for responses — the generator
//! plays its arrival process regardless of how the server is coping,
//! which is what exposes saturation and tail behaviour (a closed-loop
//! generator self-throttles and hides them).
//!
//! [`ShapeKind`] names the process: memoryless Poisson, or one of three
//! rate-modulated shapes (diurnal sinusoid, bursty on/off, flash crowd)
//! whose instantaneous rate `rate_at(t)` prices the next exponential gap
//! — a piecewise-exponential approximation of the non-homogeneous
//! Poisson process. [`generate_arrivals`] is the one loop that turns
//! gaps into arrivals: per arrival it draws the gap, then the traffic
//! class, then hands the arrival to the caller's per-request draw, all
//! from one seeded `Rng64` in that order, so a `(seed, shape, classes)`
//! triple names exactly one trace. [`generate_trace`] drives it for the
//! single-node server (a Poisson process with a payload per request);
//! `enw-fleet` drives it with every shape and a user key per request.

use crate::clock::ns_from_secs;
use crate::request::Request;
use crate::scheduler::Server;
use enw_numerics::rng::Rng64;

/// An open-loop arrival process. All rates are requests/second on the
/// virtual clock; every variant's rate must stay strictly positive so
/// the generator terminates.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeKind {
    /// Memoryless at a fixed rate — the E16 baseline.
    Poisson {
        /// Aggregate arrival rate.
        qps: f64,
    },
    /// Diurnal sinusoid: `base * (1 + swing * sin(2πt/period))`.
    Diurnal {
        /// Mean rate over one period.
        base_qps: f64,
        /// Relative amplitude in `[0, 1)`; the trough stays positive.
        swing: f64,
        /// Period of one simulated "day" in seconds.
        period_s: f64,
    },
    /// Bursty on/off: `hi_qps` for `on_s`, then `lo_qps` for `off_s`.
    Bursty {
        /// Rate inside a burst.
        hi_qps: f64,
        /// Rate between bursts.
        lo_qps: f64,
        /// Burst length in seconds.
        on_s: f64,
        /// Quiet gap in seconds.
        off_s: f64,
    },
    /// Flash crowd: `base_qps`, multiplied by `spike` inside
    /// `[start_s, start_s + length_s)`.
    FlashCrowd {
        /// Background rate.
        base_qps: f64,
        /// Rate multiplier during the crowd (>= 1).
        spike: f64,
        /// When the crowd arrives, seconds.
        start_s: f64,
        /// How long it stays, seconds.
        length_s: f64,
    },
}

impl ShapeKind {
    /// Short stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ShapeKind::Poisson { .. } => "poisson",
            ShapeKind::Diurnal { .. } => "diurnal",
            ShapeKind::Bursty { .. } => "bursty",
            ShapeKind::FlashCrowd { .. } => "flash_crowd",
        }
    }

    /// Instantaneous arrival rate at virtual second `t_s`.
    ///
    /// # Panics
    ///
    /// Panics if the variant's parameters make the rate non-positive or
    /// non-finite at `t_s` (e.g. `swing >= 1`).
    pub fn rate_at(&self, t_s: f64) -> f64 {
        let rate = match *self {
            ShapeKind::Poisson { qps } => qps,
            ShapeKind::Diurnal { base_qps, swing, period_s } => {
                base_qps * (1.0 + swing * (std::f64::consts::TAU * t_s / period_s).sin())
            }
            ShapeKind::Bursty { hi_qps, lo_qps, on_s, off_s } => {
                let phase = t_s.rem_euclid(on_s + off_s);
                if phase < on_s {
                    hi_qps
                } else {
                    lo_qps
                }
            }
            ShapeKind::FlashCrowd { base_qps, spike, start_s, length_s } => {
                if (start_s..start_s + length_s).contains(&t_s) {
                    base_qps * spike
                } else {
                    base_qps
                }
            }
        };
        assert!(rate > 0.0 && rate.is_finite(), "shape {} has rate {rate} at t={t_s}", self.name());
        rate
    }

    /// Mean rate over the horizon — used to size sweeps against lane
    /// capacity the same way E16 uses `saturation_qps`.
    pub fn mean_qps(&self) -> f64 {
        match *self {
            ShapeKind::Poisson { qps } => qps,
            ShapeKind::Diurnal { base_qps, .. } => base_qps,
            ShapeKind::Bursty { hi_qps, lo_qps, on_s, off_s } => {
                (hi_qps * on_s + lo_qps * off_s) / (on_s + off_s)
            }
            // Crowd contribution is horizon-dependent; report the floor.
            ShapeKind::FlashCrowd { base_qps, .. } => base_qps,
        }
    }
}

/// One slice of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficClass {
    /// Target station index (a lane index in the fleet).
    pub station: usize,
    /// Relative share of the aggregate QPS (weights need not sum to 1).
    pub weight: f64,
    /// Per-request latency budget: deadline = arrival + this.
    pub deadline_ns: u64,
}

/// Aggregate arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Aggregate arrival rate over all classes (requests/second).
    pub qps: f64,
    /// Trace horizon in virtual nanoseconds.
    pub duration_ns: u64,
    /// Seed naming this trace.
    pub seed: u64,
}

/// One arrival as [`generate_arrivals`] hands it to the per-request draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Trace-unique id, ascending with arrival order.
    pub id: u64,
    /// The picked class's station.
    pub station: usize,
    /// Arrival instant, virtual ns.
    pub arrival_ns: u64,
    /// Arrival plus the picked class's latency budget.
    pub deadline_ns: u64,
}

/// The open-loop arrival loop: every arrival before `duration_ns` of
/// `shape`, its class picked by weight from `classes`, turned into a
/// trace entry by `draw`. The draw order per arrival is fixed — one
/// uniform for the gap, one for the class, then whatever `draw` takes
/// from the stream — so shapes, mixes and per-request draws compose
/// without perturbing each other's randomness.
///
/// # Panics
///
/// Panics if `classes` is empty, any weight is non-positive, or the
/// shape's rate is not positive and finite (see [`ShapeKind::rate_at`]).
pub fn generate_arrivals<R>(
    shape: &ShapeKind,
    duration_ns: u64,
    seed: u64,
    classes: &[TrafficClass],
    mut draw: impl FnMut(Arrival, &mut Rng64) -> R,
) -> Vec<R> {
    assert!(!classes.is_empty(), "traffic mix needs at least one class");
    assert!(classes.iter().all(|c| c.weight > 0.0), "class weights must be positive");
    let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
    let mut rng = Rng64::new(seed);
    let mut trace = Vec::new();
    let mut t_s = 0.0f64;
    for id in 0.. {
        // Exponential gap -ln(u)/rate with u in [MIN_POSITIVE, 1], priced
        // at the rate of the current instant: >= 0 by construction.
        let u = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
        t_s += -u.ln() / shape.rate_at(t_s);
        let arrival_ns = ns_from_secs(t_s);
        if arrival_ns >= duration_ns {
            break;
        }
        let mut pick = rng.uniform() * total_weight;
        let mut class = &classes[classes.len() - 1];
        for c in classes {
            if pick < c.weight {
                class = c;
                break;
            }
            pick -= c.weight;
        }
        let deadline_ns = arrival_ns.saturating_add(class.deadline_ns);
        trace.push(draw(Arrival { id, station: class.station, arrival_ns, deadline_ns }, &mut rng));
    }
    trace
}

/// Generates the arrival trace for `spec` with traffic split across
/// `classes`: [`generate_arrivals`] driven by a Poisson process at
/// `spec.qps`, each request's payload drawn from its class's station so
/// it always matches the lane that will serve it.
///
/// # Panics
///
/// Panics if `classes` is empty, any weight is non-positive, any station
/// index is out of range, or `qps` is non-positive.
pub fn generate_trace(server: &Server, spec: &LoadSpec, classes: &[TrafficClass]) -> Vec<Request> {
    assert!(spec.qps > 0.0 && spec.qps.is_finite(), "qps must be positive");
    assert!(
        classes.iter().all(|c| c.station < server.station_count()),
        "traffic class targets unknown station"
    );
    let shape = ShapeKind::Poisson { qps: spec.qps };
    generate_arrivals(&shape, spec.duration_ns, spec.seed, classes, |a, rng| Request {
        id: a.id,
        station: a.station,
        payload: server.payload_for(a.station, rng),
        arrival_ns: a.arrival_ns,
        deadline_ns: a.deadline_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, ServiceModel};
    use crate::policy::{BatchPolicy, StationSpec};
    use crate::request::{Output, Payload};

    struct Stub(usize);

    impl Backend for Stub {
        fn name(&self) -> &str {
            "stub"
        }
        fn service_ns(&self, batch: usize) -> u64 {
            ServiceModel { setup_ns: 10, per_item_ns: 1 }.ns(batch)
        }
        fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
            out.clear();
            out.extend(batch.iter().map(|_| Output::Label(None)));
        }
        fn make_payload(&self, rng: &mut Rng64) -> Payload {
            Payload::Features((0..self.0).map(|_| rng.uniform_f32()).collect())
        }
    }

    fn server(stations: usize) -> Server {
        Server::try_new(
            (0..stations)
                .map(|i| {
                    StationSpec::simple(
                        Box::new(Stub(i + 1)),
                        BatchPolicy { max_batch: 4, max_wait_ns: 100, queue_cap: 16 },
                    )
                })
                .collect(),
        )
        .expect("test server has stations")
    }

    fn spec(seed: u64) -> LoadSpec {
        LoadSpec { qps: 50_000.0, duration_ns: 20_000_000, seed }
    }

    fn classes() -> Vec<TrafficClass> {
        vec![
            TrafficClass { station: 0, weight: 3.0, deadline_ns: 1_000_000 },
            TrafficClass { station: 1, weight: 1.0, deadline_ns: 2_000_000 },
        ]
    }

    #[test]
    fn traces_are_reproducible_and_sorted() {
        let s = server(2);
        let a = generate_trace(&s, &spec(42), &classes());
        let b = generate_trace(&s, &spec(42), &classes());
        assert_eq!(a, b, "same seed must name the same trace");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
            assert!(w[0].id < w[1].id);
        }
        let c = generate_trace(&s, &spec(43), &classes());
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn rate_and_mix_are_roughly_honoured() {
        let s = server(2);
        let trace = generate_trace(&s, &spec(7), &classes());
        // 50k qps over 20 ms ~ 1000 arrivals; Poisson spread is ~3%.
        let n = trace.len() as f64;
        assert!((800.0..1200.0).contains(&n), "got {n} arrivals");
        let to_zero = trace.iter().filter(|r| r.station == 0).count() as f64;
        let share = to_zero / n;
        assert!((0.65..0.85).contains(&share), "class share {share} far from 0.75");
    }

    #[test]
    fn deadlines_and_payloads_follow_the_class() {
        let s = server(2);
        let trace = generate_trace(&s, &spec(9), &classes());
        for r in &trace {
            let budget = if r.station == 0 { 1_000_000 } else { 2_000_000 };
            assert_eq!(r.deadline_ns, r.arrival_ns + budget);
            let Payload::Features(f) = &r.payload else {
                unreachable!("stub lanes draw feature payloads");
            };
            assert_eq!(f.len(), r.station + 1, "payload drawn from the wrong station");
        }
    }

    #[test]
    fn diurnal_rate_breathes_around_base() {
        let s = ShapeKind::Diurnal { base_qps: 1000.0, swing: 0.5, period_s: 1.0 };
        assert!((s.rate_at(0.25) - 1500.0).abs() < 1e-6, "peak at quarter period");
        assert!((s.rate_at(0.75) - 500.0).abs() < 1e-6, "trough at three quarters");
        assert_eq!(s.mean_qps(), 1000.0);
    }

    #[test]
    fn bursty_rate_switches_phases() {
        let s = ShapeKind::Bursty { hi_qps: 900.0, lo_qps: 100.0, on_s: 0.1, off_s: 0.3 };
        assert_eq!(s.rate_at(0.05), 900.0);
        assert_eq!(s.rate_at(0.2), 100.0);
        assert_eq!(s.rate_at(0.45), 900.0, "phase wraps");
        assert_eq!(s.mean_qps(), 300.0);
    }

    #[test]
    fn flash_crowd_spikes_inside_the_window() {
        let s = ShapeKind::FlashCrowd { base_qps: 200.0, spike: 5.0, start_s: 1.0, length_s: 0.5 };
        assert_eq!(s.rate_at(0.5), 200.0);
        assert_eq!(s.rate_at(1.2), 1000.0);
        assert_eq!(s.rate_at(1.6), 200.0);
    }

    #[test]
    #[should_panic(expected = "has rate")]
    fn overswung_diurnal_is_rejected_at_the_trough() {
        let s = ShapeKind::Diurnal { base_qps: 100.0, swing: 1.5, period_s: 1.0 };
        s.rate_at(0.75);
    }

    #[test]
    fn horizon_bounds_the_trace() {
        let s = server(1);
        let one = vec![TrafficClass { station: 0, weight: 1.0, deadline_ns: 100 }];
        let trace = generate_trace(
            &s,
            &LoadSpec { qps: 1_000_000.0, duration_ns: 1_000_000, seed: 3 },
            &one,
        );
        assert!(trace.iter().all(|r| r.arrival_ns < 1_000_000));
    }
}
