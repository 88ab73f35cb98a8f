//! Reproducible open-loop load generation.
//!
//! Open-loop means arrivals do not wait for responses — the generator
//! plays a Poisson-like process at a configured aggregate QPS regardless
//! of how the server is coping, which is what exposes saturation and
//! tail behaviour (a closed-loop generator self-throttles and hides
//! them). All randomness flows through one seeded `Rng64` in a fixed
//! draw order, so a `(seed, spec)` pair names exactly one trace.
//!
//! The inter-arrival process itself is pluggable through [`LoadShape`]:
//! the classic memoryless process is [`Poisson`], and richer shapes
//! (diurnal sinusoids, bursty on/off phases, flash crowds) live in the
//! fleet layer (`enw-fleet`) and drive the same generator through this
//! trait.

use crate::clock::ns_from_secs;
use crate::request::Request;
use crate::scheduler::Server;
use enw_numerics::rng::Rng64;

/// An open-loop inter-arrival process on virtual time.
///
/// Implementations map the current virtual instant to the gap before the
/// next arrival. All randomness must come from the passed `Rng64` (in a
/// fixed draw order) so a `(seed, shape)` pair names exactly one arrival
/// sequence — the determinism contract every consumer relies on.
pub trait LoadShape {
    /// Seconds until the next arrival after virtual instant `t_s`.
    /// Must be positive and finite for every reachable `t_s`.
    fn next_dt_s(&mut self, t_s: f64, rng: &mut Rng64) -> f64;
}

/// The memoryless process: exponential inter-arrival at a fixed
/// aggregate rate. This is byte-for-byte the process E16's serving sweep
/// has always used — one uniform draw per arrival, `-ln(1-u)/qps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    qps: f64,
}

impl Poisson {
    /// A Poisson process at `qps` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not positive and finite.
    pub fn new(qps: f64) -> Self {
        assert!(qps > 0.0 && qps.is_finite(), "qps must be positive");
        Poisson { qps }
    }

    /// The configured aggregate rate.
    pub fn qps(&self) -> f64 {
        self.qps
    }
}

impl LoadShape for Poisson {
    fn next_dt_s(&mut self, _t_s: f64, rng: &mut Rng64) -> f64 {
        // Exponential inter-arrival: -ln(u)/qps with u in (0, 1].
        let u = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
        -u.ln() / self.qps
    }
}

/// One slice of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficClass {
    /// Target station index.
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

/// Generates the arrival trace for `spec` with traffic split across
/// `classes`; payloads are drawn from each class's station so they always
/// match the lane that will serve them. Arrivals are exponential
/// inter-arrival (memoryless) at the aggregate rate, classes sampled by
/// weight per arrival — i.e. [`generate_trace_shaped`] driven by
/// [`Poisson`] at `spec.qps`.
///
/// # Panics
///
/// Panics if `classes` is empty, any weight is non-positive, any station
/// index is out of range, or `qps` is non-positive.
pub fn generate_trace(server: &Server, spec: &LoadSpec, classes: &[TrafficClass]) -> Vec<Request> {
    let mut shape = Poisson::new(spec.qps);
    generate_trace_shaped(server, spec, classes, &mut shape)
}

/// [`generate_trace`] with a caller-supplied inter-arrival process. The
/// draw order is fixed: one [`LoadShape::next_dt_s`] call, then the class
/// pick, then the payload draw, per arrival — so shapes compose with the
/// class mix without perturbing each other's randomness.
///
/// # Panics
///
/// Panics if `classes` is empty, any weight is non-positive, any station
/// index is out of range, `qps` is non-positive, or the shape returns a
/// non-positive or non-finite gap.
pub fn generate_trace_shaped(
    server: &Server,
    spec: &LoadSpec,
    classes: &[TrafficClass],
    shape: &mut dyn LoadShape,
) -> Vec<Request> {
    assert!(!classes.is_empty(), "traffic mix needs at least one class");
    assert!(spec.qps > 0.0 && spec.qps.is_finite(), "qps must be positive");
    let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
    for c in classes {
        assert!(c.weight > 0.0, "class weights must be positive");
        assert!(c.station < server.station_count(), "traffic class targets unknown station");
    }
    let mut rng = Rng64::new(spec.seed);
    let mut trace = Vec::new();
    let mut t_s = 0.0f64;
    let mut id = 0u64;
    loop {
        let dt = shape.next_dt_s(t_s, &mut rng);
        assert!(dt > 0.0 && dt.is_finite(), "load shape produced a bad gap: {dt}");
        t_s += dt;
        let arrival_ns = ns_from_secs(t_s);
        if arrival_ns >= spec.duration_ns {
            break;
        }
        let mut pick = rng.uniform() * total_weight;
        let mut class = classes[classes.len() - 1];
        for c in classes {
            if pick < c.weight {
                class = *c;
                break;
            }
            pick -= c.weight;
        }
        let payload = server.payload_for(class.station, &mut rng);
        trace.push(Request {
            id,
            station: class.station,
            payload,
            arrival_ns,
            deadline_ns: arrival_ns.saturating_add(class.deadline_ns),
        });
        id += 1;
    }
    trace
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
    fn poisson_shape_reproduces_the_legacy_trace() {
        // The LoadShape extraction must not change E16's emitted arrival
        // sequence: the shaped generator driven by `Poisson` is the same
        // draw-for-draw process `generate_trace` always played.
        let s = server(2);
        let legacy = generate_trace(&s, &spec(42), &classes());
        let mut shape = Poisson::new(spec(42).qps);
        let shaped = generate_trace_shaped(&s, &spec(42), &classes(), &mut shape);
        assert_eq!(legacy, shaped, "Poisson shape diverged from the legacy process");
    }

    #[test]
    fn custom_shapes_drive_the_generator() {
        /// Fixed-gap arrivals: 1 µs apart, no randomness.
        struct EveryMicro;
        impl LoadShape for EveryMicro {
            fn next_dt_s(&mut self, _t_s: f64, _rng: &mut Rng64) -> f64 {
                1e-6
            }
        }
        let s = server(1);
        let one = vec![TrafficClass { station: 0, weight: 1.0, deadline_ns: 100 }];
        let spec = LoadSpec { qps: 1.0, duration_ns: 10_000, seed: 5 };
        let trace = generate_trace_shaped(&s, &spec, &one, &mut EveryMicro);
        assert_eq!(trace.len(), 9, "10 µs horizon holds 9 strictly-later 1 µs arrivals");
        for (k, r) in trace.iter().enumerate() {
            assert_eq!(r.arrival_ns, 1_000 * (k as u64 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "bad gap")]
    fn non_positive_gaps_are_rejected() {
        struct Stuck;
        impl LoadShape for Stuck {
            fn next_dt_s(&mut self, _t_s: f64, _rng: &mut Rng64) -> f64 {
                0.0
            }
        }
        let s = server(1);
        let one = vec![TrafficClass { station: 0, weight: 1.0, deadline_ns: 100 }];
        let spec = LoadSpec { qps: 1.0, duration_ns: 10_000, seed: 5 };
        generate_trace_shaped(&s, &spec, &one, &mut Stuck);
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
