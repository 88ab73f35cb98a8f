//! The deterministic micro-batching event loop.
//!
//! One [`Server`] owns a set of *stations* (one per backend lane), each
//! with a bounded FIFO queue, a batch-close policy, and optionally a
//! degradation rung. Time is the [`VirtualClock`]: the loop repeatedly
//! finds the earliest pending event — next trace arrival, a station's
//! in-flight batch completing, or a station's batch-wait timeout — and
//! processes everything due at that instant in a fixed order
//! (completions, then arrivals, then batch closes; stations always in
//! index order). Every tie-break is structural, so the full response
//! stream is a pure function of the trace: bit-identical across runs,
//! hosts, and `ENW_THREADS` settings.
//!
//! The loop borrows the trace and never copies a request out of it: a
//! station queues trace positions, reads a request's id, arrival and
//! deadline where the trace holds them, and hands its lane references to
//! the payloads. Each lane's batch prices are tabulated when the station
//! is built, so a close looks its price up.
//!
//! Station lifecycle per batch:
//!
//! 1. **Admit** — arrivals enter the station queue or are `Rejected`
//!    when it already holds `queue_cap` requests (backpressure).
//! 2. **Close** — an idle station closes a batch when the queue reaches
//!    `max_batch` or the oldest request has waited `max_wait_ns`.
//!    Requests whose deadline has already passed are `Shed` here,
//!    unserved.
//! 3. **Serve** — the active backend computes real outputs, one request
//!    after another on the loop's own thread, and prices the batch with
//!    its analytic service model; the station is busy until then.
//! 4. **Complete** — responses are emitted; late ones count as deadline
//!    misses and drive the degradation ladder (primary → fallback after
//!    `miss_streak` missed batches, back after `recover_streak` clean
//!    ones).
//!
//! # Observability
//!
//! The loop records `serve/*` spans — queue wait, batch close, backend
//! execute, shed and reject — plus latency/batch-size histograms, all
//! keyed on virtual time and therefore bit-identical across runs and
//! thread counts. Run with `ENW_TRACE=summary` to see the breakdown.

use crate::backend::Backend;
use crate::clock::VirtualClock;
use crate::error::ServeError;
use crate::metrics::StationMetrics;
use crate::policy::{BatchPolicy, DegradePolicy, StationSpec};
use crate::request::{render_responses, Outcome, Output, Payload, Request, Response};
use enw_numerics::error::{check, ConfigError};
use enw_numerics::rng::Rng64;
use enw_trace as trace;
use std::collections::VecDeque;

/// A backend with its batch prices tabulated once: `price[b]` is
/// `service_ns(b).max(1)` for every batch size `b` its station can
/// close. The trait requires `service_ns` to be deterministic and total,
/// so the table is exactly what pricing each batch would return.
struct Lane {
    backend: Box<dyn Backend>,
    price: Vec<u64>,
}

impl Lane {
    fn new(backend: Box<dyn Backend>, max_batch: usize) -> Self {
        let price = (0..=max_batch).map(|b| backend.service_ns(b).max(1)).collect();
        Lane { backend, price }
    }
}

struct Station {
    primary: Lane,
    fallback: Option<Lane>,
    ladder: Option<DegradePolicy>,
    policy: BatchPolicy,
    /// Trace positions of the waiting requests, oldest first.
    queue: VecDeque<usize>,
    busy_until: Option<u64>,
    /// The batch in flight: each request's trace position and output.
    pending: Vec<(usize, Output)>,
    // Per-station arena, sized to `max_batch` at construction: batch
    // close and serve refill these buffers in place, so the event loop
    // allocates nothing per request or per batch of its own.
    batch_buf: Vec<usize>,
    outputs_buf: Vec<Output>,
    on_fallback: bool,
    miss_streak: u32,
    clean_streak: u32,
    metrics: StationMetrics,
}

impl Station {
    fn new(spec: StationSpec) -> Self {
        let metrics = StationMetrics::new(spec.primary.name());
        let max_batch = spec.policy.max_batch;
        let (fallback, ladder) = match spec.degrade {
            Some((f, l)) => (Some(Lane::new(f, max_batch)), Some(l)),
            None => (None, None),
        };
        Station {
            queue: VecDeque::with_capacity(spec.policy.queue_cap.min(1024)),
            primary: Lane::new(spec.primary, max_batch),
            fallback,
            ladder,
            policy: spec.policy,
            busy_until: None,
            pending: Vec::with_capacity(max_batch),
            batch_buf: Vec::with_capacity(max_batch),
            outputs_buf: Vec::with_capacity(max_batch),
            on_fallback: false,
            miss_streak: 0,
            clean_streak: 0,
            metrics,
        }
    }

    /// Instant the oldest waiting request's wait times out, if any waits.
    fn wait_expiry_ns(&self, trace_reqs: &[Request]) -> Option<u64> {
        self.queue
            .front()
            .map(|&pos| trace_reqs[pos].arrival_ns.saturating_add(self.policy.max_wait_ns))
    }

    /// Earliest future instant at which this station, left alone, must
    /// act: batch completion when busy, else the oldest request's
    /// wait-timeout expiry.
    fn next_event_ns(&self, trace_reqs: &[Request]) -> Option<u64> {
        self.busy_until.or_else(|| self.wait_expiry_ns(trace_reqs))
    }

    /// True when an idle station should close a batch now.
    fn can_close(&self, now_ns: u64, trace_reqs: &[Request]) -> bool {
        if self.busy_until.is_some() || self.queue.is_empty() {
            return false;
        }
        self.queue.len() >= self.policy.max_batch
            || self.wait_expiry_ns(trace_reqs).is_some_and(|expiry| now_ns >= expiry)
    }

    /// Moves the degradation ladder after a completed batch.
    fn step_ladder(&mut self, any_miss: bool) {
        let Some(ladder) = self.ladder else { return };
        if !self.on_fallback {
            if any_miss {
                self.miss_streak += 1;
                if self.miss_streak >= ladder.miss_streak && self.fallback.is_some() {
                    self.on_fallback = true;
                    self.metrics.fallback_switches += 1;
                    self.clean_streak = 0;
                }
            } else {
                self.miss_streak = 0;
            }
        } else if any_miss {
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
            if ladder.recover_streak > 0 && self.clean_streak >= ladder.recover_streak {
                self.on_fallback = false;
                self.metrics.recoveries += 1;
                self.miss_streak = 0;
            }
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Terminal record per request, in virtual-time emission order.
    pub responses: Vec<Response>,
    /// Per-station counters and latency histograms.
    pub stations: Vec<StationMetrics>,
    /// Virtual instant of the last event (the simulated makespan).
    pub duration_ns: u64,
}

impl RunReport {
    /// Canonical byte-exact rendering of the response stream (the
    /// determinism contract compares these strings).
    pub fn render(&self) -> String {
        render_responses(&self.responses)
    }
}

/// Checks a trace, given as `(id, arrival_ns, station)` per request,
/// against `stations` stations: sorted by arrival, and every station
/// exists. One pass; the first unknown station is held back until the
/// pass ends, so an out-of-order arrival anywhere wins. `enw-fleet` runs
/// the same check over its lanes.
pub fn check_trace(
    trace: impl IntoIterator<Item = (u64, u64, usize)>,
    stations: usize,
) -> Result<(), ServeError> {
    let mut unknown = None;
    let mut prev_arrival = 0;
    for (position, (request_id, arrival_ns, station)) in trace.into_iter().enumerate() {
        if arrival_ns < prev_arrival {
            return Err(ServeError::UnsortedTrace { position });
        }
        prev_arrival = arrival_ns;
        if station >= stations && unknown.is_none() {
            unknown = Some(ServeError::UnknownStation { request_id, station, stations });
        }
    }
    unknown.map_or(Ok(()), Err)
}

/// The multi-workload serving runtime.
pub struct Server {
    stations: Vec<Station>,
    clock: VirtualClock,
}

impl Server {
    /// Builds a server from station specs; station indices follow the
    /// order given here. Fails on an empty spec list and when a batch
    /// policy or degradation ladder does not validate.
    pub fn try_new(specs: Vec<StationSpec>) -> Result<Self, ConfigError> {
        check(!specs.is_empty(), "a server needs at least one station")?;
        for spec in &specs {
            spec.policy.validate()?;
            if let Some((_, ladder)) = &spec.degrade {
                ladder.validate()?;
            }
        }
        Ok(Server {
            stations: specs.into_iter().map(Station::new).collect(),
            clock: VirtualClock::new(),
        })
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Primary-lane name of station `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn station_name(&self, i: usize) -> &str {
        assert!(i < self.stations.len(), "station index out of range");
        self.stations[i].primary.backend.name()
    }

    /// Batch policy of station `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn policy(&self, i: usize) -> BatchPolicy {
        assert!(i < self.stations.len(), "station index out of range");
        self.stations[i].policy
    }

    /// Draws a payload station `i`'s primary backend understands (load
    /// generation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn payload_for(&self, i: usize, rng: &mut Rng64) -> Payload {
        assert!(i < self.stations.len(), "station index out of range");
        self.stations[i].primary.backend.make_payload(rng)
    }

    /// Steady-state capacity (requests/second) of station `i` serving
    /// back-to-back full batches on its primary backend.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn capacity_qps(&self, i: usize) -> f64 {
        assert!(i < self.stations.len(), "station index out of range");
        let st = &self.stations[i];
        let b = st.policy.max_batch;
        let ns = st.primary.backend.service_ns(b).max(1);
        b as f64 / (ns as f64 / 1e9)
    }

    /// Runs the whole trace to completion and reports. Fails without
    /// serving anything if the trace is unsorted or names an unknown
    /// station; where it does both, the unsorted position is reported.
    /// The trace is only read: stations queue positions into it and
    /// lanes read each payload where it lies.
    pub fn try_run(self, trace_reqs: &[Request]) -> Result<RunReport, ServeError> {
        let entries = trace_reqs.iter().map(|r| (r.id, r.arrival_ns, r.station));
        check_trace(entries, self.stations.len())?;
        Ok(self.run_loop(trace_reqs))
    }

    fn run_loop(mut self, trace_reqs: &[Request]) -> RunReport {
        let mut next_arrival = 0;
        let mut responses: Vec<Response> = Vec::with_capacity(trace_reqs.len());
        // The closing batch's payloads, borrowed from the trace: one
        // buffer, refilled at every close.
        let widest = self.stations.iter().map(|s| s.policy.max_batch).max().unwrap_or(0);
        let mut payloads: Vec<&Payload> = Vec::with_capacity(widest);
        loop {
            let mut t_next: Option<u64> = trace_reqs.get(next_arrival).map(|r| r.arrival_ns);
            for st in &self.stations {
                if let Some(cand) = st.next_event_ns(trace_reqs) {
                    t_next = Some(t_next.map_or(cand, |t| t.min(cand)));
                }
            }
            let Some(t) = t_next else { break };
            self.clock.advance_to(t);
            // 1. Completions due now free their stations.
            for i in 0..self.stations.len() {
                if self.stations[i].busy_until == Some(t) {
                    self.complete_batch(i, t, trace_reqs, &mut responses);
                }
            }
            // 2. All arrivals at this instant are admitted (trace order).
            while let Some(r) = trace_reqs.get(next_arrival).filter(|r| r.arrival_ns == t) {
                self.admit(next_arrival, r, t, &mut responses);
                next_arrival += 1;
            }
            // 3. Idle stations close every batch that is now due; a close
            // may shed the entire batch and leave the station idle with a
            // still-closable queue, hence the fixpoint loop.
            loop {
                let mut progressed = false;
                for i in 0..self.stations.len() {
                    if self.stations[i].can_close(t, trace_reqs) {
                        self.close_batch(i, t, trace_reqs, &mut payloads, &mut responses);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        RunReport {
            responses,
            duration_ns: self.clock.now_ns(),
            stations: self.stations.into_iter().map(|s| s.metrics).collect(),
        }
    }

    /// Queues the request at trace position `pos`, or rejects it when its
    /// station already holds `queue_cap` waiting requests.
    fn admit(&mut self, pos: usize, req: &Request, now_ns: u64, responses: &mut Vec<Response>) {
        let station = &mut self.stations[req.station];
        station.metrics.arrived += 1;
        trace::counter_add("serve.arrived", 1);
        if station.queue.len() < station.policy.queue_cap {
            station.queue.push_back(pos);
            return;
        }
        station.metrics.rejected += 1;
        trace::record_span("serve/reject", 1);
        responses.push(Response {
            id: req.id,
            station: req.station,
            outcome: Outcome::Rejected,
            output: None,
            arrival_ns: req.arrival_ns,
            finish_ns: now_ns,
        });
    }

    fn close_batch<'t>(
        &mut self,
        i: usize,
        now_ns: u64,
        trace_reqs: &'t [Request],
        payloads: &mut Vec<&'t Payload>,
        responses: &mut Vec<Response>,
    ) {
        let close_span = trace::span("serve/batch_close");
        let station = &mut self.stations[i];
        let taken = station.policy.max_batch.min(station.queue.len());
        close_span.add_work(taken as u64);
        // Refill the warm position and payload buffers in place — the
        // only allocations in a steady-state close are whatever the
        // backend's outputs themselves need.
        station.batch_buf.clear();
        payloads.clear();
        for pos in station.queue.drain(..taken) {
            let req = &trace_reqs[pos];
            trace::record_span("serve/queue_wait", now_ns.saturating_sub(req.arrival_ns));
            // Timeout shedding: a request already past its deadline gets
            // no service — answering it late helps no one and slows the
            // batch for everyone else.
            if now_ns >= req.deadline_ns {
                station.metrics.shed += 1;
                trace::record_span("serve/shed", 1);
                responses.push(Response {
                    id: req.id,
                    station: i,
                    outcome: Outcome::Shed,
                    output: None,
                    arrival_ns: req.arrival_ns,
                    finish_ns: now_ns,
                });
            } else {
                station.batch_buf.push(pos);
                payloads.push(&req.payload);
            }
        }
        if payloads.is_empty() {
            return;
        }
        let on_fallback = station.on_fallback && station.fallback.is_some();
        let lane = match (&mut station.fallback, on_fallback) {
            (Some(f), true) => f,
            _ => &mut station.primary,
        };
        let outputs = &mut station.outputs_buf;
        lane.backend.serve_payloads(payloads, outputs);
        assert!(
            outputs.len() == payloads.len(),
            "backend {} returned {} outputs for a batch of {}",
            lane.backend.name(),
            outputs.len(),
            payloads.len()
        );
        let service = lane.price[payloads.len()];
        // Work = modeled service nanoseconds: deterministic, and exactly
        // the currency exp17's stage-share breakdown wants.
        trace::record_span("serve/backend_execute", service);
        trace::record_value("serve.batch_size", payloads.len() as u64);
        station.busy_until = Some(now_ns.saturating_add(service));
        station.metrics.batches += 1;
        if on_fallback {
            station.metrics.degraded_batches += 1;
        }
        station.pending.clear();
        station.pending.extend(station.batch_buf.drain(..).zip(outputs.drain(..)));
    }

    fn complete_batch(
        &mut self,
        i: usize,
        now_ns: u64,
        trace_reqs: &[Request],
        responses: &mut Vec<Response>,
    ) {
        let station = &mut self.stations[i];
        station.busy_until = None;
        let Station { pending, metrics, .. } = station;
        let mut any_miss = false;
        for (pos, out) in pending.drain(..) {
            let req = &trace_reqs[pos];
            let late = now_ns > req.deadline_ns;
            if late {
                metrics.deadline_misses += 1;
                any_miss = true;
            } else {
                metrics.completed += 1;
            }
            let latency = now_ns.saturating_sub(req.arrival_ns);
            metrics.record_latency(latency);
            trace::record_value("serve.latency_ns", latency);
            responses.push(Response {
                id: req.id,
                station: i,
                outcome: if late { Outcome::DeadlineMiss } else { Outcome::Completed },
                output: Some(out),
                arrival_ns: req.arrival_ns,
                finish_ns: now_ns,
            });
        }
        station.step_ladder(any_miss);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ServiceModel;

    /// Toy lane: echoes a constant so tests can tell which backend
    /// served a request, then the payload's first feature so they can
    /// tell which request an output belongs to.
    struct Toy {
        name: String,
        model: ServiceModel,
        echo: f32,
    }

    impl Toy {
        fn boxed(name: &str, service_ns: u64, echo: f32) -> Box<dyn Backend> {
            Toy::priced(name, ServiceModel { setup_ns: service_ns, per_item_ns: 0 }, echo)
        }

        fn priced(name: &str, model: ServiceModel, echo: f32) -> Box<dyn Backend> {
            Box::new(Toy { name: name.to_string(), model, echo })
        }
    }

    impl Backend for Toy {
        fn name(&self) -> &str {
            &self.name
        }
        fn service_ns(&self, batch: usize) -> u64 {
            self.model.ns(batch)
        }
        fn serve_payloads(&mut self, batch: &[&Payload], out: &mut Vec<Output>) {
            out.clear();
            out.extend(batch.iter().map(|p| {
                let first = p.features().and_then(|f| f.first().copied()).unwrap_or(-1.0);
                Output::Scores(vec![self.echo, first])
            }));
        }
        fn make_payload(&self, _rng: &mut Rng64) -> Payload {
            Payload::Features(vec![0.0])
        }
    }

    fn req(id: u64, arrival: u64, deadline: u64) -> Request {
        Request {
            id,
            station: 0,
            payload: Payload::Features(vec![0.0]),
            arrival_ns: arrival,
            deadline_ns: deadline,
        }
    }

    fn run_one(spec: StationSpec, trace_reqs: &[Request]) -> RunReport {
        let server = Server::try_new(vec![spec]).expect("valid test fixture");
        server.try_run(trace_reqs).expect("valid test fixture")
    }

    #[test]
    fn batch_closes_when_full() {
        let spec = StationSpec::simple(
            Toy::boxed("t", 100, 1.0),
            BatchPolicy { max_batch: 2, max_wait_ns: 1_000_000, queue_cap: 8 },
        );
        let report = run_one(spec, &[req(0, 10, u64::MAX), req(1, 10, u64::MAX)]);
        // Both arrived at 10, batch of 2 closed at 10, completed at 110.
        assert_eq!(report.responses.len(), 2);
        for r in &report.responses {
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(r.finish_ns, 110);
        }
        assert_eq!(report.stations[0].batches, 1);
    }

    #[test]
    fn batch_closes_on_wait_timeout() {
        let spec = StationSpec::simple(
            Toy::boxed("t", 100, 1.0),
            BatchPolicy { max_batch: 8, max_wait_ns: 500, queue_cap: 16 },
        );
        let report = run_one(spec, &[req(0, 10, u64::MAX)]);
        // Lone request waits max_wait = 500, closes at 510, done at 610.
        assert_eq!(report.responses[0].finish_ns, 610);
        assert_eq!(report.responses[0].latency_ns(), 600);
    }

    #[test]
    fn full_queue_rejects() {
        // Service is long, so request 0 occupies the lane while 1 waits
        // in the single queue slot and 2 bounces off.
        let spec = StationSpec::simple(
            Toy::boxed("t", 10_000, 1.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 1 },
        );
        let report =
            run_one(spec, &[req(0, 0, u64::MAX), req(1, 5, u64::MAX), req(2, 6, u64::MAX)]);
        let outcomes: Vec<(u64, Outcome)> =
            report.responses.iter().map(|r| (r.id, r.outcome)).collect();
        assert!(outcomes.contains(&(2, Outcome::Rejected)));
        assert_eq!(report.stations[0].rejected, 1);
        assert_eq!(report.stations[0].arrived, 3);
        // The rejected response carries the rejection instant.
        let rej = report.responses.iter().find(|r| r.id == 2).expect("rejected response");
        assert_eq!(rej.finish_ns, 6);
    }

    #[test]
    fn queue_is_fifo_and_rejects_when_full() {
        // Request 0 runs at once; 1 and 2 fill the two queue slots behind
        // it, 3 bounces off, and the queued two are served oldest first.
        let spec = StationSpec::simple(
            Toy::boxed("t", 10_000, 1.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 2 },
        );
        let trace: Vec<Request> = (0..4).map(|k| req(k, k, u64::MAX)).collect();
        let report = run_one(spec, &trace);
        let order: Vec<(u64, Outcome, u64)> =
            report.responses.iter().map(|r| (r.id, r.outcome, r.finish_ns)).collect();
        assert_eq!(
            order,
            vec![
                (3, Outcome::Rejected, 3),
                (0, Outcome::Completed, 10_000),
                (1, Outcome::Completed, 20_000),
                (2, Outcome::Completed, 30_000),
            ]
        );
    }

    #[test]
    fn expired_requests_are_shed_at_close() {
        // Request 1 queues behind a 10 µs batch and its 2 µs deadline
        // passes before the lane frees up: shed, never served.
        let spec = StationSpec::simple(
            Toy::boxed("t", 10_000, 1.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 4 },
        );
        let report = run_one(spec, &[req(0, 0, u64::MAX), req(1, 5, 2_000)]);
        let shed = report.responses.iter().find(|r| r.id == 1).expect("response for 1");
        assert_eq!(shed.outcome, Outcome::Shed);
        assert_eq!(shed.finish_ns, 10_000, "shed at the batch-close instant");
        assert!(shed.output.is_none());
        assert_eq!(report.stations[0].shed, 1);
    }

    #[test]
    fn ladder_steps_down_and_recovers() {
        // Primary needs 1000 ns against an 800 ns deadline budget (miss);
        // fallback needs 10 ns (clean). miss_streak 2, recover after 2.
        let spec = StationSpec::with_fallback(
            Toy::boxed("analog", 1_000, 1.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 4 },
            Toy::boxed("digital", 10, 2.0),
            DegradePolicy { miss_streak: 2, recover_streak: 2 },
        );
        // Arrivals far apart so each is its own batch.
        let trace: Vec<Request> = (0..6).map(|k| req(k, 10_000 * k, 10_000 * k + 800)).collect();
        let report = run_one(spec, &trace);
        let served_by: Vec<f32> = report
            .responses
            .iter()
            .filter_map(|r| match &r.output {
                Some(Output::Scores(v)) => v.first().copied(),
                _ => None,
            })
            .collect();
        // Batches 0,1 on primary (miss, miss) -> step down; 2,3 on
        // fallback (clean, clean) -> recover; 4 on primary (miss), 5 on
        // primary (miss -> step down again at streak 2).
        assert_eq!(served_by, vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
        let m = &report.stations[0];
        assert_eq!(m.fallback_switches, 2);
        assert_eq!(m.recoveries, 1);
        assert_eq!(m.degraded_batches, 2);
        assert_eq!(m.deadline_misses, 4);
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn reruns_are_bit_identical() {
        let mk = || {
            StationSpec::simple(
                Toy::boxed("t", 777, 0.5),
                BatchPolicy { max_batch: 3, max_wait_ns: 1_500, queue_cap: 6 },
            )
        };
        let trace: Vec<Request> = (0..40).map(|k| req(k, k * 400, k * 400 + 5_000)).collect();
        let a = run_one(mk(), &trace);
        let b = run_one(mk(), &trace);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.duration_ns, b.duration_ns);
        assert_eq!(a.stations[0].latencies, b.stations[0].latencies);
    }

    #[test]
    fn unsorted_traces_are_rejected() {
        let spec = StationSpec::simple(
            Toy::boxed("t", 1, 0.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 1 },
        );
        let server = Server::try_new(vec![spec]).expect("one station");
        let err = server.try_run(&[req(0, 10, 20), req(1, 5, 20)]);
        assert_eq!(err.err(), Some(ServeError::UnsortedTrace { position: 1 }));
    }

    #[test]
    fn an_unsorted_trace_outranks_an_earlier_unknown_station() {
        let spec = StationSpec::simple(
            Toy::boxed("t", 1, 0.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 1 },
        );
        let server = Server::try_new(vec![spec]).expect("one station");
        let mut trace: Vec<Request> = (0..5).map(|k| req(k, 10 * k, u64::MAX)).collect();
        trace[1].station = 4;
        trace[3].arrival_ns = 5;
        let err = server.try_run(&trace);
        assert_eq!(err.err(), Some(ServeError::UnsortedTrace { position: 3 }));
    }

    #[test]
    fn unknown_stations_are_rejected() {
        let spec = StationSpec::simple(
            Toy::boxed("t", 1, 0.0),
            BatchPolicy { max_batch: 1, max_wait_ns: 0, queue_cap: 1 },
        );
        let server = Server::try_new(vec![spec]).expect("one station");
        let mut r = req(7, 10, 20);
        r.station = 3;
        let err = server.try_run(&[r]);
        assert_eq!(
            err.err(),
            Some(ServeError::UnknownStation { request_id: 7, station: 3, stations: 1 })
        );
    }

    #[test]
    fn empty_spec_list_is_rejected() {
        let err = Server::try_new(Vec::new()).err();
        assert!(matches!(err, Some(ConfigError { reason }) if reason.contains("station")));
    }

    #[test]
    fn invalid_policies_are_rejected() {
        // Accepted, the first hangs `try_run`: an empty batch closes
        // forever.
        let policy = BatchPolicy { max_batch: 2, max_wait_ns: 0, queue_cap: 4 };
        let simple = |policy| StationSpec::simple(Toy::boxed("t", 1, 0.0), policy);
        let ladder = |ladder| {
            let fallback = Toy::boxed("f", 1, 0.0);
            StationSpec::with_fallback(Toy::boxed("t", 1, 0.0), policy, fallback, ladder)
        };
        let cases = [
            simple(BatchPolicy { max_batch: 0, ..policy }),
            simple(BatchPolicy { queue_cap: 1, ..policy }),
            ladder(DegradePolicy { miss_streak: 0, recover_streak: 1 }),
        ];
        for (i, bad) in cases.into_iter().enumerate() {
            let err = Server::try_new(vec![simple(policy), bad]).err();
            assert!(err.is_some(), "case {i}");
        }
    }

    impl Server {
        /// The loop as it was before stations queued trace positions: each
        /// admitted request is cloned into a FIFO that refuses it once
        /// `queue_cap` wait, a closed batch of clones is served through
        /// `serve_into` and priced by calling `service_ns`. `try_run` must
        /// match it bit for bit.
        fn run_loop_cloned(mut self, trace_reqs: &[Request]) -> RunReport {
            let n = self.stations.len();
            let mut queues: Vec<VecDeque<Request>> = vec![VecDeque::new(); n];
            let mut pending: Vec<Vec<(Request, Output)>> = vec![Vec::new(); n];
            let mut reqs = trace_reqs.iter().peekable();
            let mut responses = Vec::new();
            let wake = |st: &Station, q: &VecDeque<Request>| {
                st.busy_until.or_else(|| {
                    q.front().map(|r| r.arrival_ns.saturating_add(st.policy.max_wait_ns))
                })
            };
            loop {
                let mut t_next = reqs.peek().map(|r| r.arrival_ns);
                for (st, q) in self.stations.iter().zip(&queues) {
                    if let Some(cand) = wake(st, q) {
                        t_next = Some(t_next.map_or(cand, |t| t.min(cand)));
                    }
                }
                let Some(t) = t_next else { break };
                self.clock.advance_to(t);
                for (i, st) in self.stations.iter_mut().enumerate() {
                    if st.busy_until != Some(t) {
                        continue;
                    }
                    st.busy_until = None;
                    let mut any_miss = false;
                    for (req, out) in pending[i].drain(..) {
                        let late = t > req.deadline_ns;
                        any_miss |= late;
                        if late {
                            st.metrics.deadline_misses += 1;
                        } else {
                            st.metrics.completed += 1;
                        }
                        st.metrics.record_latency(t.saturating_sub(req.arrival_ns));
                        responses.push(Response {
                            id: req.id,
                            station: i,
                            outcome: if late { Outcome::DeadlineMiss } else { Outcome::Completed },
                            output: Some(out),
                            arrival_ns: req.arrival_ns,
                            finish_ns: t,
                        });
                    }
                    st.step_ladder(any_miss);
                }
                while let Some(r) = reqs.next_if(|r| r.arrival_ns == t) {
                    let (st, q) = (&mut self.stations[r.station], &mut queues[r.station]);
                    st.metrics.arrived += 1;
                    if q.len() < st.policy.queue_cap {
                        q.push_back(r.clone());
                        continue;
                    }
                    st.metrics.rejected += 1;
                    responses.push(Response {
                        id: r.id,
                        station: r.station,
                        outcome: Outcome::Rejected,
                        output: None,
                        arrival_ns: r.arrival_ns,
                        finish_ns: t,
                    });
                }
                loop {
                    let mut progressed = false;
                    for (i, (st, q)) in self.stations.iter_mut().zip(&mut queues).enumerate() {
                        let due = st.busy_until.is_none()
                            && (q.len() >= st.policy.max_batch
                                || wake(st, q).is_some_and(|expiry| t >= expiry));
                        if !due {
                            continue;
                        }
                        progressed = true;
                        let taken = st.policy.max_batch.min(q.len());
                        let mut batch: Vec<Request> = q.drain(..taken).collect();
                        batch.retain(|req| {
                            if t < req.deadline_ns {
                                return true;
                            }
                            st.metrics.shed += 1;
                            responses.push(Response {
                                id: req.id,
                                station: i,
                                outcome: Outcome::Shed,
                                output: None,
                                arrival_ns: req.arrival_ns,
                                finish_ns: t,
                            });
                            false
                        });
                        if batch.is_empty() {
                            continue;
                        }
                        let on_fallback = st.on_fallback && st.fallback.is_some();
                        let backend = match (&mut st.fallback, on_fallback) {
                            (Some(f), true) => &mut f.backend,
                            _ => &mut st.primary.backend,
                        };
                        let outputs = backend.serve(&batch);
                        let service = backend.service_ns(batch.len()).max(1);
                        st.busy_until = Some(t.saturating_add(service));
                        st.metrics.batches += 1;
                        if on_fallback {
                            st.metrics.degraded_batches += 1;
                        }
                        pending[i] = batch.into_iter().zip(outputs).collect();
                    }
                    if !progressed {
                        break;
                    }
                }
            }
            RunReport {
                responses,
                duration_ns: self.clock.now_ns(),
                stations: self.stations.into_iter().map(|s| s.metrics).collect(),
            }
        }
    }

    /// 1–5 toy stations with mixed service models, half with a fallback
    /// rung, queues of 1–8, and a trace of same-instant bursts under
    /// deadlines short enough to shed and to miss.
    fn random_case(seed: u64) -> (Vec<StationSpec>, Vec<Request>) {
        let mut rng = Rng64::new(seed);
        let stations = 1 + rng.below(5);
        let specs = (0..stations)
            .map(|s| {
                let max_batch = 1 + rng.below(4);
                let queue_cap = max_batch + rng.below(9 - max_batch);
                let max_wait_ns = if rng.bernoulli(0.3) { 0 } else { rng.below(2_000) as u64 };
                let policy = BatchPolicy { max_batch, max_wait_ns, queue_cap };
                let model = ServiceModel {
                    setup_ns: rng.below(3_000) as u64,
                    per_item_ns: rng.below(400) as u64,
                };
                let primary = Toy::priced(&format!("p{s}"), model, s as f32);
                if !rng.bernoulli(0.5) {
                    return StationSpec::simple(primary, policy);
                }
                let model = ServiceModel {
                    setup_ns: rng.below(300) as u64,
                    per_item_ns: rng.below(50) as u64,
                };
                let ladder = DegradePolicy {
                    miss_streak: 1 + rng.below(3) as u32,
                    recover_streak: rng.below(4) as u32,
                };
                StationSpec::with_fallback(
                    primary,
                    policy,
                    Toy::priced(&format!("f{s}"), model, -1.0 - s as f32),
                    ladder,
                )
            })
            .collect();
        let mut arrival_ns = 0;
        let trace_reqs = (0..40 + rng.below(160) as u64)
            .map(|id| {
                if !rng.bernoulli(0.35) {
                    arrival_ns += rng.below(1_500) as u64;
                }
                Request {
                    id,
                    station: rng.below(stations),
                    payload: Payload::Features(vec![id as f32]),
                    arrival_ns,
                    deadline_ns: arrival_ns + 200 + rng.below(6_000) as u64,
                }
            })
            .collect();
        (specs, trace_reqs)
    }

    #[test]
    fn position_queue_loop_matches_the_cloning_oracle() {
        let mut seen = StationMetrics::default();
        for seed in 0..300 {
            let (specs, trace_reqs) = random_case(seed);
            let fast = Server::try_new(specs)
                .expect("a random case has stations")
                .try_run(&trace_reqs)
                .expect("a random case is valid");
            let oracle = Server::try_new(random_case(seed).0)
                .expect("a random case has stations")
                .run_loop_cloned(&trace_reqs);
            assert_eq!(fast.render(), oracle.render(), "seed {seed}");
            assert_eq!(fast.duration_ns, oracle.duration_ns, "seed {seed}");
            assert_eq!(fast.stations, oracle.stations, "seed {seed}");
            // Conservation: every request ends in exactly one terminal
            // state, and every trace id is answered exactly once.
            let mut answers = vec![0u32; trace_reqs.len()];
            for r in &fast.responses {
                answers[r.id as usize] += 1;
            }
            assert!(answers.iter().all(|&n| n == 1), "seed {seed}: answers per id {answers:?}");
            for m in &fast.stations {
                let ended = m.rejected + m.shed + m.completed + m.deadline_misses;
                assert_eq!(m.arrived, ended, "seed {seed}: {} leaks requests", m.name);
                seen.rejected += m.rejected;
                seen.shed += m.shed;
                seen.deadline_misses += m.deadline_misses;
                seen.fallback_switches += m.fallback_switches;
                seen.recoveries += m.recoveries;
            }
        }
        let hit = [
            seen.rejected,
            seen.shed,
            seen.deadline_misses,
            seen.fallback_switches,
            seen.recoveries,
        ];
        assert!(hit.iter().all(|&n| n > 0), "every path must run: {seen:?}");
    }
}
