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
//! Station lifecycle per batch:
//!
//! 1. **Admit** — arrivals enter the station queue or are `Rejected`
//!    when it is full (backpressure).
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
//! The loop publishes the `enw-trace` virtual clock as it advances and
//! records `serve/*` spans — queue wait, batch close, backend execute,
//! shed and reject — plus latency/batch-size histograms, all keyed on
//! virtual time and therefore bit-identical across runs and thread
//! counts. Run with `ENW_TRACE=summary` to see the breakdown.

use crate::backend::Backend;
use crate::clock::VirtualClock;
use crate::error::ServeError;
use crate::metrics::StationMetrics;
use crate::policy::{BatchPolicy, DegradePolicy, StationSpec};
use crate::queue::BoundedQueue;
use crate::request::{render_responses, Outcome, Output, Payload, Request, Response};
use enw_numerics::rng::Rng64;
use enw_trace as trace;

struct Station {
    backend: Box<dyn Backend>,
    fallback: Option<Box<dyn Backend>>,
    ladder: Option<DegradePolicy>,
    policy: BatchPolicy,
    queue: BoundedQueue,
    busy_until: Option<u64>,
    pending: Vec<(Request, Output)>,
    // Per-station arena: batch close and serve refill these warm buffers
    // in place, so the steady-state event loop performs no per-request
    // heap allocation (each grows once to `max_batch` and stays).
    batch_buf: Vec<Request>,
    outputs_buf: Vec<Output>,
    on_fallback: bool,
    miss_streak: u32,
    clean_streak: u32,
    metrics: StationMetrics,
}

impl Station {
    fn new(spec: StationSpec) -> Self {
        let metrics = StationMetrics::new(spec.primary.name());
        let (fallback, ladder) = match spec.degrade {
            Some((f, l)) => (Some(f), Some(l)),
            None => (None, None),
        };
        Station {
            queue: BoundedQueue::new(spec.policy.queue_cap),
            backend: spec.primary,
            fallback,
            ladder,
            policy: spec.policy,
            busy_until: None,
            pending: Vec::new(),
            batch_buf: Vec::new(),
            outputs_buf: Vec::new(),
            on_fallback: false,
            miss_streak: 0,
            clean_streak: 0,
            metrics,
        }
    }

    /// Earliest future instant at which this station, left alone, must
    /// act: batch completion when busy, else the oldest request's
    /// wait-timeout expiry.
    fn next_event_ns(&self) -> Option<u64> {
        if let Some(b) = self.busy_until {
            return Some(b);
        }
        self.queue.oldest_arrival_ns().map(|oldest| oldest.saturating_add(self.policy.max_wait_ns))
    }

    /// True when an idle station should close a batch now.
    fn can_close(&self, now_ns: u64) -> bool {
        if self.busy_until.is_some() || self.queue.is_empty() {
            return false;
        }
        if self.queue.len() >= self.policy.max_batch {
            return true;
        }
        self.queue
            .oldest_arrival_ns()
            .is_some_and(|oldest| now_ns >= oldest.saturating_add(self.policy.max_wait_ns))
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

/// The multi-workload serving runtime.
pub struct Server {
    stations: Vec<Station>,
    clock: VirtualClock,
}

impl Server {
    /// Builds a server from station specs; station indices follow the
    /// order given here. Fails with [`ServeError::NoStations`] on an
    /// empty spec list.
    pub fn try_new(specs: Vec<StationSpec>) -> Result<Self, ServeError> {
        if specs.is_empty() {
            return Err(ServeError::NoStations);
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
        self.stations[i].backend.name()
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
        self.stations[i].backend.make_payload(rng)
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
        let ns = st.backend.service_ns(b).max(1);
        b as f64 / (ns as f64 / 1e9)
    }

    /// Runs the whole trace to completion and reports. Fails without
    /// serving anything if the trace is unsorted or names an unknown
    /// station. Each admitted request is cloned out of the borrowed
    /// trace.
    pub fn try_run(self, trace_reqs: &[Request]) -> Result<RunReport, ServeError> {
        self.validate(trace_reqs)?;
        Ok(self.run_loop(trace_reqs))
    }

    fn validate(&self, trace_reqs: &[Request]) -> Result<(), ServeError> {
        for (i, w) in trace_reqs.windows(2).enumerate() {
            if w[0].arrival_ns > w[1].arrival_ns {
                return Err(ServeError::UnsortedTrace { position: i + 1 });
            }
        }
        for r in trace_reqs {
            if r.station >= self.stations.len() {
                return Err(ServeError::UnknownStation {
                    request_id: r.id,
                    station: r.station,
                    stations: self.stations.len(),
                });
            }
        }
        Ok(())
    }

    fn run_loop(mut self, trace_reqs: &[Request]) -> RunReport {
        let mut reqs = trace_reqs.iter().peekable();
        let mut responses: Vec<Response> = Vec::with_capacity(trace_reqs.len());
        loop {
            let mut t_next: Option<u64> = reqs.peek().map(|r| r.arrival_ns);
            for st in &self.stations {
                if let Some(cand) = st.next_event_ns() {
                    t_next = Some(t_next.map_or(cand, |t| t.min(cand)));
                }
            }
            let Some(t) = t_next else { break };
            self.clock.advance_to(t);
            // Publish virtual time so serve/* spans measure virtual-time
            // deltas, not host time.
            trace::set_virtual_ns(t);
            // 1. Completions due now free their stations.
            for i in 0..self.stations.len() {
                if self.stations[i].busy_until == Some(t) {
                    self.complete_batch(i, t, &mut responses);
                }
            }
            // 2. All arrivals at this instant are admitted (trace order).
            while let Some(r) = reqs.next_if(|r| r.arrival_ns == t) {
                self.admit(r.clone(), t, &mut responses);
            }
            // 3. Idle stations close every batch that is now due; a close
            // may shed the entire batch and leave the station idle with a
            // still-closable queue, hence the fixpoint loop.
            loop {
                let mut progressed = false;
                for i in 0..self.stations.len() {
                    if self.stations[i].can_close(t) {
                        self.close_batch(i, t, &mut responses);
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

    fn admit(&mut self, req: Request, now_ns: u64, responses: &mut Vec<Response>) {
        let station = &mut self.stations[req.station];
        station.metrics.arrived += 1;
        trace::counter_add("serve.arrived", 1);
        let (id, sid, arrival) = (req.id, req.station, req.arrival_ns);
        if station.queue.try_offer(req).is_err() {
            station.metrics.rejected += 1;
            trace::record_span("serve/reject", 1);
            responses.push(Response {
                id,
                station: sid,
                outcome: Outcome::Rejected,
                output: None,
                arrival_ns: arrival,
                finish_ns: now_ns,
            });
        }
    }

    fn close_batch(&mut self, i: usize, now_ns: u64, responses: &mut Vec<Response>) {
        let close_span = trace::span("serve/batch_close");
        let station = &mut self.stations[i];
        // Refill the station's warm batch buffer in place — the only
        // allocations in a steady-state close are whatever the backend's
        // outputs themselves need.
        let mut batch = std::mem::take(&mut station.batch_buf);
        station.queue.take_into(station.policy.max_batch, &mut batch);
        close_span.add_work(batch.len() as u64);
        batch.retain(|req| {
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
                return false;
            }
            true
        });
        if batch.is_empty() {
            station.batch_buf = batch;
            return;
        }
        let on_fallback = station.on_fallback && station.fallback.is_some();
        let backend = match (&mut station.fallback, on_fallback) {
            (Some(f), true) => f.as_mut(),
            _ => station.backend.as_mut(),
        };
        let mut outputs = std::mem::take(&mut station.outputs_buf);
        backend.serve_into(&batch, &mut outputs);
        assert!(
            outputs.len() == batch.len(),
            "backend {} returned {} outputs for a batch of {}",
            backend.name(),
            outputs.len(),
            batch.len()
        );
        let service = backend.service_ns(batch.len()).max(1);
        // Work = modeled service nanoseconds: deterministic, and exactly
        // the currency exp17's stage-share breakdown wants.
        trace::record_span("serve/backend_execute", service);
        trace::record_value("serve.batch_size", batch.len() as u64);
        station.busy_until = Some(now_ns.saturating_add(service));
        station.metrics.batches += 1;
        if on_fallback {
            station.metrics.degraded_batches += 1;
        }
        station.pending.clear();
        station.pending.extend(batch.drain(..).zip(outputs.drain(..)));
        station.batch_buf = batch;
        station.outputs_buf = outputs;
    }

    fn complete_batch(&mut self, i: usize, now_ns: u64, responses: &mut Vec<Response>) {
        let station = &mut self.stations[i];
        station.busy_until = None;
        let Station { pending, metrics, .. } = station;
        let mut any_miss = false;
        for (req, out) in pending.drain(..) {
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
        let Some(ladder) = station.ladder else { return };
        if !station.on_fallback {
            if any_miss {
                station.miss_streak += 1;
                if station.miss_streak >= ladder.miss_streak && station.fallback.is_some() {
                    station.on_fallback = true;
                    station.metrics.fallback_switches += 1;
                    station.clean_streak = 0;
                }
            } else {
                station.miss_streak = 0;
            }
        } else if any_miss {
            station.clean_streak = 0;
        } else {
            station.clean_streak += 1;
            if ladder.recover_streak > 0 && station.clean_streak >= ladder.recover_streak {
                station.on_fallback = false;
                station.metrics.recoveries += 1;
                station.miss_streak = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ServiceModel;

    /// Toy lane: echoes a constant so tests can tell which backend
    /// served a request.
    struct Toy {
        name: String,
        model: ServiceModel,
        echo: f32,
    }

    impl Toy {
        fn boxed(name: &str, service_ns: u64, echo: f32) -> Box<dyn Backend> {
            Box::new(Toy {
                name: name.to_string(),
                model: ServiceModel { setup_ns: service_ns, per_item_ns: 0 },
                echo,
            })
        }
    }

    impl Backend for Toy {
        fn name(&self) -> &str {
            &self.name
        }
        fn service_ns(&self, batch: usize) -> u64 {
            self.model.ns(batch)
        }
        fn serve_into(&mut self, batch: &[Request], out: &mut Vec<Output>) {
            out.clear();
            out.extend(batch.iter().map(|_| Output::Scores(vec![self.echo])));
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
        Server::try_new(vec![spec]).and_then(|s| s.try_run(trace_reqs)).expect("valid test fixture")
    }

    #[test]
    fn batch_closes_when_full() {
        let spec =
            StationSpec::simple(Toy::boxed("t", 100, 1.0), BatchPolicy::new(2, 1_000_000, 8));
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
        let spec = StationSpec::simple(Toy::boxed("t", 100, 1.0), BatchPolicy::new(8, 500, 16));
        let report = run_one(spec, &[req(0, 10, u64::MAX)]);
        // Lone request waits max_wait = 500, closes at 510, done at 610.
        assert_eq!(report.responses[0].finish_ns, 610);
        assert_eq!(report.responses[0].latency_ns(), 600);
    }

    #[test]
    fn full_queue_rejects() {
        // Service is long, so request 0 occupies the lane while 1 waits
        // in the single queue slot and 2 bounces off.
        let spec = StationSpec::simple(Toy::boxed("t", 10_000, 1.0), BatchPolicy::new(1, 0, 1));
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
    fn expired_requests_are_shed_at_close() {
        // Request 1 queues behind a 10 µs batch and its 2 µs deadline
        // passes before the lane frees up: shed, never served.
        let spec = StationSpec::simple(Toy::boxed("t", 10_000, 1.0), BatchPolicy::new(1, 0, 4));
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
            BatchPolicy::new(1, 0, 4),
            Toy::boxed("digital", 10, 2.0),
            DegradePolicy::new(2, 2),
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
        let mk = || StationSpec::simple(Toy::boxed("t", 777, 0.5), BatchPolicy::new(3, 1_500, 6));
        let trace: Vec<Request> = (0..40).map(|k| req(k, k * 400, k * 400 + 5_000)).collect();
        let a = run_one(mk(), &trace);
        let b = run_one(mk(), &trace);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.duration_ns, b.duration_ns);
        assert_eq!(a.stations[0].latencies, b.stations[0].latencies);
    }

    #[test]
    fn unsorted_traces_are_rejected() {
        let spec = StationSpec::simple(Toy::boxed("t", 1, 0.0), BatchPolicy::new(1, 0, 1));
        let server = Server::try_new(vec![spec]).expect("one station");
        let err = server.try_run(&[req(0, 10, 20), req(1, 5, 20)]);
        assert_eq!(err.err(), Some(ServeError::UnsortedTrace { position: 1 }));
    }

    #[test]
    fn unknown_stations_are_rejected() {
        let spec = StationSpec::simple(Toy::boxed("t", 1, 0.0), BatchPolicy::new(1, 0, 1));
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
        assert_eq!(Server::try_new(Vec::new()).err(), Some(ServeError::NoStations));
    }
}
