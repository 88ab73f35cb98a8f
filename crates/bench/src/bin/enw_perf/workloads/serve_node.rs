//! `serve_node` — the single-node event loop plus backend inference:
//! the four-lane preset server (analog crossbar with digital fallback,
//! digital MLP, TCAM, recsys) below the knee and in overload. It reads
//! the crossbar without updating it, the opposite use from
//! `analog_train`.
//!
//! The simulated traffic is the repo's own open-loop Poisson arrival
//! process on the virtual clock, generated in set-up; the server
//! receives only the generated trace.

use super::{seconds, LayerCtx, Rep, Size, Workload};
use crate::defs::LayerValues;
use crate::spans::Spans;
use crate::stats::Fnv;
use enw_core::cam::array::TcamConfig;
use enw_core::cam::cells;
use enw_core::crossbar::devices::pcm::PcmConfig;
use enw_core::nn::activation::Activation;
use enw_core::nn::mlp::Mlp;
use enw_core::numerics::rng::Rng64;
use enw_core::recsys::characterize::RooflineMachine;
use enw_core::serve::backends::{
    ideal_layers, CrossbarBackend, DigitalBackend, RecsysBackend, TcamBackend, TcamGeometry,
};
use enw_core::serve::presets::{recsys_config, saturation_qps, traffic_classes, try_fleet};
use enw_core::serve::{generate_trace, Backend, LoadSpec, Request, RunReport, StationMetrics};
use enw_core::trace::{self, Histogram, TraceMode};
use std::hint::black_box;

/// Span names of the two runs of a rep, in trace order.
const RUN_SPANS: [&str; 2] = ["serve.try_run", "serve.try_run_overload"];

pub struct ServeNode {
    size: Size,
    seed: u64,
    /// Below the knee (0.9 × saturation), then overload (2.5 ×).
    traces: [Vec<Request>; 2],
    tracegen_req_per_s: f64,
    /// Per-lane batch sizes of the preset server.
    max_batch: Vec<usize>,
    /// Per-lane counters of the last rep, summed over both runs.
    lanes: Vec<StationMetrics>,
    sim_p99_ns: u64,
}

impl ServeNode {
    pub fn build(seed: u64, size: Size) -> Self {
        let server = try_fleet(seed).expect("the preset server is valid");
        let classes = traffic_classes();
        let sat = saturation_qps(&server, &classes);
        let (below_ns, over_ns) = size.pick((2_000_000_000, 1_000_000_000), (4_000_000, 2_000_000));
        let specs = [
            LoadSpec { qps: 0.9 * sat, duration_ns: below_ns, seed },
            LoadSpec { qps: 2.5 * sat, duration_ns: over_ns, seed: seed ^ 0x9e37_79b9 },
        ];
        let (traces, gen_s) =
            seconds(|| specs.map(|spec| generate_trace(&server, &spec, &classes)));
        let arrivals: usize = traces.iter().map(Vec::len).sum();
        ServeNode {
            size,
            seed,
            traces,
            tracegen_req_per_s: arrivals as f64 / gen_s,
            max_batch: (0..server.station_count()).map(|i| server.policy(i).max_batch).collect(),
            lanes: Vec::new(),
            sim_p99_ns: 0,
        }
    }
}

/// Folds `b` into the running per-lane totals `a`.
fn add_lane(a: &mut StationMetrics, b: &StationMetrics) {
    a.arrived += b.arrived;
    a.rejected += b.rejected;
    a.shed += b.shed;
    a.completed += b.completed;
    a.deadline_misses += b.deadline_misses;
    a.fallback_switches += b.fallback_switches;
    a.latencies.merge(&b.latencies);
}

impl Workload for ServeNode {
    fn rep(&mut self, spans: &mut Spans, _check: bool) -> Rep {
        let ops: u64 = self.traces.iter().map(|t| t.len() as u64).sum();
        let mut reports: Vec<RunReport> = Vec::with_capacity(2);
        let root = spans.open("rep");
        for (trace, run_span) in self.traces.iter().zip(RUN_SPANS) {
            let server = spans.time("serve.construct", || try_fleet(self.seed));
            let report = server.and_then(|s| spans.time(run_span, || s.try_run(trace)));
            reports.extend(report);
        }
        let work = spans.close(root);

        let mut digest = Fnv::new();
        let mut lanes: Vec<StationMetrics> = Vec::new();
        let (mut sim_ns, mut failed, mut on_time, mut all) = (0u64, 0u64, 0u64, Histogram::new());
        for report in &reports {
            digest.bytes(report.render().as_bytes());
            digest.u64(report.duration_ns);
            sim_ns += report.duration_ns;
            lanes.resize_with(report.stations.len(), StationMetrics::default);
            for (total, lane) in lanes.iter_mut().zip(&report.stations) {
                // Every request ends in exactly one terminal state.
                let ended = lane.completed + lane.deadline_misses + lane.shed + lane.rejected;
                failed += lane.arrived.abs_diff(ended);
                on_time += lane.completed;
                all.merge(&lane.latencies);
                add_lane(total, lane);
            }
        }
        // A run that returned `Err` served nothing.
        let arrived: u64 = lanes.iter().map(|l| l.arrived).sum();
        failed += ops - arrived.min(ops);
        self.sim_p99_ns = if all.is_empty() { 0 } else { all.percentile(99.0) };
        self.lanes = lanes;
        Rep {
            work,
            ops,
            failed,
            sim_ns: sim_ns as f64,
            quality: on_time as f64 / ops as f64,
            digest: digest.0,
        }
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut LayerValues) {
        let reps = ctx.traced_reps as f64;
        let total = |f: fn(&StationMetrics) -> u64| self.lanes.iter().map(f).sum::<u64>() as f64;
        out.set("serve.arrived", total(|l| l.arrived));
        out.set("serve.completed", total(|l| l.completed));
        out.set("serve.deadline_misses", total(|l| l.deadline_misses));
        out.set("serve.shed", total(|l| l.shed));
        out.set("serve.rejected", total(|l| l.rejected));
        out.set("serve.fallback_switches", total(|l| l.fallback_switches));
        out.set("serve.sim_p99_us", self.sim_p99_ns as f64 / 1e3);
        out.set("serve.tracegen_req_per_s", self.tracegen_req_per_s);
        out.set("serve.construct_s", ctx.spans.busy_s("serve.construct") / reps);
        let run_s: Vec<f64> = RUN_SPANS.iter().map(|s| ctx.spans.busy_s(s) / reps).collect();
        out.set("serve.events_per_s", self.traces[0].len() as f64 / run_s[0]);
        out.set("serve.events_per_s_overload", self.traces[1].len() as f64 / run_s[1]);

        // The four backends alone, built as `serve::presets::try_fleet`
        // builds them, each serving full batches of its lane's size.
        let mut rng = Rng64::new(self.seed);
        let dims = [16, 32, 10];
        let ideal = ideal_layers(&dims, &mut rng);
        let support: Vec<(Vec<f32>, usize)> = (0..40)
            .map(|k| {
                let mut v: Vec<f32> = (0..16).map(|_| rng.range(-0.2, 0.2) as f32).collect();
                v[k % 10] = 1.0;
                (v, k % 10)
            })
            .collect();
        let mut backends: [(&str, Box<dyn Backend>); 4] = [
            (
                "crossbar",
                Box::new(CrossbarBackend::program(
                    "crossbar",
                    &ideal,
                    PcmConfig::projected(),
                    1e6,
                    CrossbarBackend::DEFAULT_MODEL,
                    &mut rng,
                )),
            ),
            (
                "digital",
                Box::new(DigitalBackend::from_layers(
                    "digital",
                    ideal.clone(),
                    DigitalBackend::DEFAULT_MODEL,
                )),
            ),
            (
                "tcam",
                Box::new(TcamBackend::new(
                    "tcam",
                    TcamGeometry { capacity: 80, dim: 16, planes: 64 },
                    cells::cmos_16t(),
                    TcamConfig::default(),
                    &support,
                    &mut rng,
                )),
            ),
            (
                "recsys",
                Box::new(RecsysBackend::new(
                    "recsys",
                    &recsys_config(),
                    1.0,
                    RooflineMachine::server_cpu(),
                    &mut rng,
                )),
            ),
        ];
        let mut backend_s = 0.0;
        for (station, (name, backend)) in backends.iter_mut().enumerate() {
            let batch: Vec<Request> = (0..self.max_batch[station] as u64)
                .map(|id| Request {
                    id,
                    station,
                    payload: backend.make_payload(&mut rng),
                    arrival_ns: 0,
                    deadline_ns: u64::MAX,
                })
                .collect();
            let mut outputs = Vec::with_capacity(batch.len());
            let per_item = self.size.probe_ns(64, || backend.serve_into(&batch, &mut outputs))
                / batch.len() as f64;
            out.set(&format!("serve.backend.{name}.ns_per_item"), per_item);
            let served = self.lanes[station].completed + self.lanes[station].deadline_misses;
            backend_s += per_item * served as f64 / 1e9;
        }
        // Computed: the share of the two runs that is not backend work.
        out.set("serve.loop_overhead_frac", 1.0 - backend_s / run_s.iter().sum::<f64>());

        let mut mlp = Mlp::digital(&dims, Activation::Relu, &mut rng);
        let x: Vec<f32> = (0..dims[0]).map(|_| rng.range(-1.0, 1.0) as f32).collect();
        let mut y = vec![0.0f32; dims[2]];
        out.set("nn.mlp_predict.ns", self.size.probe_ns(1024, || mlp.predict_into(&x, &mut y)));

        let report =
            try_fleet(self.seed).and_then(|s| s.try_run(&self.traces[1])).expect("the rep ran it");
        let rendered_mb = report.render().len() as f64 / 1e6;
        out.set(
            "serve.render_mbs",
            rendered_mb / (self.size.probe_ns(1, || drop(black_box(report.render()))) / 1e9),
        );

        // What the libraries' own recorder costs where it sits on both
        // event loops: a span with the recorder off, one in `Summary`
        // mode, and one histogram record.
        out.set(
            "trace.off_span.ns",
            self.size.probe_ns(4096, || drop(trace::span("enw_perf/probe"))),
        );
        trace::set_mode(TraceMode::Summary);
        out.set(
            "trace.summary_span.ns",
            self.size.probe_ns(4096, || drop(trace::span("enw_perf/probe"))),
        );
        trace::set_mode(TraceMode::Off);
        trace::reset();
        let mut hist = Histogram::new();
        let mut v = 1u64;
        let record = || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            hist.record(v >> 40);
        };
        out.set("trace.hist_record.ns", self.size.probe_ns(4096, record));
    }
}
