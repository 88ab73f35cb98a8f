//! The six workloads. Each builds its read-only inputs from a seed
//! (set-up), then runs identical reps over them; whatever a run consumes
//! or mutates is rebuilt inside the rep, because a user pays for that on
//! every run.

mod analog_train;
mod fleet_diurnal;
mod recsys_embed;
mod serve_node;
mod tcam_fewshot;
mod xmann_memory;

use crate::defs::LayerValues;
use crate::spans::Spans;
use crate::stats::median;
use enw_core::trace::{SpanEntry, TraceReport};
use std::time::{Duration, Instant};

/// Workload names, in the order `run all` executes them.
pub const NAMES: [&str; 6] =
    ["analog_train", "xmann_memory", "tcam_fewshot", "recsys_embed", "serve_node", "fleet_diurnal"];

/// Problem size: the frozen benchmark size (one rep ≈ 1.0–1.5 s on the
/// 2-core reference host), or a miniature of the same shape for the unit
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Mini,
}

impl Size {
    /// `full` at the benchmark size, `mini` in the unit tests.
    pub fn pick<T>(self, full: T, mini: T) -> T {
        match self {
            Size::Full => full,
            Size::Mini => mini,
        }
    }

    /// Median nanoseconds per call of `f` over [`PROBE_SAMPLES`] samples,
    /// each the mean of `inner` back-to-back calls after one warm-up
    /// call. (The miniature takes two samples of one call.)
    fn probe_ns(self, inner: usize, mut f: impl FnMut()) -> f64 {
        let (samples, inner) = self.pick((PROBE_SAMPLES, inner), (2, 1));
        f();
        let samples: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..inner {
                    f();
                }
                t.elapsed().as_nanos() as f64 / inner as f64
            })
            .collect();
        median(&samples)
    }
}

/// What one rep did.
pub struct Rep {
    /// Host time of the rep's work; the digest is computed after it.
    pub work: Duration,
    pub ops: u64,
    /// Ops whose library call failed or whose output was out of range.
    pub failed: u64,
    /// Time the *modelled hardware* takes for the rep's work.
    pub sim_ns: f64,
    /// Fraction of ops with a good modelled outcome. Workloads whose
    /// reference is too costly to recompute in every rep (`xmann_memory`,
    /// `recsys_embed`) fill it only when `check` is set.
    pub quality: f64,
    /// FNV-1a over the canonical bytes of the rep's model outputs.
    pub digest: u64,
}

/// What the traced pass hands a workload to derive its layer metrics.
pub struct LayerCtx<'a> {
    /// Spans of the traced reps.
    pub spans: &'a Spans,
    pub traced_reps: usize,
    /// Counts the libraries' own `enw_core::trace` recorder kept over one
    /// rep in `Summary` mode.
    pub harvest: &'a TraceReport,
    /// Median untraced rep time.
    pub rep_s: f64,
}

impl LayerCtx<'_> {
    /// What the libraries booked under their trace span `name` (zeros if
    /// the rep never entered it).
    pub fn harvested(&self, name: &str) -> SpanEntry {
        self.harvest.spans.iter().find(|s| s.name == name).copied().unwrap_or_default()
    }
}

pub trait Workload {
    /// One rep. `check` adds the reference computations that
    /// `sim_quality` needs where they are too slow for the timed phase.
    fn rep(&mut self, spans: &mut Spans, check: bool) -> Rep;

    /// Layer probes and span-derived metrics of the traced pass.
    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut LayerValues);
}

/// Builds the named workload's read-only inputs from `seed`.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "analog_train" => Box::new(analog_train::AnalogTrain::build(seed, size)),
        "xmann_memory" => Box::new(xmann_memory::XmannMemory::build(seed, size)),
        "tcam_fewshot" => Box::new(tcam_fewshot::TcamFewshot::build(seed, size)),
        "recsys_embed" => Box::new(recsys_embed::RecsysEmbed::build(seed, size)),
        "serve_node" => Box::new(serve_node::ServeNode::build(seed, size)),
        "fleet_diurnal" => Box::new(fleet_diurnal::FleetDiurnal::build(seed, size)),
        _ => return None,
    })
}

/// Samples per layer probe: under 100, so a probe reports a median and
/// no tail.
const PROBE_SAMPLES: usize = 31;

/// Seconds `f` takes, once.
fn seconds<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
