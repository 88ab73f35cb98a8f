//! `enw-serve` — the unified multi-workload serving runtime.
//!
//! The paper's recommendation section (Sec. V) frames inference as a
//! latency-bounded *serving* problem: batch size trades throughput
//! against SLA, and operators respond differently depending on whether
//! they are compute- or memory-bound. This crate lifts that framing from
//! the recsys crate to **all four** paper workloads, fronting them with
//! one [`backend::Backend`] trait:
//!
//! * analog crossbar MLP inference (Sec. II) — [`backends::CrossbarBackend`]
//! * exact digital MLP inference (baseline / fallback) — [`backends::DigitalBackend`]
//! * TCAM few-shot lookup (Sec. III–IV) — [`backends::TcamBackend`]
//! * DLRM-style CTR prediction (Sec. V) — [`backends::RecsysBackend`]
//!
//! On top sits a deterministic micro-batching [`scheduler::Server`]:
//! bounded per-station queues with explicit rejection (backpressure),
//! size-or-timeout batch closing (the recsys lane's size limit comes
//! from the paper's `try_max_batch_under_sla` binary search), per-request
//! deadlines with timeout shedding, and a degradation ladder that steps
//! from the analog-noisy lane down to its digital fallback after
//! repeated deadline misses (and back after clean batches).
//!
//! # Determinism contract
//!
//! The whole runtime runs on a [`clock::VirtualClock`]; no library code
//! here may read `Instant`/`SystemTime` (denied by the workspace
//! `clippy.toml`). Service times come from analytic hardware models, batch
//! composition from fixed FIFO/size/timeout rules, numeric outputs from
//! per-request kernels run in batch order on the loop's own thread, and
//! load from a seeded generator — so one `(seed, spec)` pair names
//! exactly one response stream, byte-identical across runs, hosts, and
//! `ENW_THREADS` settings, including every p50/p95/p99 and shed-rate
//! figure.
//! `enw run E16` in `enw-bench` sweeps QPS levels through this
//! runtime and emits `BENCH_serving.json`.

pub mod backend;
pub mod backends;
pub mod clock;
pub mod error;
pub mod loadgen;
pub mod metrics;
pub mod policy;
pub mod presets;
pub mod request;
pub mod scheduler;

pub use backend::{Backend, ServiceModel};
pub use clock::VirtualClock;
pub use error::ServeError;
pub use loadgen::{
    generate_trace, generate_trace_shaped, LoadShape, LoadSpec, Poisson, TrafficClass,
};
pub use metrics::{LatencySummary, StationMetrics};
pub use policy::{BatchPolicy, DegradePolicy, StationSpec};
pub use request::{render_responses, Outcome, Output, Payload, Request, Response};
pub use scheduler::{RunReport, Server};
