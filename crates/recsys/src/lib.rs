//! Neural recommendation workloads — paper Sec. V.
//!
//! Recommendation models are the paper's example of an emerging workload
//! that no existing accelerator serves well: they mix *dense* MLP stacks
//! (compute-heavy, regular) with *sparse* categorical features resolved
//! through huge embedding tables (capacity- and bandwidth-heavy,
//! irregular). The same model skeleton (Fig. 6) can therefore be
//! compute-bound or memory-bound depending on configuration — the property
//! the characterization experiments (E12–E14) map out.
//!
//! # Modules
//!
//! * [`model`] — the DLRM-style model: embedding tables with multi-hot
//!   pooled lookups, bottom/top MLPs, concat or pairwise-dot interaction.
//! * [`trace`] — Zipf-skewed synthetic inference traces (the production-
//!   trace substitute; see DESIGN.md).
//! * [`characterize`] — per-operator FLOP/byte accounting and roofline
//!   classification.
//! * [`quantize`] — per-row reduced-precision embedding tables (up to 16×
//!   compression at 2 bits).
//! * [`cache`] — LRU embedding-cache simulation and DRAM-vs-cache energy.
//! * [`sequence`] — DIN-style attention over user interaction history
//!   (the paper's "RNNs and attention" emerging-model class).
//! * [`serving`] — latency-bounded serving: SLA-constrained batch sizing
//!   and the throughput/latency trade-off.
//! * [`training`] — distributed-training cost model: hybrid data/model
//!   parallelism, all-to-all embedding exchange, retraining-window math.
//!
//! # Example
//!
//! ```
//! use enw_recsys::model::{RecModel, RecModelConfig};
//! use enw_recsys::trace::TraceGenerator;
//! use enw_numerics::rng::Rng64;
//!
//! let mut rng = Rng64::new(0);
//! let mut cfg = RecModelConfig::compute_bound();
//! cfg.tables = vec![(1000, 2); 4]; // shrink for the example
//! let mut model = RecModel::new(&cfg, &mut rng);
//! let gen = TraceGenerator::new(&cfg, 1.0);
//! let q = gen.query(&mut rng);
//! let ctr = model.predict_query(&q);
//! assert!((0.0..=1.0).contains(&ctr));
//! ```

pub mod cache;
pub mod characterize;
pub mod error;
pub mod model;
pub mod quantize;
mod rows;
pub mod sequence;
pub mod serving;
pub mod trace;
pub mod training;

pub use cache::{CacheStats, EmbeddingCache, MemoryEnergy};
pub use characterize::{profile, Bound, ModelProfile, OpProfile, RooflineMachine};
pub use error::RecsysError;
pub use model::{EmbeddingTable, Interaction, RecModel, RecModelConfig};
pub use quantize::QuantizedTable;
pub use sequence::{InterestModel, InterestModelConfig};
pub use serving::{batch_latency, throughput, try_max_batch_under_sla, try_sla_throughput};
pub use trace::{SparseQuery, TraceGenerator};
pub use training::{retraining_time, step_breakdown, Cluster, StepBreakdown};
