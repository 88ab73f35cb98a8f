//! X-MANN: a transposable-crossbar architecture for memory-augmented
//! neural networks — paper Sec. III, ref. \[7\].
//!
//! The differentiable memory of a MANN is its bottleneck: every soft read,
//! soft write and similarity scan touches all `M × D` stored elements.
//! X-MANN keeps the memory *inside* transposable crossbar tiles so those
//! kernels become one or two fixed-latency crossbar operations, with a
//! near-memory SFU handling softmax/divide and a global reduce unit
//! combining per-tile partials.
//!
//! This crate is a functional + analytical simulator of that architecture:
//!
//! * [`arch`] — the tile hierarchy executing exact math while charging
//!   event-accurate energy/latency.
//! * [`baseline`] — the GPU + DRAM implementation of the same kernels.
//! * [`cost`] — the cost vocabulary and technology constants.
//! * [`workloads`] — the MANN benchmark suite and comparison harness that
//!   regenerates the paper's speedup/energy table (experiment E6).
//!
//! # Example
//!
//! ```
//! use enw_xmann::workloads::{run_benchmark, MannBenchmark};
//! use enw_xmann::arch::XmannConfig;
//! use enw_xmann::cost::{GpuCostParams, XmannCostParams};
//! use enw_numerics::rng::Rng64;
//!
//! let mut rng = Rng64::new(0);
//! let bench = MannBenchmark { name: "demo", slots: 4096, dim: 64, queries: 2 };
//! let cmp = run_benchmark(
//!     &bench, XmannConfig::default(), XmannCostParams::default(),
//!     GpuCostParams::default(), &mut rng);
//! assert!(cmp.speedup() > 1.0);
//! ```

pub mod arch;
pub mod baseline;
pub mod cost;
pub mod workloads;

pub use arch::{OpResult, Xmann, XmannConfig};
pub use baseline::GpuMann;
pub use cost::{Cost, GpuCostParams, XmannCostParams};
pub use workloads::{benchmark_suite, run_benchmark, Comparison, MannBenchmark};
