//! Dense numerical kernels shared by every simulator in the
//! `emerging-neural-workloads` workspace.
//!
//! The crate deliberately implements its own small linear-algebra and
//! random-number layer instead of binding to an external BLAS or the `rand`
//! ecosystem: every experiment in the workspace must be bit-reproducible
//! from a seed, and the hardware simulators charge energy/latency per
//! arithmetic event, so the kernels must be simple, inspectable Rust.
//!
//! # Modules
//!
//! * [`rng`] — deterministic xoshiro256** generator with normal/Bernoulli
//!   sampling and shuffling.
//! * [`matrix`] — row-major [`matrix::Matrix`] with the handful of
//!   dense kernels neural workloads need (matmul, matvec, transposed matvec,
//!   rank-1 update).
//! * [`packed`] — [`packed::PackedMatvec`], the read-only k-major `Wᵀ`
//!   image of a matrix for weights that are programmed once and read for
//!   the rest of a run, with its outputs-abreast and inputs-abreast reads.
//! * [`scan`] — one reduction per matrix row, several rows abreast: the
//!   driver under `matvec` and the all-rows similarity/distance scans of
//!   the MANN memories, and the rule that keeps them bit-identical to
//!   the one-row loops.
//! * [`vector`] — slice-level vector math: dot products, norms, softmax,
//!   cosine similarity, distance metrics.
//! * [`quant`] — symmetric fixed-point quantization with optional stochastic
//!   rounding, as used for reduced-precision inference and TCAM encodings.
//! * [`error`] — [`error::ConfigError`] and [`error::check`], the one
//!   rejection every simulator crate's config `validate` returns.
//! * [`bits`] — packed bit vectors with fast Hamming distance (the native
//!   metric of content-addressable memories).
//! * [`stats`] — streaming statistics (Welford) and percentile helpers used
//!   by the characterization harnesses.
//!
//! # Example
//!
//! ```
//! use enw_numerics::matrix::Matrix;
//! use enw_numerics::rng::Rng64;
//!
//! let mut rng = Rng64::new(42);
//! let w = Matrix::random_uniform(4, 3, -1.0, 1.0, &mut rng);
//! let x = [1.0, 0.5, -0.25];
//! let mut y = [0.0; 4];
//! w.matvec_into(&x, &mut y);
//! assert!(y.iter().all(|v| v.is_finite()));
//! ```

pub mod bits;
pub mod error;
pub mod matrix;
pub mod packed;
pub mod quant;
pub mod rng;
pub mod scan;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use rng::Rng64;
