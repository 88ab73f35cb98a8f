//! Content-addressable-memory hardware for MANNs — paper Sec. IV.
//!
//! A ternary CAM compares a query against *every* stored word in one
//! parallel operation, making it a natural home for the
//! similarity-search inner loop of a memory-augmented network: no
//! DRAM-to-GPU transfer, no per-entry arithmetic. This crate models the
//! hardware:
//!
//! * [`cells`] — cell technologies: conventional 16T CMOS vs. the 2-FeFET
//!   cell of ref. \[9\] (2.4× search energy, 1.1× latency, ~8× density).
//! * [`mod@array`] — the TCAM array: exact ternary matches (for BRGC range
//!   encodings) and nearest-Hamming searches by match-line discharge
//!   sensing, with per-search energy/latency accounting and a match-line
//!   segmentation knob.
//! * [`baseline`] — the GPU + DRAM cosine-search baseline and the
//!   comparison harness behind the paper's 24×-energy / 2582×-latency
//!   claim (experiment E9) and the FeFET deltas (E10).
//! * [`bank`] — banked organizations: many arrays searched concurrently
//!   behind a global priority stage, scaling capacity at flat latency.
//! * [`lsh_memory`] — a complete TCAM-backed key–value lifelong memory:
//!   LSH signatures in, class labels out, hardware cost per operation.
//!
//! Functional encodings (LSH, BRGC, ternary words) come from `enw-mann`;
//! this crate adds the hardware that executes them.
//!
//! # Example
//!
//! ```
//! use enw_cam::{array::{TcamArray, TcamConfig}, cells};
//! use enw_numerics::bits::BitVec;
//!
//! let mut cam = TcamArray::new(32, cells::fefet_2t(), TcamConfig::default());
//! cam.write(&BitVec::from_bools(&[true; 32]));
//! cam.write(&BitVec::from_bools(&[false; 32]));
//! let (hit, cost) = cam.search_nearest(&BitVec::from_bools(&[true; 32]));
//! assert_eq!(hit.expect("non-empty").index, 0);
//! assert!(cost.latency_ns < 5.0); // one parallel search
//! ```

pub mod array;
pub mod bank;
pub mod baseline;
pub mod cells;
pub mod lsh_memory;

pub use array::{NearestHit, TcamArray, TcamConfig};
pub use bank::TcamBank;
pub use baseline::{compare_search, gpu_search_cost, SearchComparison};
pub use cells::CellTech;
pub use lsh_memory::TcamKeyValueMemory;
