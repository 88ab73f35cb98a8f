//! Memory-augmented neural networks — the models of paper Sec. III–IV.
//!
//! MANNs pair a controller network with an external *differentiable
//! memory* addressed by content. This crate implements the model side of
//! the paper's MANN discussion; the hardware sides live in `enw-xmann`
//! (crossbar acceleration) and `enw-cam` (TCAM acceleration), both of
//! which consume the functional kernels defined here.
//!
//! # Modules
//!
//! * [`memory`] — the soft-read/soft-write attentional memory and the
//!   similarity metrics (cosine vs. the CAM-friendly L1/L2/L∞ family).
//! * [`embedding`] — background-trained feature embeddings (the CNN stand-
//!   in that generates memory keys).
//! * [`lsh`] — random-hyperplane locality-sensitive hashing to binary
//!   signatures.
//! * [`encoding`] — binary-reflected Gray-code range encodings and ternary
//!   words (the RENE machinery).
//! * [`fewshot`] — the N-way K-shot evaluation harness comparing exact,
//!   quantized, range-encoded and LSH searches.
//!
//! # Example: one-shot recall by content addressing
//!
//! ```
//! use enw_mann::memory::{DifferentiableMemory, Similarity};
//!
//! let mut mem = DifferentiableMemory::new(2, 4);
//! mem.write_slot(0, &[1.0, 0.0, 0.0, 0.0]); // one example of class 0
//! mem.write_slot(1, &[0.0, 1.0, 0.0, 0.0]); // one example of class 1
//! let mut w = [0.0; 2];
//! mem.content_address_into(&[0.9, 0.2, 0.0, 0.0], Similarity::Cosine, 10.0, &mut w);
//! assert!(w[0] > w[1]); // the query recalls class 0
//! ```

pub mod embedding;
pub mod encoding;
pub mod fewshot;
pub mod lsh;
pub mod memory;

pub use embedding::{ConvEmbeddingNet, Embedder, EmbeddingConfig, EmbeddingNet};
pub use fewshot::{FewShotOutcome, SearchMethod};
pub use memory::{DifferentiableMemory, Similarity};
