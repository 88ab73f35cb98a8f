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
//! * [`kv_memory`] — the key–value lifelong memory module with age-based
//!   replacement used by one-shot learners.
//! * [`embedding`] — background-trained feature embeddings (the CNN stand-
//!   in that generates memory keys).
//! * [`lsh`] — random-hyperplane locality-sensitive hashing to binary
//!   signatures.
//! * [`encoding`] — binary-reflected Gray-code range encodings and ternary
//!   words (the RENE machinery).
//! * [`fewshot`] — the N-way K-shot evaluation harness comparing exact,
//!   quantized, range-encoded and LSH searches.
//!
//! # Example: one-shot learning with a key–value memory
//!
//! ```
//! use enw_mann::kv_memory::KeyValueMemory;
//! use enw_mann::memory::Similarity;
//!
//! let mut mem = KeyValueMemory::new(16, 4, Similarity::Cosine);
//! mem.update(&[1.0, 0.0, 0.0, 0.0], 0); // one example of class 0
//! mem.update(&[0.0, 1.0, 0.0, 0.0], 1); // one example of class 1
//! let hit = mem.retrieve(&[0.9, 0.2, 0.0, 0.0]).expect("non-empty");
//! assert_eq!(hit.value, 0);
//! ```

pub mod embedding;
pub mod encoding;
pub mod error;
pub mod fewshot;
pub mod kv_memory;
pub mod lsh;
pub mod memory;

pub use embedding::{
    ConvEmbeddingNet, Embedder, EmbeddingConfig, EmbeddingConfigBuilder, EmbeddingNet,
};
pub use error::MannError;
pub use fewshot::{FewShotOutcome, SearchMethod};
pub use kv_memory::KeyValueMemory;
pub use memory::{DifferentiableMemory, Similarity};
