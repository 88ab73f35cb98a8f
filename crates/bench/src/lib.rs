//! Shared helpers for the `enw` experiment runner (`src/bin/enw/`) and
//! the workspace-level integration tests.
//!
//! Each module under `src/bin/enw/` regenerates one table or figure of
//! the paper:
//!
//! ```text
//! cargo run --release --bin enw -- list
//! cargo run --release --bin enw -- run E9 E10
//! ```

pub mod alloc_audit;
