//! Typed failures for the MANN model-side crate.
//!
//! [`crate::embedding::EmbeddingConfig::validate`] returns
//! `Result<_, MannError>` so degenerate setups are rejected before any
//! episode runs.

use std::error::Error;
use std::fmt;

/// Why a MANN configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MannError {
    /// A configuration violated a structural constraint.
    InvalidConfig {
        /// Which constraint failed.
        reason: &'static str,
    },
}

impl fmt::Display for MannError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MannError::InvalidConfig { reason } => write!(f, "invalid MANN config: {reason}"),
        }
    }
}

impl Error for MannError {}

/// `Ok` when `ok` holds, else the configuration error naming `reason`.
pub(crate) fn check(ok: bool, reason: &'static str) -> Result<(), MannError> {
    ok.then_some(()).ok_or(MannError::InvalidConfig { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_constraint() {
        let e = MannError::InvalidConfig { reason: "embed_dim must be non-zero" };
        assert!(e.to_string().contains("embed_dim"), "{e}");
    }
}
