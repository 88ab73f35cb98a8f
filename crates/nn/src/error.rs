//! Typed failures for the digital NN substrate.
//!
//! [`crate::mlp::SgdConfig::validate`] returns `Result<_, NnError>` so
//! out-of-range schedules are rejected before a training loop starts.

use std::error::Error;
use std::fmt;

/// Why an NN configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A configuration violated a structural constraint.
    InvalidConfig {
        /// Which constraint failed.
        reason: &'static str,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::InvalidConfig { reason } => write!(f, "invalid NN config: {reason}"),
        }
    }
}

impl Error for NnError {}

/// `Ok` when `ok` holds, else the configuration error naming `reason`.
pub(crate) fn check(ok: bool, reason: &'static str) -> Result<(), NnError> {
    ok.then_some(()).ok_or(NnError::InvalidConfig { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_constraint() {
        let e = NnError::InvalidConfig { reason: "epochs must be at least 1" };
        assert!(e.to_string().contains("epochs"), "{e}");
    }
}
