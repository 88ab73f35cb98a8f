//! Typed failures for the X-MANN architecture models.
//!
//! [`crate::arch::XmannConfig::validate`] returns `Result<_, XmannError>`
//! so candidate bank shapes can be rejected without panicking — the
//! contract the DSE engine's `Tunable::decode` relies on.

use std::error::Error;
use std::fmt;

/// Why an X-MANN configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XmannError {
    /// A configuration violated a structural constraint.
    InvalidConfig {
        /// Which constraint failed.
        reason: &'static str,
    },
}

impl fmt::Display for XmannError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmannError::InvalidConfig { reason } => {
                write!(f, "invalid X-MANN config: {reason}")
            }
        }
    }
}

impl Error for XmannError {}

/// `Ok` when `ok` holds, else the configuration error naming `reason`.
pub(crate) fn check(ok: bool, reason: &'static str) -> Result<(), XmannError> {
    ok.then_some(()).ok_or(XmannError::InvalidConfig { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_constraint() {
        let e = XmannError::InvalidConfig { reason: "tile_rows must be at least 1" };
        assert!(e.to_string().contains("tile_rows"), "{e}");
    }
}
