//! Typed failures for the TCAM hardware models.
//!
//! [`crate::array::TcamConfig::validate`] returns `Result<_, CamError>`
//! so a search driver (the DSE engine in particular) can probe candidate
//! configurations without tripping panics.

use std::error::Error;
use std::fmt;

/// Why a CAM configuration or operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CamError {
    /// A configuration violated a structural constraint.
    InvalidConfig {
        /// Which constraint failed.
        reason: &'static str,
    },
}

impl fmt::Display for CamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CamError::InvalidConfig { reason } => write!(f, "invalid TCAM config: {reason}"),
        }
    }
}

impl Error for CamError {}

/// `Ok` when `ok` holds, else the configuration error naming `reason`.
pub(crate) fn check(ok: bool, reason: &'static str) -> Result<(), CamError> {
    ok.then_some(()).ok_or(CamError::InvalidConfig { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_constraint() {
        let e = CamError::InvalidConfig { reason: "segments must be at least 1" };
        assert!(e.to_string().contains("segments"), "{e}");
    }
}
