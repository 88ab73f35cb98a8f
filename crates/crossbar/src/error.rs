//! Typed errors for the crossbar crate (workspace API conventions in
//! DESIGN.md: fallible constructors return `Result<_, CrossbarError>`
//! instead of panicking or collapsing causes into `Option`).

use std::error::Error;
use std::fmt;

/// Everything that can go wrong when configuring simulated analog
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CrossbarError {
    /// A tile configuration failed validation.
    InvalidConfig {
        /// What constraint was violated.
        reason: &'static str,
    },
}

impl fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossbarError::InvalidConfig { reason } => {
                write!(f, "invalid tile configuration: {reason}")
            }
        }
    }
}

impl Error for CrossbarError {}

/// `Ok` when `ok` holds, else the configuration error naming `reason`.
pub(crate) fn check(ok: bool, reason: &'static str) -> Result<(), CrossbarError> {
    ok.then_some(()).ok_or(CrossbarError::InvalidConfig { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_violated_constraint() {
        let e = CrossbarError::InvalidConfig { reason: "drop_connect must lie in [0, 1)" };
        assert!(e.to_string().contains("drop_connect"));
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(CrossbarError::InvalidConfig { reason: "x" });
        assert!(e.source().is_none());
    }
}
