//! Typed failures for the recommendation workload.

use std::error::Error;
use std::fmt;

/// Why a recsys operation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecsysError {
    /// A batch cap of zero admits no batch at all.
    ZeroBatchCap,
    /// Even a batch of one misses the SLA on the given machine.
    InfeasibleSla {
        /// The SLA bound that cannot be met (seconds).
        sla_seconds: f64,
    },
}

impl fmt::Display for RecsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecsysError::ZeroBatchCap => {
                write!(f, "batch cap is zero: no batch size can be admitted")
            }
            RecsysError::InfeasibleSla { sla_seconds } => {
                write!(f, "even batch 1 misses the {sla_seconds} s SLA")
            }
        }
    }
}

impl Error for RecsysError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        assert!(RecsysError::ZeroBatchCap.to_string().contains("zero"));
        assert!(RecsysError::InfeasibleSla { sla_seconds: 0.5 }.to_string().contains("0.5"));
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn Error> = Box::new(RecsysError::ZeroBatchCap);
        assert!(err.source().is_none());
    }
}
