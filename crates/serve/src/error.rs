//! Typed failures for the serving runtime.
//!
//! Everything that used to be a panic message, a `bool`, or an ad-hoc
//! admission sentinel on the public surface now has a variant here, so
//! callers can branch on the cause and error chains render through
//! `std::error::Error`. Policies' `validate` returns `Result<_, ServeError>`
//! too.

use std::error::Error;
use std::fmt;

/// Why a serving-runtime operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A server was built with zero stations.
    NoStations,
    /// A trace was not sorted by arrival time (index of the first
    /// out-of-order request).
    UnsortedTrace {
        /// Index into the trace of the offending request.
        position: usize,
    },
    /// A request named a station index the server does not have.
    UnknownStation {
        /// Offending request id.
        request_id: u64,
        /// Station index the request asked for.
        station: usize,
        /// Number of stations the server actually has.
        stations: usize,
    },
    /// A batch policy or degradation ladder failed validation.
    InvalidPolicy {
        /// Which constraint was violated.
        reason: &'static str,
    },
    /// No feasible configuration exists for the requested SLA.
    InfeasibleSla {
        /// The SLA bound that could not be met (ns).
        sla_ns: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoStations => write!(f, "a server needs at least one station"),
            ServeError::UnsortedTrace { position } => {
                write!(
                    f,
                    "trace is not sorted by arrival time (first violation at index {position})"
                )
            }
            ServeError::UnknownStation { request_id, station, stations } => write!(
                f,
                "request {request_id} targets station {station} but only {stations} exist"
            ),
            ServeError::InvalidPolicy { reason } => write!(f, "invalid policy: {reason}"),
            ServeError::InfeasibleSla { sla_ns } => {
                write!(f, "no feasible configuration under an SLA of {sla_ns} ns")
            }
        }
    }
}

impl Error for ServeError {}

/// `Ok` when `ok` holds, else the policy error naming `reason`.
pub(crate) fn check(ok: bool, reason: &'static str) -> Result<(), ServeError> {
    ok.then_some(()).ok_or(ServeError::InvalidPolicy { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::NoStations, "at least one station"),
            (ServeError::UnsortedTrace { position: 3 }, "index 3"),
            (ServeError::UnknownStation { request_id: 9, station: 4, stations: 2 }, "station 4"),
            (ServeError::InvalidPolicy { reason: "max_batch must be > 0" }, "max_batch"),
            (ServeError::InfeasibleSla { sla_ns: 100 }, "100 ns"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn Error> = Box::new(ServeError::NoStations);
        assert!(err.source().is_none());
    }
}
