//! Typed failures for the serving runtime.
//!
//! A run fails on a trace that does not fit its server or on an SLA no
//! batch meets; a rejected policy or station list is the workspace's one
//! [`ConfigError`], carried in [`ServeError::Config`] so building a
//! server and running it share one error type.

use enw_numerics::error::ConfigError;
use std::error::Error;
use std::fmt;

/// Why a serving-runtime operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
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
    /// No feasible configuration exists for the requested SLA.
    InfeasibleSla {
        /// The SLA bound that could not be met (ns).
        sla_ns: u64,
    },
    /// The station list, a batch policy or a degradation ladder failed
    /// validation.
    Config(ConfigError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
            ServeError::InfeasibleSla { sla_ns } => {
                write!(f, "no feasible configuration under an SLA of {sla_ns} ns")
            }
            ServeError::Config(e) => e.fmt(f),
        }
    }
}

impl Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::UnsortedTrace { position: 3 }, "index 3"),
            (ServeError::UnknownStation { request_id: 9, station: 4, stations: 2 }, "station 4"),
            (ServeError::InfeasibleSla { sla_ns: 100 }, "100 ns"),
            (
                ServeError::from(enw_numerics::error::check(false, "max_batch").unwrap_err()),
                "max_batch",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn Error> = Box::new(ServeError::InfeasibleSla { sla_ns: 1 });
        assert!(err.source().is_none());
    }
}
