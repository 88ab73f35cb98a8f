//! Fleet-level error type, following the workspace's public-API
//! conventions (DESIGN.md): data-shaped failures return `Result`,
//! programming errors panic at the constructor.

use std::fmt;

/// Why a fleet could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The spec declared no lanes.
    NoLanes,
    /// The spec is internally inconsistent (mismatched store/lane
    /// wiring, replica bounds, …).
    InvalidSpec {
        /// What exactly is inconsistent.
        reason: String,
    },
    /// The trace is not sorted by arrival time.
    UnsortedTrace {
        /// Index of the first out-of-order request.
        position: usize,
    },
    /// A request targets a lane the fleet does not have.
    UnknownLane {
        /// Offending request id.
        request: u64,
        /// The lane it asked for.
        lane: usize,
        /// How many lanes exist.
        lanes: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoLanes => write!(f, "a fleet needs at least one lane"),
            FleetError::InvalidSpec { reason } => write!(f, "invalid fleet spec: {reason}"),
            FleetError::UnsortedTrace { position } => {
                write!(f, "trace is not sorted by arrival time (first violation at {position})")
            }
            FleetError::UnknownLane { request, lane, lanes } => {
                write!(f, "request {request} targets lane {lane} but the fleet has {lanes}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// `Ok` when `ok` holds, else the spec error naming `reason`.
pub(crate) fn check(ok: bool, reason: &str) -> Result<(), FleetError> {
    ok.then_some(()).ok_or_else(|| FleetError::InvalidSpec { reason: reason.to_string() })
}
