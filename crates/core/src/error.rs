//! The workspace-level error type.
//!
//! Per-crate APIs return their own typed errors (`ServeError`,
//! `RecsysError`, `CrossbarError`); applications composing several
//! workloads can funnel all of them into [`EnwError`] with `?` — the
//! `From` impls below — and still reach the originating error through
//! [`std::error::Error::source`].

use crate::tunable::TunableError;
use enw_cam::error::CamError;
use enw_crossbar::error::CrossbarError;
use enw_mann::error::MannError;
use enw_nn::error::NnError;
use enw_recsys::error::RecsysError;
use enw_serve::error::ServeError;
use enw_xmann::error::XmannError;
use std::error::Error;
use std::fmt;

/// Any error produced by the workspace's public APIs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EnwError {
    /// A serving-runtime error.
    Serve(ServeError),
    /// A recommendation-model error.
    Recsys(RecsysError),
    /// A crossbar-configuration error.
    Crossbar(CrossbarError),
    /// A TCAM-configuration error.
    Cam(CamError),
    /// An X-MANN-configuration error.
    Xmann(XmannError),
    /// A digital-NN-configuration error.
    Nn(NnError),
    /// A MANN-configuration error.
    Mann(MannError),
    /// A parameter-space encode/decode error.
    Tunable(TunableError),
    /// An experiment id that `enw` does not list.
    UnknownExperiment {
        /// The id that was looked up.
        id: String,
    },
}

impl fmt::Display for EnwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnwError::Serve(e) => write!(f, "serving runtime: {e}"),
            EnwError::Recsys(e) => write!(f, "recommendation model: {e}"),
            EnwError::Crossbar(e) => write!(f, "crossbar simulator: {e}"),
            EnwError::Cam(e) => write!(f, "TCAM model: {e}"),
            EnwError::Xmann(e) => write!(f, "X-MANN model: {e}"),
            EnwError::Nn(e) => write!(f, "NN substrate: {e}"),
            EnwError::Mann(e) => write!(f, "MANN model: {e}"),
            EnwError::Tunable(e) => write!(f, "parameter space: {e}"),
            EnwError::UnknownExperiment { id } => {
                write!(f, "unknown experiment id {id} (see `enw list`)")
            }
        }
    }
}

impl Error for EnwError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EnwError::Serve(e) => Some(e),
            EnwError::Recsys(e) => Some(e),
            EnwError::Crossbar(e) => Some(e),
            EnwError::Cam(e) => Some(e),
            EnwError::Xmann(e) => Some(e),
            EnwError::Nn(e) => Some(e),
            EnwError::Mann(e) => Some(e),
            EnwError::Tunable(e) => Some(e),
            EnwError::UnknownExperiment { .. } => None,
        }
    }
}

impl From<ServeError> for EnwError {
    fn from(e: ServeError) -> Self {
        EnwError::Serve(e)
    }
}

impl From<RecsysError> for EnwError {
    fn from(e: RecsysError) -> Self {
        EnwError::Recsys(e)
    }
}

impl From<CrossbarError> for EnwError {
    fn from(e: CrossbarError) -> Self {
        EnwError::Crossbar(e)
    }
}

impl From<CamError> for EnwError {
    fn from(e: CamError) -> Self {
        EnwError::Cam(e)
    }
}

impl From<XmannError> for EnwError {
    fn from(e: XmannError) -> Self {
        EnwError::Xmann(e)
    }
}

impl From<NnError> for EnwError {
    fn from(e: NnError) -> Self {
        EnwError::Nn(e)
    }
}

impl From<MannError> for EnwError {
    fn from(e: MannError) -> Self {
        EnwError::Mann(e)
    }
}

impl From<TunableError> for EnwError {
    fn from(e: TunableError) -> Self {
        EnwError::Tunable(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn question_mark_funnels_every_crate_error() {
        fn serve() -> Result<(), EnwError> {
            Err(ServeError::NoStations)?
        }
        fn recsys() -> Result<(), EnwError> {
            Err(RecsysError::ZeroBatchCap)?
        }
        fn crossbar() -> Result<(), EnwError> {
            Err(CrossbarError::InvalidConfig { reason: "x" })?
        }
        fn cam() -> Result<(), EnwError> {
            Err(CamError::InvalidConfig { reason: "x" })?
        }
        fn xmann() -> Result<(), EnwError> {
            Err(XmannError::InvalidConfig { reason: "x" })?
        }
        fn nn() -> Result<(), EnwError> {
            Err(NnError::InvalidConfig { reason: "x" })?
        }
        fn mann() -> Result<(), EnwError> {
            Err(MannError::InvalidConfig { reason: "x" })?
        }
        assert_eq!(serve(), Err(EnwError::Serve(ServeError::NoStations)));
        assert_eq!(recsys(), Err(EnwError::Recsys(RecsysError::ZeroBatchCap)));
        assert!(matches!(crossbar(), Err(EnwError::Crossbar(_))));
        assert!(matches!(cam(), Err(EnwError::Cam(_))));
        assert!(matches!(xmann(), Err(EnwError::Xmann(_))));
        assert!(matches!(nn(), Err(EnwError::Nn(_))));
        assert!(matches!(mann(), Err(EnwError::Mann(_))));
    }

    #[test]
    fn source_chain_reaches_the_originating_error() {
        let e = EnwError::from(ServeError::InfeasibleSla { sla_ns: 100 });
        let src = e.source().expect("wrapped errors expose a source");
        assert!(src.to_string().contains("100 ns"), "{src}");
        assert!(EnwError::UnknownExperiment { id: "E99".into() }.source().is_none());
    }

    #[test]
    fn display_prefixes_the_subsystem() {
        let e = EnwError::from(RecsysError::ZeroBatchCap);
        assert!(e.to_string().starts_with("recommendation model:"), "{e}");
    }
}
