//! The one rejection every config `validate` in the workspace returns.
//!
//! Each simulator crate states its config rule as `check(cond, reason)?`
//! lines; a rejected config carries the reason that failed. Every config
//! crate already depends on this one, so the type needs no crate of its
//! own.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Why a configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Which constraint failed: static at every [`check`], formatted
    /// where the message names a runtime part (a fleet lane).
    pub reason: Cow<'static, str>,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}", self.reason)
    }
}

impl Error for ConfigError {}

/// `Ok` when `ok` holds, else the configuration error naming `reason`.
pub fn check(ok: bool, reason: &'static str) -> Result<(), ConfigError> {
    ok.then_some(()).ok_or(ConfigError { reason: Cow::Borrowed(reason) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_constraint() {
        let e = check(false, "segments must be at least 1").unwrap_err();
        assert_eq!(e.to_string(), "invalid config: segments must be at least 1");
        assert_eq!(check(true, "unused"), Ok(()));
    }
}
