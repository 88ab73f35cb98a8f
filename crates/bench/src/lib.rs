//! Shared helpers for the `enw` experiment runner (`src/bin/enw/`) and
//! the workspace-level integration tests.
//!
//! Each module under `src/bin/enw/` regenerates one table or figure of
//! the paper:
//!
//! ```text
//! cargo run --release --bin enw -- list
//! cargo run --release --bin enw -- run E9 E10
//! ```

pub mod alloc_audit;

use enw_core::report::Table;

/// Prints an experiment header (id, anchor, claim) before its table and
/// returns the resolved entry.
///
/// # Errors
///
/// Returns [`enw_core::EnwError::UnknownExperiment`] when `id` is not in
/// the registry; nothing is printed in that case.
pub fn try_banner(id: &str) -> Result<enw_core::Experiment, enw_core::EnwError> {
    let exp = enw_core::registry::find(id)?;
    println!("== {} [{}] ==", exp.id, exp.paper_anchor);
    println!("claim: {}", exp.claim);
    println!("binary: {}", exp.binary);
    println!();
    Ok(exp)
}

/// Prints an experiment header (id, anchor, claim) before its table.
///
/// # Panics
///
/// Panics if `id` is not in the registry — experiment binaries are
/// fail-fast CLI tools; library callers wanting a `Result` use
/// [`try_banner`] (or [`enw_core::registry::find`]) instead.
#[expect(clippy::panic, reason = "experiment binaries are fail-fast CLI tools")]
pub fn banner(id: &str) {
    if let Err(e) = try_banner(id) {
        panic!("unknown experiment id {id}: {e}");
    }
}

/// Prints a rendered table with a trailing blank line.
pub fn emit(table: &Table) {
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_knows_all_registered_ids() {
        for e in enw_core::experiments() {
            // Must not panic for any registered id.
            super::banner(e.id);
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn banner_rejects_unknown_id() {
        super::banner("E99");
    }

    #[test]
    fn try_banner_returns_the_entry_or_a_typed_error() {
        let exp = super::try_banner("E20").expect("E20 is registered");
        assert_eq!(exp.binary, "exp20_dse");
        assert!(super::try_banner("E99").is_err());
    }
}
