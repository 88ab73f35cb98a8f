//! Architectural rules over crate manifests.
//!
//! | id       | severity | what it enforces |
//! |----------|----------|------------------|
//! | ENW-A001 | deny     | internal dependency edges must follow the declared layering |
//! | ENW-A003 | deny     | `proptest` in `[dependencies]` must be `optional` (feature-gated vendored shim) |
//!
//! The layering table below is the single source of truth for who may
//! depend on whom. A crate that is not listed is itself a deny finding:
//! adding a crate to the workspace requires declaring its place in the
//! architecture here.

use crate::report::{Finding, Severity};

/// Allowed internal (`enw-*`) dependencies per crate directory, bottom of
/// the stack first. `dev-dependencies` are exempt (tests may reach
/// anywhere below them in the build graph anyway).
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("trace", &[]),
    // The persistent pool flushes worker-thread trace recorders after
    // every job, so the runtime sits one rung above trace.
    ("parallel", &["trace"]),
    ("numerics", &["parallel", "trace"]),
    ("nn", &["numerics", "parallel"]),
    ("crossbar", &["numerics", "nn", "parallel", "trace"]),
    ("mann", &["numerics", "nn", "parallel", "trace"]),
    ("xmann", &["numerics", "mann", "parallel", "trace"]),
    // No "parallel": a whole-bank search costs less than one pool
    // dispatch, so `cam` sweeps its arrays on the calling thread.
    ("cam", &["numerics", "mann", "xmann", "trace"]),
    ("recsys", &["numerics", "nn", "parallel", "trace"]),
    ("serve", &["numerics", "nn", "crossbar", "mann", "cam", "recsys", "parallel", "trace"]),
    // The cluster layer sits on top of the single-node serving runtime:
    // it reuses serve's clock/metrics/load-shape surface and shards the
    // recsys embedding store, but never reaches into the other lanes'
    // hardware models directly.
    ("fleet", &["numerics", "recsys", "serve", "parallel", "trace"]),
    (
        "core",
        &[
            "numerics", "nn", "crossbar", "mann", "xmann", "cam", "recsys", "serve", "fleet",
            "parallel", "trace",
        ],
    ),
    // The design-space explorer drives every simulator through the
    // `Tunable` surface that `core` re-exports, and fans evaluations out
    // through the deterministic runtime; it never reaches into a lane
    // crate directly.
    ("dse", &["core", "parallel"]),
    ("bench", &["core", "dse"]),
    ("analyze", &[]),
];

/// Vendored shims that must stay behind an explicit feature when they are
/// a build (not dev) dependency.
const GATED_SHIMS: &[&str] = &["proptest"];

/// Lints one crate manifest. `crate_dir` is the directory name under
/// `crates/`, `rel_path` the manifest path used in findings.
pub fn check_manifest(crate_dir: &str, rel_path: &str, contents: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let allowed = ALLOWED_DEPS.iter().find(|(c, _)| *c == crate_dir).map(|(_, deps)| *deps);
    let mut section = String::new();
    for (lineno, raw) in contents.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno as u32 + 1;
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if section != "dependencies" || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name = …`, `name.workspace = true`, or `name = { … }`.
        let Some(dep) = line.split(['=', '.', ' ']).next().map(str::trim) else {
            continue;
        };
        if dep.is_empty() {
            continue;
        }
        if GATED_SHIMS.contains(&dep) && !line.contains("optional = true") {
            out.push(Finding::new(
                "ENW-A003",
                Severity::Deny,
                rel_path,
                lineno,
                format!(
                    "vendored shim `{dep}` must be `optional = true` behind a feature so \
                     tier-1 builds never compile it"
                ),
                line.to_string(),
            ));
        }
        if let Some(internal) = dep.strip_prefix("enw-") {
            match allowed {
                None => {
                    out.push(Finding::new(
                        "ENW-A001",
                        Severity::Deny,
                        rel_path,
                        lineno,
                        format!(
                            "crate `{crate_dir}` has no entry in the layering table \
                             (crates/analyze/src/arch.rs); declare its allowed dependencies"
                        ),
                        line.to_string(),
                    ));
                }
                Some(deps) if !deps.contains(&internal) => {
                    out.push(Finding::new(
                        "ENW-A001",
                        Severity::Deny,
                        rel_path,
                        lineno,
                        format!(
                            "`{crate_dir}` may not depend on `enw-{internal}` \
                             (allowed: {})",
                            if deps.is_empty() { "none".to_string() } else { deps.join(", ") }
                        ),
                        line.to_string(),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    out
}
