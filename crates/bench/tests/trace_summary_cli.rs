//! `ENW_TRACE=summary` on the `enw` binary: the per-stage attribution
//! table the README promises lands on stderr, and stdout, which the
//! golden digests pin, does not move by a byte. Any other value traces
//! nothing and says so on stderr.

use std::process::{Command, Output};

/// Runs E21's smoke form (analog tiles, reads and pulse updates) in a
/// directory of its own per test and mode, so the `BENCH_*.json` it
/// writes stays out of the tree and no two runs share a file.
fn enw_e21(test: &str, trace: &str) -> Output {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{trace}"));
    std::fs::create_dir_all(&dir).expect("a scratch directory under the target dir");
    Command::new(env!("CARGO_BIN_EXE_enw"))
        .args(["run", "E21", "--smoke"])
        .env("ENW_TRACE", trace)
        .current_dir(&dir)
        .output()
        .expect("enw runs")
}

#[test]
fn summary_mode_prints_the_table_on_stderr_and_leaves_stdout_alone() {
    let off = enw_e21("summary-test", "off");
    let summary = enw_e21("summary-test", "summary");
    assert!(off.status.success() && summary.status.success(), "E21 --smoke failed");
    assert!(!off.stdout.is_empty());
    assert_eq!(off.stdout, summary.stdout, "tracing moved E21's stdout");
    let stderr = String::from_utf8_lossy(&summary.stderr);
    let header = stderr.lines().find(|l| l.starts_with("span ")).expect("no span table on stderr");
    assert!(header.contains("work%"), "{header}");
    assert!(stderr.contains("\ncrossbar/"), "no crossbar stage in the table:\n{stderr}");
    assert!(
        !String::from_utf8_lossy(&off.stderr).contains("work%"),
        "untraced run printed a table"
    );
}

#[test]
fn an_unknown_mode_traces_nothing_and_says_so() {
    let off = enw_e21("unknown-test", "off");
    let full = enw_e21("unknown-test", "full");
    assert!(off.status.success() && full.status.success(), "E21 --smoke failed");
    assert_eq!(off.stdout, full.stdout, "ENW_TRACE=full moved E21's stdout");
    let stderr = String::from_utf8_lossy(&full.stderr);
    let notes: Vec<&str> = stderr.lines().filter(|l| l.contains("ENW_TRACE")).collect();
    assert_eq!(notes.len(), 1, "want one note naming the value:\n{stderr}");
    assert!(notes[0].contains("\"full\""), "{}", notes[0]);
    assert!(!stderr.contains("work%"), "an unknown mode printed a table:\n{stderr}");
    assert!(
        !String::from_utf8_lossy(&off.stderr).contains("ENW_TRACE"),
        "ENW_TRACE=off drew the note"
    );
}
