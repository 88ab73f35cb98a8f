//! What every experiment shares: the header, the smoke flag, table
//! output, named gates and the `BENCH_*.json` artifact.
//!
//! A gate is asserted once, in the experiment, through [`Run::gate`];
//! the JSON a run writes is a CI artifact that no gate reads back.

use crate::json::Json;
use crate::Entry;
use enw_core::report::Table;
use std::fmt::Display;

/// One named pass/fail condition of an experiment.
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One experiment invocation.
pub struct Run {
    /// CI-sized inputs were asked for (`--smoke`, `enw gate`).
    pub smoke: bool,
    pub gates: Vec<Gate>,
}

impl Run {
    /// Prints the header of a paper experiment (id, anchor, claim,
    /// module) and starts its run. `EXT-*` extensions print their own.
    pub fn start(entry: &Entry, smoke: bool) -> Run {
        if let Some(claim) = &entry.claim {
            println!("== {} [{}] ==", entry.id, claim.anchor);
            println!("claim: {}", claim.text);
            println!("binary: {}", entry.module);
            println!();
        }
        Run { smoke, gates: Vec::new() }
    }

    /// Prints a rendered table with a trailing blank line.
    pub fn emit(&self, table: &Table) {
        println!("{}", table.render());
    }

    /// Records one gate. Passing gates print nothing, so a run's stdout
    /// is the experiment's own; `enw` reports gates on stderr and exits
    /// non-zero naming the failed ones.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Display) {
        self.gates.push(Gate { name: name.to_string(), ok, detail: detail.to_string() });
    }

    /// Writes `doc` to `file` in the working directory; a failed write
    /// fails the gate `wrote <file>`.
    pub fn json(&mut self, file: &str, doc: &Json) {
        let written = std::fs::write(file, doc.render());
        match &written {
            Ok(()) => println!("wrote {file}"),
            Err(e) => println!("could not write {file}: {e}"),
        }
        self.gate(&format!("wrote {file}"), written.is_ok(), "CI uploads it as an artifact");
    }
}
