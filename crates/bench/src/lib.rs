//! The paper-reproduction harness: one runner per table/figure of the
//! paper, plus the design ablations. Performance is measured by the
//! separate `benchmark/` package, not here.
//!
//! Each `figNN_*` function reproduces the corresponding experiment at a
//! configurable scale and returns a [`Table`] with the same rows/series the
//! paper reports. The binaries in `src/bin/` print the table and write a
//! CSV under `results/`. Absolute numbers come from the virtual-time model
//! (calibrated to the paper's testbed where possible); the claims under
//! test are the *shapes*: who wins, by what factor, where the crossovers
//! and knees sit. See `EXPERIMENTS.md` for paper-vs-measured notes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figs;
pub mod runner;

pub use ablations::*;
pub use figs::*;
pub use runner::{calibrate_ratio, run_comparison, scaled_model, Comparison};

use std::path::Path;

use cc_profile::Table;

/// Prints a table and writes its CSV under `results/`.
pub fn emit(table: &Table, name: &str) {
    println!("{table}");
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(csv written to {})\n", path.display());
        }
    }
}

/// Scale of an experiment run: `quick` shrinks sizes for smoke tests and
/// CI; `full` is the EXPERIMENTS.md configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced ranks/bytes: seconds of wall time, same qualitative shapes.
    Quick,
    /// The documented reproduction configuration.
    Full,
}

impl Scale {
    /// Parses from a CLI argument (`--quick` selects [`Scale::Quick`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}
