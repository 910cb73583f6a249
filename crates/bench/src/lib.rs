//! # pilfill-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results).
//!
//! The library half provides the shared machinery — testcase construction,
//! the `T/W/r` experiment grid, parallel method execution and text/CSV
//! table rendering. The binaries (`table1`, `table2`, `fig*`,
//! `ablation_*`, `ext_budgets`) each regenerate one artifact.

pub mod alloc_count;
pub mod experiments;
pub mod json;
pub mod render;
pub mod testcases;
pub mod timing;

pub use experiments::{run_grid, ExperimentRow, Grid, MethodResult};
pub use json::Json;
pub use render::{render_rows, smoke_failures, write_csv};
pub use testcases::{t1, t2, windows_and_r};
pub use timing::{Harness, Measurement};
