// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! Regenerates **Table 1** of the paper: non-weighted PIL-Fill synthesis —
//! total delay increase and per-method CPU time for Normal / ILP-I /
//! ILP-II / Greedy over the T{1,2} x W{32,20} x r{2,4,8} grid.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin table1 [--smoke]`
//!
//! Results are printed and written to `results/table1.csv`. A `--smoke`
//! run (one cell per testcase) writes no CSV, so it never replaces the
//! committed full-grid results. It exits non-zero if ILP-II's delay
//! exceeds Normal's on any row, or if any row differs from the matching
//! row of the committed `results/table1.csv` in a column other than
//! `cpu_s`.

use pilfill_bench::{render_rows, run_grid, smoke_failures, t1, t2, write_csv, Grid};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        Grid::smoke(false)
    } else {
        Grid::paper(false)
    };
    let mut rows = Vec::new();
    for design in [t1(), t2()] {
        let got = run_grid(&design, &grid, &mut |msg| eprintln!("[table1] {msg}"))
            .expect("experiment grid must run");
        rows.extend(got);
    }
    println!("\nTable 1: non-weighted PIL-Fill synthesis (tau in fs)\n");
    println!("{}", render_rows(&rows, false));
    let path = Path::new("results/table1.csv");
    if smoke {
        let committed = std::fs::read_to_string(path).unwrap_or_default();
        let failures = smoke_failures(&rows, false, &committed);
        for failure in &failures {
            eprintln!("[table1] {failure}");
        }
        return if failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    write_csv(&rows, path).expect("write csv");
    eprintln!("[table1] wrote {}", path.display());
    ExitCode::SUCCESS
}
