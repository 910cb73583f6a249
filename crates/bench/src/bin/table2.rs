// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! Regenerates **Table 2** of the paper: weighted PIL-Fill synthesis — the
//! same grid as Table 1 with the downstream-sink-weighted objective and
//! metric.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin table2 [--smoke]`
//!
//! Results are printed and written to `results/table2.csv`. A `--smoke`
//! run (one cell per testcase) writes no CSV, so it never replaces the
//! committed full-grid results, and exits non-zero if ILP-II's delay
//! exceeds Normal's on any row.

use pilfill_bench::{render_rows, run_grid, t1, t2, write_csv, Grid};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        Grid::smoke(true)
    } else {
        Grid::paper(true)
    };
    let mut rows = Vec::new();
    for design in [t1(), t2()] {
        let got = run_grid(&design, &grid, &mut |msg| eprintln!("[table2] {msg}"))
            .expect("experiment grid must run");
        rows.extend(got);
    }
    println!("\nTable 2: weighted PIL-Fill synthesis (weighted tau in fs)\n");
    println!("{}", render_rows(&rows, true));
    if smoke {
        // Methods run in table order: Normal, ILP-I, ILP-II, Greedy.
        let mut ok = true;
        for row in &rows {
            let (normal, ilp2) = (row.methods[0].weighted_delay, row.methods[2].weighted_delay);
            if ilp2 > normal {
                eprintln!(
                    "[table2] {}/{}/{}: ILP-II delay {ilp2:.3e} s exceeds Normal {normal:.3e} s",
                    row.testcase, row.window_label, row.r
                );
                ok = false;
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let path = Path::new("results/table2.csv");
    write_csv(&rows, path).expect("write csv");
    eprintln!("[table2] wrote {}", path.display());
    ExitCode::SUCCESS
}
