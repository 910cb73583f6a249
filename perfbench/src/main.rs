//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]`
//!
//! Runs one workload and prints its metric table followed, as the last
//! line, by the JSON result. Exits 1 when an output failed its check, 2 on
//! bad arguments or when the workload could not run.

use pilfill_perfbench::{run_workload, Opts, WORKLOADS};
use std::io::Write as _;

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.trace = value()? == "1",
            "--tiny" => opts.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run_workload(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(2);
        }
    };
    // A closed stdout (a pipe into `head`) is not an error worth a panic.
    let mut out = std::io::stdout().lock();
    for line in &report.notes {
        let _ = writeln!(out, "{line}");
    }
    let _ = write!(out, "{}", report.table());
    let _ = writeln!(
        out,
        "{}: attempted {} failed {}",
        opts.workload, report.attempted, report.failed
    );
    let _ = writeln!(out, "{}", report.json());
    let _ = out.flush();
    if !report.correct() {
        std::process::exit(1);
    }
}
