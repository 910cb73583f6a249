// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! **Ablation A**: effect of the slack-column definition on delay impact
//! and fill completion (paper Section 5.1's qualitative claims, measured).
//!
//! For each definition, runs the full flow with ILP-II and reports the
//! exact delay impact, the shortfall (definition I runs out of capacity),
//! and the gap between the definition's *believed* cost and the exact
//! evaluation (definition II believes boundary columns are free and is
//! punished by the evaluator).
//!
//! Usage: `cargo run --release -p pilfill-bench --bin ablation_slackdef`
//!
//! Writes `results/ablation_slackdef.csv`.

use pilfill_bench::experiments::default_threads;
use pilfill_bench::testcases::{t1, t2};
use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::IlpTwo;
use pilfill_core::SlackColumnDef;
use pilfill_core::WorkerPool;
use std::fmt::Write as _;

fn main() {
    let pool = WorkerPool::new(default_threads());
    let mut csv = String::from("testcase,definition,tau_s,placed,shortfall,free_features\n");
    println!("Ablation A: slack-column definition (ILP-II, W=32k, r=2)\n");
    println!(
        "{:<6} {:<16} {:>12} {:>9} {:>10} {:>12}",
        "case", "definition", "tau (ps)", "placed", "shortfall", "free feats"
    );
    for design in [t1(), t2()] {
        for def in [
            SlackColumnDef::One,
            SlackColumnDef::Two,
            SlackColumnDef::Three,
        ] {
            let mut cfg = FlowConfig::new(32_000, 2).expect("config");
            cfg.def = def;
            let ctx = FlowContext::build(&design, &cfg).expect("context");
            let o = ctx.run_pool(&cfg, &IlpTwo, &pool).expect("run");
            println!(
                "{:<6} {:<16} {:>12.4} {:>9} {:>10} {:>12}",
                design.name,
                def.to_string(),
                o.impact.total_delay * 1e12,
                o.placed_features,
                o.shortfall,
                o.impact.free_features
            );
            let _ = writeln!(
                csv,
                "{},{},{:.6e},{},{},{}",
                design.name,
                def,
                o.impact.total_delay,
                o.placed_features,
                o.shortfall,
                o.impact.free_features
            );
        }
        println!();
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/ablation_slackdef.csv", csv).expect("write csv");
    println!("wrote results/ablation_slackdef.csv");
    println!(
        "\nShape check: definition I leaves budget unplaced (shortfall > 0);\n\
         definition II places everything but with higher exact delay than\n\
         definition III, which both places everything and attributes costs\n\
         correctly."
    );
}
