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

/// What the shape check reads of one measured row.
#[derive(Debug)]
struct Row {
    delay: f64,
    shortfall: u64,
}

/// The Sec. 5.1 shape claims for one testcase, each derived from its three
/// rows (definitions I, II, III) with whether it holds.
fn shape_claims(rows: &[Row; 3]) -> [(String, bool); 4] {
    let [one, two, three] = rows;
    [
        (
            format!(
                "definition I leaves budget unplaced (shortfall {})",
                one.shortfall
            ),
            one.shortfall > 0,
        ),
        (
            format!(
                "definition II places everything (shortfall {})",
                two.shortfall
            ),
            two.shortfall == 0,
        ),
        (
            format!(
                "definition II has higher exact delay than III ({:.4} vs {:.4} ps)",
                two.delay * 1e12,
                three.delay * 1e12
            ),
            two.delay > three.delay,
        ),
        (
            format!(
                "definition III places everything (shortfall {})",
                three.shortfall
            ),
            three.shortfall == 0,
        ),
    ]
}

fn main() {
    let pool = WorkerPool::new(default_threads());
    let mut shapes = Vec::new();
    let mut csv = String::from("testcase,definition,tau_s,placed,shortfall,free_features\n");
    println!("Ablation A: slack-column definition (ILP-II, W=32k, r=2)\n");
    println!(
        "{:<6} {:<16} {:>12} {:>9} {:>10} {:>12}",
        "case", "definition", "tau (ps)", "placed", "shortfall", "free feats"
    );
    for design in [t1(), t2()] {
        let mut rows = Vec::with_capacity(3);
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
            rows.push(Row {
                delay: o.impact.total_delay,
                shortfall: o.shortfall,
            });
        }
        println!();
        let rows: [Row; 3] = rows.try_into().expect("one row per definition");
        shapes.push((design.name.clone(), shape_claims(&rows)));
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/ablation_slackdef.csv", csv).expect("write csv");
    println!("wrote results/ablation_slackdef.csv");
    println!("\nShape check (paper Sec. 5.1), from the rows above:");
    for (name, claims) in &shapes {
        for (claim, holds) in claims {
            let verdict = if *holds { "holds" } else { "DEVIATES" };
            println!("  {name}: {claim}: {verdict}");
        }
    }
}
