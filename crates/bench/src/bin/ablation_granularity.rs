// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! **Ablation B**: dissection-granularity effect (paper Section 6: "when
//! the dissection becomes too fine-grain, it becomes harder to consider
//! the total impact of a slack site column since we handle the overlapping
//! tiles separately").
//!
//! Sweeps `r` for both testcases at fixed window size and reports the
//! ILP-II delay and its reduction over the Normal baseline — the reduction
//! should shrink as `r` grows.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin ablation_granularity`
//!
//! Writes `results/ablation_granularity.csv`.

use pilfill_bench::experiments::default_threads;
use pilfill_bench::render::reduction_pct;
use pilfill_bench::testcases::{t1, t2};
use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::{IlpTwo, NormalFill};
use pilfill_core::WorkerPool;
use std::fmt::Write as _;

fn main() {
    let pool = WorkerPool::new(default_threads());
    let mut csv = String::from("testcase,r,tiles,normal_tau_s,ilp2_tau_s,reduction_pct\n");
    println!("Ablation B: dissection granularity (W = 32k dbu)\n");
    println!(
        "{:<6} {:>4} {:>8} {:>14} {:>14} {:>12}",
        "case", "r", "tiles", "Normal (fs)", "ILP-II (fs)", "reduction"
    );
    for design in [t1(), t2()] {
        for r in [1usize, 2, 4, 8, 16] {
            let cfg = FlowConfig::new(32_000, r).expect("config");
            let ctx = FlowContext::build(&design, &cfg).expect("context");
            let normal = ctx.run_pool(&cfg, &NormalFill, &pool).expect("normal");
            let ilp2 = ctx.run_pool(&cfg, &IlpTwo, &pool).expect("ilp2");
            let red = reduction_pct(normal.impact.total_delay, ilp2.impact.total_delay);
            println!(
                "{:<6} {:>4} {:>8} {:>14.3} {:>14.3} {:>11.1}%",
                design.name,
                r,
                normal.tiles,
                normal.impact.total_delay * 1e15,
                ilp2.impact.total_delay * 1e15,
                red
            );
            let _ = writeln!(
                csv,
                "{},{},{},{:.6e},{:.6e},{:.2}",
                design.name,
                r,
                normal.tiles,
                normal.impact.total_delay,
                ilp2.impact.total_delay,
                red
            );
        }
        println!();
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/ablation_granularity.csv", csv).expect("write csv");
    println!("wrote results/ablation_granularity.csv");
    println!(
        "\nShape check: the reduction over Normal is largest for coarse\n\
         dissections and shrinks as r grows, because fine tiles split slack\n\
         columns across independently-solved subproblems."
    );
}
