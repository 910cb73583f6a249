// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! **Extension D**: per-net capacitance budgets (paper Section 7's
//! "ongoing research"). Runs ILP-II with and without per-net capacitance
//! budget constraints and reports the worst-net delay and the number of
//! nets whose fill-induced capacitance exceeds their budget.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin ext_budgets`
//!
//! Writes `results/ext_budgets.csv`.

use pilfill_bench::experiments::default_threads;
use pilfill_bench::testcases::{t1, t2};
use pilfill_core::budget_ext::{BudgetedIlpTwo, CapBudgets};
use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::IlpTwo;
use pilfill_core::WorkerPool;
use pilfill_rc::CouplingModel;
use std::fmt::Write as _;

fn main() {
    let pool = WorkerPool::new(default_threads());
    let mut csv = String::from("testcase,method,protected_cap_f,others_cap_f,total_tau_s\n");
    println!("Extension D: per-net capacitance budgets (W=16k, r=2)");
    println!("Protecting the 5 most fill-coupled nets with a 10% budget.\n");
    println!(
        "{:<6} {:<16} {:>20} {:>16} {:>14}",
        "case", "method", "protected cap (aF)", "others (aF)", "total (fs)"
    );
    for design in [t1(), t2()] {
        let cfg = FlowConfig::new(16_000, 2).expect("config");
        let ctx = FlowContext::build(&design, &cfg).expect("context");
        let model = CouplingModel::new(&design.tech);
        let _ = &model;

        // Baseline: plain ILP-II; pick the 5 nets that absorbed the most
        // fill coupling (the "critical nets" a timing engine would flag).
        let plain = ctx.run_pool(&cfg, &IlpTwo, &pool).expect("ilp2");
        let mut by_cap: Vec<(usize, f64)> = plain
            .impact
            .per_net_cap
            .iter()
            .enumerate()
            .map(|(i, &c)| (i, c))
            .collect();
        by_cap.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let protected: Vec<usize> = by_cap.iter().take(5).map(|&(i, _)| i).collect();

        // Budgets: protected nets get 10% of their unconstrained coupling,
        // split over the tiles they touch; everyone else is unconstrained.
        let mut global = vec![f64::INFINITY; design.nets.len()];
        for &i in &protected {
            global[i] = plain.impact.per_net_cap[i] * 0.10;
        }
        let budgets = CapBudgets::from_global(global).split_over_tiles(ctx.problems());
        let budgeted_method = BudgetedIlpTwo { budgets };
        let budgeted = ctx
            .run_pool(&cfg, &budgeted_method, &pool)
            .expect("budgeted");

        for (name, outcome) in [("ILP-II", &plain), ("ILP-II+budgets", &budgeted)] {
            let prot: f64 = protected
                .iter()
                .map(|&i| outcome.impact.per_net_cap[i])
                .sum();
            let others: f64 = outcome.impact.per_net_cap.iter().sum::<f64>() - prot;
            println!(
                "{:<6} {:<16} {:>20.3} {:>16.3} {:>14.3}",
                design.name,
                name,
                prot * 1e18,
                others * 1e18,
                outcome.impact.total_delay * 1e15,
            );
            let _ = writeln!(
                csv,
                "{},{},{:.6e},{:.6e},{:.6e}",
                design.name, name, prot, others, outcome.impact.total_delay
            );
        }
        println!();
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/ext_budgets.csv", csv).expect("write csv");
    println!("wrote results/ext_budgets.csv");
    println!(
        "\nShape check: budgets push coupling off the protected nets onto\n\
         unprotected neighbours (and cost some total delay) — the\n\
         Section-7 slack-budget mechanism."
    );
}
