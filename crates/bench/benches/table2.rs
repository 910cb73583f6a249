//! Timing for one Table-2 grid cell (T2/32/2, weighted objective):
//! tracks the cost of the weighted variant of the pipeline.

use pilfill_bench::Harness;
use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::{GreedyFill, IlpTwo};
use pilfill_core::WorkerPool;
use pilfill_layout::synth::{synthesize, SynthConfig};

fn main() {
    let design = synthesize(&SynthConfig::t2());
    let mut cfg = FlowConfig::new(32_000, 2).expect("config");
    cfg.weighted = true;
    let ctx = FlowContext::build(&design, &cfg).expect("context");
    let pool = WorkerPool::new(4);
    let mut h = Harness::new();
    h.bench("table2_cell_t2_32_2_weighted/greedy_weighted", 7, 1, || {
        ctx.run(&cfg, &GreedyFill).expect("run")
    });
    h.bench(
        "table2_cell_t2_32_2_weighted/ilp2_weighted_parallel",
        5,
        1,
        || ctx.run_pool(&cfg, &IlpTwo, &pool).expect("run"),
    );
}
