//! Cross-crate integration tests: the full PIL-Fill pipeline from layout
//! synthesis through placement, evaluation and GDSII export.

use pil_fill::core::flow::{run_flow, FlowConfig, FlowContext};
use pil_fill::core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pil_fill::core::WorkerPool;
use pil_fill::layout::synth::{synthesize, SynthConfig};
use pil_fill::layout::Design;
use pil_fill::stream::{read_gds, write_gds, FILL_DATATYPE};

fn design() -> Design {
    synthesize(&SynthConfig::small_test(99))
}

fn config() -> FlowConfig {
    FlowConfig::new(8_000, 2).expect("valid config")
}

#[test]
fn full_flow_all_methods_share_density_and_budget() {
    let d = design();
    let cfg = config();
    let ctx = FlowContext::build(&d, &cfg).expect("context");
    let methods: Vec<&dyn FillMethod> = vec![&NormalFill, &IlpOne, &IlpTwo, &GreedyFill, &DpExact];
    let outcomes: Vec<_> = methods
        .iter()
        .map(|m| ctx.run(&cfg, *m).expect("flow"))
        .collect();
    let reference = &outcomes[0];
    assert!(reference.budget_total > 0);
    for o in &outcomes {
        assert_eq!(o.placed_features, reference.placed_features);
        assert_eq!(o.shortfall, 0);
        assert_eq!(o.impact.unlocated_features, 0);
        assert_eq!(
            o.density_after.min_window_density, reference.density_after.min_window_density,
            "{}: density quality must be identical",
            o.method
        );
    }
}

#[test]
fn method_quality_ordering_holds_end_to_end() {
    let d = design();
    let cfg = config();
    let ctx = FlowContext::build(&d, &cfg).expect("context");
    let tau = |m: &dyn FillMethod| ctx.run(&cfg, m).expect("flow").impact.total_delay;
    let normal = tau(&NormalFill);
    let greedy = tau(&GreedyFill);
    let ilp2 = tau(&IlpTwo);
    let dp = tau(&DpExact);
    assert!(
        ilp2 <= greedy,
        "ILP-II ({ilp2}) must beat Greedy ({greedy})"
    );
    assert!(
        greedy < normal,
        "Greedy ({greedy}) must beat Normal ({normal})"
    );
    // ILP-II solves the same model DP solves exactly.
    assert!((ilp2 - dp).abs() <= 1e-6 * dp.max(1e-30), "ILP-II vs DP");
}

#[test]
fn text_format_round_trip_preserves_flow_results() {
    let d = design();
    let text = d.to_text();
    let d2 = Design::from_text(&text).expect("parse");
    let cfg = config();
    let a = run_flow(&d, &cfg, &GreedyFill).expect("flow a");
    let b = run_flow(&d2, &cfg, &GreedyFill).expect("flow b");
    assert_eq!(a.features, b.features);
    assert_eq!(a.impact.total_delay, b.impact.total_delay);
}

#[test]
fn gds_export_round_trips_fill_count_and_respects_buffers() {
    let d = design();
    let outcome = run_flow(&d, &config(), &IlpTwo).expect("flow");
    let bytes = write_gds(&d, &outcome.features);
    let lib = read_gds(&bytes).expect("read back");
    let fills = lib.boundaries_with_datatype(FILL_DATATYPE);
    assert_eq!(fills.len() as u64, outcome.placed_features);
    // No fill shape may come within the buffer distance of drawn metal.
    let keepouts: Vec<_> = lib
        .boundaries
        .iter()
        .filter(|b| b.datatype == 0 && b.layer == 0)
        .map(|b| b.bbox().grown(d.rules.buffer))
        .collect();
    for f in &fills {
        let rect = f.bbox();
        for k in &keepouts {
            assert!(!rect.overlaps(k), "fill {rect} too close to metal");
        }
    }
    // Fill shapes must not overlap each other either.
    for (i, a) in fills.iter().enumerate() {
        for b in &fills[i + 1..] {
            assert!(!a.bbox().overlaps(&b.bbox()), "fill overlap");
        }
    }
}

#[test]
fn deterministic_across_runs_and_thread_counts() {
    let d = design();
    let cfg = config();
    let ctx = FlowContext::build(&d, &cfg).expect("context");
    let a = ctx.run(&cfg, &NormalFill).expect("seq");
    let b = ctx
        .run_pool(&cfg, &NormalFill, &WorkerPool::new(3))
        .expect("par3");
    let c = ctx
        .run_pool(&cfg, &NormalFill, &WorkerPool::new(7))
        .expect("par7");
    assert_eq!(a.features, b.features);
    assert_eq!(b.features, c.features);
}

#[test]
fn fill_features_stay_on_die_and_clear_of_wires() {
    use pil_fill::layout::LayerId;
    let d = design();
    let outcome = run_flow(&d, &config(), &NormalFill).expect("flow");
    let size = d.rules.feature_size;
    let wires: Vec<_> = d
        .segments_on_layer(LayerId(0))
        .map(|(_, _, s)| s.rect())
        .collect();
    for f in &outcome.features {
        let rect = f.rect(size);
        assert!(d.die.contains_rect(&rect), "fill off die: {rect}");
        for w in &wires {
            assert!(
                !rect.overlaps(&w.grown(d.rules.buffer)),
                "fill at {rect} violates buffer to wire {w}"
            );
        }
    }
}

#[test]
fn weighted_flow_reduces_weighted_metric() {
    let d = synthesize(&SynthConfig::small_test(5));
    let mut cfg = config();
    let ctx = FlowContext::build(&d, &cfg).expect("context");
    cfg.weighted = false;
    let unweighted = ctx.run(&cfg, &IlpTwo).expect("flow");
    cfg.weighted = true;
    let weighted = ctx.run(&cfg, &IlpTwo).expect("flow");
    assert!(weighted.impact.weighted_delay <= unweighted.impact.weighted_delay * (1.0 + 1e-9));
}
