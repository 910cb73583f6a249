//! End-to-end randomized tests: the full flow on randomly generated
//! designs must satisfy its contracts — exact budgets, DRC cleanliness,
//! determinism, and the optimizer not losing to random placement. Driven
//! by the in-repo seeded PRNG so every run explores the same cases.

use pil_fill::core::flow::{FlowConfig, FlowContext};
use pil_fill::core::methods::{GreedyFill, IlpTwo, NormalFill};
use pil_fill::core::{check_fill, SlackColumnDef, WorkerPool};
use pil_fill::layout::synth::{synthesize, SynthConfig};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};

fn rand_case(rng: &mut StdRng) -> (SynthConfig, i64, usize) {
    let seed = rng.gen_range(0u64..5_000);
    let cfg = SynthConfig {
        name: format!("flowprop-{seed}"),
        die_size: 24_000,
        seed,
        num_buses: rng.gen_range(1usize..3),
        bus_bits: rng.gen_range(2usize..4),
        num_tree_nets: rng.gen_range(2usize..8),
        num_local_nets: rng.gen_range(4usize..14),
        wire_width: 280,
        wire_space: 280,
        hotspot_fraction: 0.5,
        num_macros: rng.gen_range(0usize..3),
        tech: Default::default(),
        rules: Default::default(),
    };
    let (window, r) = match rng.gen_range(0u32..3) {
        0 => (8_000i64, 2usize),
        1 => (8_000, 4),
        _ => (6_000, 2),
    };
    (cfg, window, r)
}

#[test]
fn flow_contracts_hold_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0xF1_0001);
    for _ in 0..20 {
        let (synth, window, r) = rand_case(&mut rng);
        let design = synthesize(&synth);
        let config = FlowConfig::new(window, r).expect("config");
        let ctx = FlowContext::build(&design, &config).expect("context");

        let normal = ctx.run(&config, &NormalFill).expect("normal");
        let greedy = ctx.run(&config, &GreedyFill).expect("greedy");
        let ilp2 = ctx
            .run_pool(&config, &IlpTwo, &WorkerPool::new(4))
            .expect("ilp2");

        for outcome in [&normal, &greedy, &ilp2] {
            // Budget contract (definition III never falls short).
            assert_eq!(outcome.placed_features, outcome.budget_total);
            assert_eq!(outcome.shortfall, 0);
            assert_eq!(outcome.impact.unlocated_features, 0);
            // DRC contract.
            let report = check_fill(&design, config.layer, &outcome.features);
            assert!(
                report.is_clean(),
                "{}: {:?}",
                outcome.method,
                &report.violations[..report.violations.len().min(3)]
            );
            // Density bound contract.
            assert!(
                outcome.density_after.max_window_density
                    <= config
                        .max_density
                        .max(outcome.density_before.max_window_density)
                        + 1e-9
            );
        }

        // Identical density quality across methods.
        assert_eq!(
            normal.density_after.min_window_density,
            ilp2.density_after.min_window_density
        );

        // The optimizer never loses to random placement (a strict win is
        // not guaranteed on degenerate cases with trivial budgets).
        if ilp2.budget_total > 50 {
            assert!(
                ilp2.impact.total_delay <= normal.impact.total_delay + 1e-24,
                "ilp2 {} vs normal {}",
                ilp2.impact.total_delay,
                normal.impact.total_delay
            );
        }

        // Determinism across thread counts.
        let again = ctx.run(&config, &IlpTwo).expect("ilp2 again");
        assert_eq!(again.features, ilp2.features);
    }
}

#[test]
fn definitions_capacity_ordering_holds() {
    let mut rng = StdRng::seed_from_u64(0xF1_0002);
    for _ in 0..12 {
        let (synth, window, r) = rand_case(&mut rng);
        let design = synthesize(&synth);
        let mut config = FlowConfig::new(window, r).expect("config");
        let mut placed = Vec::new();
        for def in [
            SlackColumnDef::One,
            SlackColumnDef::Two,
            SlackColumnDef::Three,
        ] {
            config.def = def;
            let ctx = FlowContext::build(&design, &config).expect("context");
            let o = ctx.run(&config, &GreedyFill).expect("run");
            placed.push(o.placed_features);
        }
        // I places no more than II; III always places the full budget.
        assert!(
            placed[0] <= placed[1] + 8,
            "I {} vs II {}",
            placed[0],
            placed[1]
        );
        assert!(placed[2] >= placed[0]);
    }
}
