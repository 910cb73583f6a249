//! End-to-end randomized tests: the full flow on randomly generated
//! designs must satisfy its contracts — exact budgets, DRC cleanliness,
//! determinism, the optimizer not losing to random placement, and a
//! flow outcome's impact (scored from its per-tile counts) equal to the
//! feature-locating evaluator on its features. Driven by the in-repo
//! seeded PRNG so every run explores the same cases.

use pil_fill::core::flow::{FlowConfig, FlowContext};
use pil_fill::core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pil_fill::core::{
    check_fill, evaluate_placement, extract_active_lines, scan_slack_columns, FillFeature,
    SlackColumnDef, WorkerPool,
};
use pil_fill::layout::synth::{synthesize, SynthConfig};
use pil_fill::layout::{Design, LayerId};
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

/// `outcome`'s impact against [`evaluate_placement`] on its features in
/// the working frame (the transposed design for a vertical layer), bit
/// for bit, every field included.
fn assert_impact_matches_the_feature_oracle(
    design: &Design,
    config: &FlowConfig,
    outcome: &pil_fill::core::FlowOutcome,
    tag: &str,
) {
    let vertical = design.layers[config.layer.0].dir.is_vertical();
    let frame = if vertical {
        design.transposed()
    } else {
        design.clone()
    };
    let features: Vec<FillFeature> = outcome
        .features
        .iter()
        .map(|f| {
            if vertical {
                FillFeature { x: f.y, y: f.x }
            } else {
                *f
            }
        })
        .collect();
    let lines = extract_active_lines(&frame, config.layer).expect("lines");
    let columns = scan_slack_columns(&lines, frame.die, frame.rules);
    let oracle = evaluate_placement(
        &features,
        &columns,
        &lines,
        frame.die,
        &frame.tech,
        frame.rules,
        frame.nets.len(),
    );
    let impact = &outcome.impact;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        impact.total_delay.to_bits(),
        oracle.total_delay.to_bits(),
        "{tag}"
    );
    assert_eq!(
        impact.weighted_delay.to_bits(),
        oracle.weighted_delay.to_bits(),
        "{tag}"
    );
    assert_eq!(
        impact.total_cap.to_bits(),
        oracle.total_cap.to_bits(),
        "{tag}"
    );
    assert_eq!(impact.free_features, oracle.free_features, "{tag}");
    assert_eq!(
        impact.unlocated_features, oracle.unlocated_features,
        "{tag}"
    );
    assert_eq!(
        bits(&impact.per_net_delay),
        bits(&oracle.per_net_delay),
        "{tag}"
    );
    assert_eq!(
        bits(&impact.per_net_cap),
        bits(&oracle.per_net_cap),
        "{tag}"
    );
}

/// The flow scores its placements from per-tile counts through a column
/// map recorded at build time; the feature-locating evaluator is the
/// oracle. Every method under every slack-column definition, both
/// budgets, both objectives and both routing directions: the impact must
/// equal the oracle bit for bit, every feature must lie in a global
/// column, the fill must be DRC-clean, every tile
/// must place `min(budget, capacity)`, and per tile ILP-II must match the
/// exact DP within the solver's gap and never lose to Greedy on the
/// lookup-table cost.
#[test]
fn count_scoring_equals_the_feature_oracle() {
    const METHODS: [&dyn FillMethod; 5] = [&NormalFill, &IlpOne, &IlpTwo, &GreedyFill, &DpExact];
    // ILP-II prunes nodes that cannot beat its incumbent by more than
    // this share of the tile's largest full-column cost.
    const GAP_TOL: f64 = 1e-9;
    let mut rng = StdRng::seed_from_u64(0xF1_0003);
    for case in 0..8 {
        let (synth, window, r) = rand_case(&mut rng);
        let design = synthesize(&synth);
        for def in [
            SlackColumnDef::One,
            SlackColumnDef::Two,
            SlackColumnDef::Three,
        ] {
            for (lp_budget, weighted, layer) in [
                (false, false, LayerId(0)),
                (true, true, LayerId(0)),
                (false, true, LayerId(1)),
            ] {
                let mut config = FlowConfig::new(window, r).expect("config");
                config.def = def;
                config.lp_budget = lp_budget;
                config.weighted = weighted;
                config.layer = layer;
                let ctx = FlowContext::build(&design, &config).expect("context");
                let mut tile_costs = Vec::new();
                for method in METHODS {
                    let tag = format!(
                        "case {case} {def} lp {lp_budget} weighted {weighted} {layer:?} {}",
                        method.name()
                    );
                    let outcome = ctx.run(&config, method).expect("run");
                    assert_impact_matches_the_feature_oracle(&design, &config, &outcome, &tag);
                    assert_eq!(outcome.impact.unlocated_features, 0, "{tag}");
                    let report = check_fill(&design, config.layer, &outcome.features);
                    assert!(report.is_clean(), "{tag}: {:?}", report.violations.first());

                    let mut costs = Vec::with_capacity(ctx.problems().len());
                    for (i, p) in ctx.problems().iter().enumerate() {
                        let (counts, _) = ctx.solve_tile(&config, method, i).expect("tile");
                        let want = u64::from(ctx.budget_features(p.cell)).min(p.capacity());
                        let placed: u64 = counts.iter().map(|&m| u64::from(m)).sum();
                        assert_eq!(placed, want, "{tag}: tile {:?}", p.cell);
                        costs.push(p.cost_of(&counts, weighted));
                    }
                    tile_costs.push(costs);
                }
                let [_, _, ilp2, greedy, dp] = &tile_costs[..] else {
                    unreachable!("one cost list per method");
                };
                for (i, p) in ctx.problems().iter().enumerate() {
                    let scale = p
                        .columns
                        .iter()
                        .map(|c| c.cost_exact(c.capacity(), weighted))
                        .fold(0.0f64, f64::max);
                    let tol = GAP_TOL * scale + 1e-12 * dp[i].abs();
                    let tag = format!("case {case} {def} weighted {weighted} tile {:?}", p.cell);
                    assert!(
                        (ilp2[i] - dp[i]).abs() <= tol,
                        "{tag}: ILP-II {} vs DP {}",
                        ilp2[i],
                        dp[i]
                    );
                    assert!(
                        ilp2[i] <= greedy[i] + tol,
                        "{tag}: ILP-II {} vs Greedy {}",
                        ilp2[i],
                        greedy[i]
                    );
                }
            }
        }
    }
}
