//! Randomized tests for the PIL-Fill core: scan-line invariants over
//! random line sets, and method contracts over random tile problems.
//! Driven by the in-repo seeded PRNG so every run explores the same
//! cases.

use pilfill_core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_core::{scan_slack_columns, ActiveLine, FillFeature, SlackColumn};
use pilfill_geom::{Coord, Interval, Rect};
use pilfill_layout::{FillRules, NetId, SegmentId, SignalDir};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};

fn rules() -> FillRules {
    FillRules {
        feature_size: 300,
        gap: 150,
        buffer: 150,
    }
}

fn bounds() -> Rect {
    Rect::new(0, 0, 9_000, 9_000)
}

/// Random horizontal, non-overlapping lines inside the bounds.
fn rand_lines(rng: &mut StdRng) -> Vec<ActiveLine> {
    let n = rng.gen_range(0usize..14);
    let mut lines: Vec<ActiveLine> = Vec::new();
    for _ in 0..n {
        let xs = rng.gen_range(0i64..18);
        let track = rng.gen_range(0i64..28);
        let len = rng.gen_range(1i64..18);
        let res = rng.gen_range(0.0f64..20.0);
        let y = 300 + track * 300;
        let rect = Rect::new(xs * 450, y, (xs + len).min(20) * 450, y + 280);
        if rect.is_empty() || rect.right > 9_000 || rect.top > 9_000 {
            continue;
        }
        // Skip overlapping lines (same-layer wires never overlap).
        if lines.iter().any(|l| l.rect.overlaps(&rect)) {
            continue;
        }
        lines.push(ActiveLine {
            net: Some(NetId(lines.len())),
            segment: SegmentId(0),
            rect,
            weight: 1 + (lines.len() as u32 % 3),
            res_per_dbu: 2.5e-4,
            upstream_res: res,
            entry_x: rect.left,
            signal: SignalDir::Increasing,
        });
    }
    lines
}

#[test]
fn scan_slots_never_touch_lines_or_each_other() {
    let mut rng = StdRng::seed_from_u64(0xC0_0001);
    for _ in 0..64 {
        let lines = rand_lines(&mut rng);
        let r = rules();
        let cols = scan_slack_columns(&lines, bounds(), r);
        let mut feature_rects: Vec<Rect> = Vec::new();
        for c in &cols {
            for slot in c.slots.iter() {
                let f = FillFeature {
                    x: c.feature_x(r),
                    y: slot,
                };
                let rect = f.rect(r.feature_size);
                assert!(bounds().contains_rect(&rect));
                for l in &lines {
                    assert!(
                        !rect.overlaps(&l.rect.grown(r.buffer)),
                        "slot {rect} violates buffer to line {}",
                        l.rect
                    );
                }
                feature_rects.push(rect);
            }
        }
        for (i, a) in feature_rects.iter().enumerate() {
            for b in &feature_rects[i + 1..] {
                assert!(!a.overlaps(b), "slots overlap: {a} vs {b}");
            }
        }
    }
}

#[test]
fn scan_gaps_partition_each_site_column() {
    let mut rng = StdRng::seed_from_u64(0xC0_0002);
    for _ in 0..64 {
        let lines = rand_lines(&mut rng);
        let r = rules();
        let b = bounds();
        let cols = scan_slack_columns(&lines, b, r);
        let n_cols = (b.width() / r.site_pitch()) as usize;
        for site in 0..n_cols {
            let gaps: Vec<&SlackColumn> = cols.iter().filter(|c| c.site_x == site).collect();
            // Gaps are disjoint and sorted.
            for pair in gaps.windows(2) {
                assert!(pair[0].gap.hi <= pair[1].gap.lo);
            }
            // Total gap length = column height minus covered length
            // (covered by buffer-expanded lines overlapping this column).
            let x_span = Interval::new(
                b.left + site as Coord * r.site_pitch(),
                b.left + (site as Coord + 1) * r.site_pitch(),
            );
            let mut covered = pilfill_geom::IntervalSet::new();
            for l in &lines {
                let expanded = Rect::new(
                    l.rect.left - r.buffer,
                    l.rect.bottom,
                    l.rect.right + r.buffer,
                    l.rect.top,
                );
                if expanded.x_span().overlaps(x_span) {
                    covered.insert(expanded.y_span());
                }
            }
            let gap_total: Coord = gaps.iter().map(|g| g.gap.len()).sum();
            assert_eq!(
                gap_total,
                b.height() - covered.covered_len_within(b.y_span()),
                "site {}",
                site
            );
        }
    }
}

/// The arena-backed counting-sort sweep must agree with a brute-force
/// per-site occupancy model: per site column, subtract every x-expanded
/// line's y span from the area, then enumerate slots of each maximal free
/// interval with the naive stepping loop.
#[test]
fn scratch_sweep_matches_brute_force_per_site_occupancy() {
    let mut rng = StdRng::seed_from_u64(0xC0_0005);
    let r = rules();
    let b = bounds();
    for _ in 0..64 {
        let lines = rand_lines(&mut rng);
        let cols = scan_slack_columns(&lines, b, r);
        let n_cols = (b.width() / r.site_pitch()) as usize;
        for site in 0..n_cols {
            let x_span = Interval::new(
                b.left + site as Coord * r.site_pitch(),
                b.left + (site as Coord + 1) * r.site_pitch(),
            );
            // Occupied y spans: lines expanded by the buffer in x only
            // (the vertical buffer is enforced per slot).
            let mut covered = pilfill_geom::IntervalSet::new();
            for l in &lines {
                let expanded = Rect::new(
                    l.rect.left - r.buffer,
                    l.rect.bottom,
                    l.rect.right + r.buffer,
                    l.rect.top,
                );
                if expanded.x_span().overlaps(x_span) {
                    covered.insert(expanded.y_span());
                }
            }
            let mut want_slots: Vec<Coord> = Vec::new();
            let mut want_gaps: Vec<Interval> = Vec::new();
            for free in covered.gaps_within(b.y_span()) {
                if free.is_empty() {
                    continue;
                }
                want_gaps.push(free);
                let lo = free.lo + if free.lo > b.bottom { r.buffer } else { 0 };
                let hi = free.hi - if free.hi < b.top { r.buffer } else { 0 };
                let mut y = lo;
                while y + r.feature_size <= hi {
                    want_slots.push(y);
                    y += r.site_pitch();
                }
            }
            let got: Vec<&SlackColumn> = cols.iter().filter(|c| c.site_x == site).collect();
            let got_gaps: Vec<Interval> = got.iter().map(|c| c.gap).collect();
            let got_slots: Vec<Coord> = got.iter().flat_map(|c| c.slots.iter()).collect();
            assert_eq!(got_gaps, want_gaps, "site {site}");
            assert_eq!(got_slots, want_slots, "site {site}");
            // Line-bounded sides must reference real lines.
            for c in &got {
                if let Some(below) = c.below {
                    assert_eq!(lines[below as usize].rect.top, c.gap.lo, "site {site}");
                }
                if let Some(above) = c.above {
                    assert_eq!(lines[above as usize].rect.bottom, c.gap.hi, "site {site}");
                }
            }
        }
    }
}

#[test]
fn methods_hit_budget_and_respect_capacities() {
    use pilfill_core::{build_tile_problems, SlackColumnDef};
    use pilfill_density::FixedDissection;
    use pilfill_layout::Tech;

    let mut rng = StdRng::seed_from_u64(0xC0_0003);
    for _ in 0..32 {
        let lines = rand_lines(&mut rng);
        let budget_frac = rng.gen_range(0.0f64..1.0);
        let weighted = rng.gen::<bool>();
        let r = rules();
        let cols = scan_slack_columns(&lines, bounds(), r);
        let dissection = FixedDissection::new(bounds(), 4_500, 2).expect("dissection");
        let problems = build_tile_problems(
            &lines,
            &cols,
            &dissection,
            &Tech::default_180nm(),
            r,
            SlackColumnDef::Three,
        );
        let methods: Vec<&dyn FillMethod> =
            vec![&NormalFill, &GreedyFill, &IlpOne, &IlpTwo, &DpExact];
        for p in problems.iter().take(4) {
            let cap = p.capacity();
            let budget = (cap as f64 * budget_frac).floor() as u32;
            for m in &methods {
                let mut mrng = StdRng::seed_from_u64(7);
                let counts = m
                    .place(p, budget, weighted, &mut mrng)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", m.name()));
                assert_eq!(counts.len(), p.columns.len());
                assert_eq!(
                    counts.iter().map(|&c| c as u64).sum::<u64>(),
                    budget as u64,
                    "{} must hit the budget",
                    m.name()
                );
                for (c, &got) in p.columns.iter().zip(&counts) {
                    assert!(got <= c.capacity());
                }
            }
        }
    }
}

#[test]
fn optimizers_never_beat_dp_on_model_cost() {
    use pilfill_core::{build_tile_problems, SlackColumnDef};
    use pilfill_density::FixedDissection;
    use pilfill_layout::Tech;

    let mut rng = StdRng::seed_from_u64(0xC0_0004);
    for _ in 0..32 {
        let lines = rand_lines(&mut rng);
        let budget_frac = rng.gen_range(0.1f64..0.9);
        let r = rules();
        let cols = scan_slack_columns(&lines, bounds(), r);
        let dissection = FixedDissection::new(bounds(), 4_500, 2).expect("dissection");
        let problems = build_tile_problems(
            &lines,
            &cols,
            &dissection,
            &Tech::default_180nm(),
            r,
            SlackColumnDef::Three,
        );
        for p in problems.iter().take(2) {
            let budget = (p.capacity() as f64 * budget_frac).floor() as u32;
            let mut mrng = StdRng::seed_from_u64(3);
            let dp = DpExact.place(p, budget, false, &mut mrng).expect("dp");
            let dp_cost = p.cost_of(&dp, false);
            for m in [
                &IlpTwo as &dyn FillMethod,
                &GreedyFill,
                &IlpOne,
                &NormalFill,
            ] {
                let counts = m.place(p, budget, false, &mut mrng).expect("place");
                let cost = p.cost_of(&counts, false);
                assert!(
                    cost >= dp_cost - 1e-9 * (1.0 + dp_cost.abs()),
                    "{} ({cost}) beat the exact optimum ({dp_cost})",
                    m.name()
                );
            }
            // ILP-II must also *match* the optimum.
            let ilp2 = IlpTwo.place(p, budget, false, &mut mrng).expect("ilp2");
            let c2 = p.cost_of(&ilp2, false);
            assert!(
                (c2 - dp_cost).abs() <= 1e-6 * (1.0 + dp_cost.abs()),
                "ilp2 {c2} vs dp {dp_cost}"
            );
        }
    }
}

#[test]
fn one_hot_optimum_matches_dp_on_extracted_tiles_under_all_defs() {
    use pilfill_core::{build_tile_problems, SlackColumnDef};
    use pilfill_density::FixedDissection;
    use pilfill_layout::Tech;
    use pilfill_solver::{Model, Objective, Sense};

    // One-hot ILP-II model (paper Eq. 15-23 shape) straight from the tile
    // tables; `DpExact` is the exact optimum of the same cost model.
    fn one_hot_model(p: &pilfill_core::TileProblem, budget: u32) -> Model {
        let mut m = Model::new(Objective::Minimize);
        let mut budget_terms = Vec::new();
        for col in &p.columns {
            let vars: Vec<_> = (0..=col.capacity().min(budget))
                .map(|n| m.add_binary_var(col.cost_exact(n, false)))
                .collect();
            m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
            budget_terms.extend(vars.iter().enumerate().map(|(n, &v)| (v, n as f64)));
        }
        m.add_constraint(budget_terms, Sense::Eq, f64::from(budget));
        m
    }

    let mut rng = StdRng::seed_from_u64(0xC0_0005);
    let mut compared = 0usize;
    for _ in 0..12 {
        let lines = rand_lines(&mut rng);
        let budget_frac = rng.gen_range(0.2f64..0.8);
        let r = rules();
        let cols = scan_slack_columns(&lines, bounds(), r);
        let dissection = FixedDissection::new(bounds(), 4_500, 2).expect("dissection");
        for def in [
            SlackColumnDef::One,
            SlackColumnDef::Two,
            SlackColumnDef::Three,
        ] {
            let problems =
                build_tile_problems(&lines, &cols, &dissection, &Tech::default_180nm(), r, def);
            for p in problems.iter().filter(|p| p.capacity() > 0).take(2) {
                let budget = (p.capacity() as f64 * budget_frac).floor() as u32;
                if budget == 0 {
                    continue;
                }
                let mut mrng = StdRng::seed_from_u64(11);
                let dp = DpExact.place(p, budget, false, &mut mrng).expect("dp");
                let dp_cost = p.cost_of(&dp, false);
                let tol = 1e-6 * (1.0 + dp_cost.abs());
                let one_hot = one_hot_model(p, budget).solve().expect("one-hot solvable");
                assert!(
                    (one_hot.objective - dp_cost).abs() <= tol,
                    "{def}: one-hot optimum {} vs dp {dp_cost}",
                    one_hot.objective
                );
                // The production path (IlpTwo) must land on the same
                // optimum.
                let counts = IlpTwo.place(p, budget, false, &mut mrng).expect("ilp2");
                let cost = p.cost_of(&counts, false);
                assert!(
                    (cost - dp_cost).abs() <= tol,
                    "{def}: ilp2 cost {cost} vs dp {dp_cost}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared >= 16, "too few non-trivial tiles: {compared}");
}
