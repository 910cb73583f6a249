//! Method-independent delay-impact evaluation.
//!
//! Every placement — Normal, Greedy, ILP-I, ILP-II, any slack-column
//! definition — is scored by the same procedure: locate each fill feature
//! in the *global* slack columns, count features per column, compute the
//! exact incremental coupling capacitance `f(m, d)` of the column's line
//! pair, and charge the Elmore delay increment to both lines at the
//! column's position (Eqs. (9) and (13)). Methods that optimize an
//! approximation (ILP-I's linearization, definition II's mis-attribution)
//! are therefore judged by reality, which is how the paper's Table 1 can
//! show ILP-I losing to the Normal baseline.

use crate::{ActiveLine, FillFeature, SlackColumn};
use pilfill_geom::Rect;
use pilfill_layout::{FillRules, NetId, Tech};
use pilfill_rc::CouplingModel;

/// Delay impact of a fill placement.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a delay evaluation is pure; dropping it discards the verdict"]
pub struct DelayImpact {
    /// Total unweighted delay increase over all wire segments, in seconds
    /// (the paper's Table 1 metric).
    pub total_delay: f64,
    /// Downstream-sink-weighted total (the paper's Table 2 metric).
    pub weighted_delay: f64,
    /// Total incremental coupling capacitance, in farads.
    pub total_cap: f64,
    /// Features that landed in zero-impact columns (no line pair).
    pub free_features: u64,
    /// Features that could not be located in any slack column (should be
    /// zero for placements produced by the flow).
    pub unlocated_features: u64,
    /// Per-net unweighted delay increase, indexed by net id.
    pub per_net_delay: Vec<f64>,
    /// Per-net incremental coupling capacitance, indexed by net id (the
    /// quantity the Section-7 capacitance budgets constrain).
    pub per_net_cap: Vec<f64>,
}

impl DelayImpact {
    /// The net with the largest incremental coupling capacitance, with its
    /// value in farads.
    pub fn worst_net_cap(&self) -> Option<(NetId, f64)> {
        self.per_net_cap
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &c)| (NetId(i), c))
    }

    /// The nets whose delay increased most, as `(net, delay)` sorted
    /// descending, truncated to `n`.
    pub fn worst_nets(&self, n: usize) -> Vec<(NetId, f64)> {
        let mut v: Vec<(NetId, f64)> = self
            .per_net_delay
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0.0)
            .map(|(i, &d)| (NetId(i), d))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(n);
        v
    }
}

/// Incremental feature locator over the global slack columns, sorted by
/// `(site_x, gap.lo)` with disjoint gaps per site column.
///
/// A feature's column is the last one whose `(site_x, gap.lo)` key is at
/// most `(site, y)`, if that column shares the site and its gap contains
/// `y`: the same unique column a cold binary search finds. The cursor
/// keeps the previous lookup's partition point and gallops from it (1, 2,
/// 4, ... columns in the direction of the new key) before bisecting the
/// bracket. Flow placements arrive tile by tile with columns ascending
/// and slots stacked per column, so most lookups probe one or two
/// neighbours instead of bisecting the whole column list.
struct ColumnCursor<'a> {
    columns: &'a [SlackColumn],
    bounds: Rect,
    rules: FillRules,
    /// Partition point of the previous lookup.
    at: usize,
}

impl<'a> ColumnCursor<'a> {
    fn new(columns: &'a [SlackColumn], bounds: Rect, rules: FillRules) -> Self {
        Self {
            columns,
            bounds,
            rules,
            at: 0,
        }
    }

    /// Index of the column containing `feature`, or `None` (outside the
    /// bounds, inside a line, or past every column).
    fn locate(&mut self, feature: FillFeature) -> Option<usize> {
        let site = crate::scan::feature_site(self.bounds, self.rules, feature)?;
        let key = (site, feature.y);
        let cols = self.columns;
        let before = |c: &SlackColumn| (c.site_x, c.gap.lo) <= key;
        // Bracket the partition point in [lo, hi]: `before` holds below
        // `lo` and fails from `hi` on.
        let (lo, hi) = if self.at > 0 && !before(&cols[self.at - 1]) {
            // The key moved left of the previous hit.
            let mut hi = self.at - 1;
            let mut step = 1;
            loop {
                if hi < step {
                    break (0, hi);
                }
                let probe = hi - step;
                if before(&cols[probe]) {
                    break (probe + 1, hi);
                }
                hi = probe;
                step *= 2;
            }
        } else {
            let mut lo = self.at;
            let mut step = 1;
            loop {
                let probe = lo + step - 1;
                if probe >= cols.len() {
                    break (lo, cols.len());
                }
                if !before(&cols[probe]) {
                    break (lo, probe);
                }
                lo = probe + 1;
                step *= 2;
            }
        };
        let at = lo + cols[lo..hi].partition_point(before);
        self.at = at;
        let i = at.checked_sub(1)?;
        let col = &cols[i];
        (col.site_x == site && col.gap.contains(feature.y)).then_some(i)
    }
}

/// Evaluates `features` against the global slack columns.
///
/// `num_nets` sizes the per-net vector; `bounds`/`rules` must match the
/// scan that produced `columns`. Columns are scored in ascending order,
/// so the f64 accumulation sequence is fixed by the column index.
pub fn evaluate_placement(
    features: &[FillFeature],
    columns: &[SlackColumn],
    lines: &[ActiveLine],
    bounds: Rect,
    tech: &Tech,
    rules: FillRules,
    num_nets: usize,
) -> DelayImpact {
    let model = CouplingModel::new(tech);
    let mut counts = vec![0u32; columns.len()];
    let mut unlocated = 0u64;
    let mut cursor = ColumnCursor::new(columns, bounds, rules);
    for &f in features {
        match cursor.locate(f) {
            Some(i) => counts[i] += 1,
            None => unlocated += 1,
        }
    }

    let mut total = 0.0;
    let mut weighted = 0.0;
    let mut total_cap = 0.0;
    let mut free = 0u64;
    let mut per_net = vec![0.0f64; num_nets];
    let mut per_net_cap = vec![0.0f64; num_nets];
    for (col, &m) in columns.iter().zip(&counts).filter(|(_, &m)| m > 0) {
        let Some(d) = col.distance() else {
            // No line pair: zero delay, counted free.
            free += u64::from(m);
            continue;
        };
        // Defensive clamp: placements from per-tile scans may exceed the
        // global slot count by a feature or two near tile cuts; never let
        // the metal close the gap in the model.
        let max_m = pilfill_geom::units::saturating_count(
            u64::try_from((d - 1) / rules.feature_size).unwrap_or(0),
        );
        let m = m.min(max_m);
        if m == 0 {
            continue;
        }
        let dcap = model.delta_cap_exact(m, d, rules.feature_size);
        total_cap += dcap;
        let x = col.feature_x(rules) + rules.feature_size / 2;
        for idx in [col.below, col.above].into_iter().flatten() {
            // u32 -> usize is widening on every supported target.
            let line = &lines[idx as usize]; // pilfill: allow(as-cast)
            let dtau = dcap * line.res_at(x);
            total += dtau;
            weighted += f64::from(line.weight) * dtau;
            if let Some(net) = line.net {
                per_net[net.0] += dtau;
                per_net_cap[net.0] += dcap;
            }
        }
    }

    DelayImpact {
        total_delay: total,
        weighted_delay: weighted,
        total_cap,
        free_features: free,
        unlocated_features: unlocated,
        per_net_delay: per_net,
        per_net_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_active_lines, scan_slack_columns};
    use pilfill_geom::{Dir, Point};
    use pilfill_layout::{Design, DesignBuilder, LayerId};

    fn design() -> Design {
        DesignBuilder::new("d", Rect::new(0, 0, 9_000, 9_000))
            .layer("m3", Dir::Horizontal)
            .net("a", Point::new(300, 3_000))
            .segment("m3", Point::new(300, 3_000), Point::new(8_700, 3_000), 280)
            .sink(Point::new(8_700, 3_000))
            .net("b", Point::new(300, 5_000))
            .segment("m3", Point::new(300, 5_000), Point::new(8_700, 5_000), 280)
            .sink(Point::new(8_700, 5_000))
            .build()
            .expect("valid")
    }

    struct Setup {
        design: Design,
        lines: Vec<crate::ActiveLine>,
        columns: Vec<crate::SlackColumn>,
    }

    fn setup() -> Setup {
        let design = design();
        let lines = extract_active_lines(&design, LayerId(0)).expect("lines");
        let columns = scan_slack_columns(&lines, design.die, design.rules);
        Setup {
            design,
            lines,
            columns,
        }
    }

    fn eval(s: &Setup, features: &[FillFeature]) -> DelayImpact {
        evaluate_placement(
            features,
            &s.columns,
            &s.lines,
            s.design.die,
            &s.design.tech,
            s.design.rules,
            s.design.nets.len(),
        )
    }

    /// A feature in the middle of the gap between the two lines.
    fn feature_between(s: &Setup) -> FillFeature {
        let col = s
            .columns
            .iter()
            .find(|c| c.distance().is_some() && !c.slots.is_empty() && c.x >= 2_000)
            .expect("paired column");
        FillFeature {
            x: col.feature_x(s.design.rules),
            y: col.slots.get(col.slots.len() / 2).expect("slot"),
        }
    }

    #[test]
    fn empty_placement_has_zero_impact() {
        let s = setup();
        let impact = eval(&s, &[]);
        assert_eq!(impact.total_delay, 0.0);
        assert_eq!(impact.weighted_delay, 0.0);
        assert_eq!(impact.total_cap, 0.0);
        assert_eq!(impact.free_features, 0);
    }

    #[test]
    fn feature_between_lines_charges_both_nets() {
        let s = setup();
        let impact = eval(&s, &[feature_between(&s)]);
        assert!(impact.total_delay > 0.0);
        assert!(impact.total_cap > 0.0);
        assert!(impact.per_net_delay[0] > 0.0);
        assert!(impact.per_net_delay[1] > 0.0);
        assert_eq!(impact.free_features, 0);
        assert_eq!(impact.unlocated_features, 0);
        // Single-sink nets: weighted equals unweighted.
        assert!((impact.weighted_delay - impact.total_delay).abs() < 1e-30);
    }

    #[test]
    fn feature_far_from_lines_is_free() {
        let s = setup();
        // Top boundary gap: above = None.
        let col = s
            .columns
            .iter()
            .find(|c| c.above.is_none() && !c.slots.is_empty())
            .expect("boundary column");
        let f = FillFeature {
            x: col.feature_x(s.design.rules),
            y: col.slots.last().expect("slots"),
        };
        let impact = eval(&s, &[f]);
        assert_eq!(impact.total_delay, 0.0);
        assert_eq!(impact.free_features, 1);
    }

    #[test]
    fn more_features_in_gap_cost_superlinearly() {
        let s = setup();
        let col_idx = s
            .columns
            .iter()
            .position(|c| c.distance().is_some() && c.slots.len() >= 3 && c.x >= 2_000)
            .expect("column with 3 slots");
        let col = &s.columns[col_idx];
        let make = |k: usize| -> Vec<FillFeature> {
            col.slots
                .iter()
                .take(k)
                .map(|y| FillFeature {
                    x: col.feature_x(s.design.rules),
                    y,
                })
                .collect()
        };
        let d1 = eval(&s, &make(1)).total_delay;
        let d2 = eval(&s, &make(2)).total_delay;
        let d3 = eval(&s, &make(3)).total_delay;
        assert!(d2 > 2.0 * d1, "convexity: {d2} vs 2*{d1}");
        assert!(d3 - d2 > d2 - d1, "marginals increase");
    }

    #[test]
    fn delay_larger_far_from_driver() {
        let s = setup();
        let paired: Vec<&crate::SlackColumn> = s
            .columns
            .iter()
            .filter(|c| c.distance().is_some() && !c.slots.is_empty())
            .collect();
        let near = paired.first().expect("paired");
        let far = paired.last().expect("paired");
        assert!(far.x > near.x);
        let f = |c: &crate::SlackColumn| FillFeature {
            x: c.feature_x(s.design.rules),
            y: c.slots.first().expect("slot"),
        };
        let d_near = eval(&s, &[f(near)]).total_delay;
        let d_far = eval(&s, &[f(far)]).total_delay;
        assert!(
            d_far > d_near,
            "fill downstream must hurt more: {d_far} vs {d_near}"
        );
    }

    #[test]
    fn unlocated_features_are_counted() {
        let s = setup();
        // A position inside a line.
        let f = FillFeature { x: 1_000, y: 2_950 };
        let impact = eval(&s, &[f]);
        assert_eq!(impact.unlocated_features, 1);
    }

    #[test]
    fn extreme_coordinates_are_unlocated_not_overflowed() {
        // A die with a negative origin: `i64::MAX - left` overflows, so the
        // far edges must be rejected before any subtraction.
        let s = setup();
        let bounds = Rect::new(-9_000, -9_000, 9_000, 9_000);
        let columns = scan_slack_columns(&s.lines, bounds, s.design.rules);
        let located = {
            let col = columns
                .iter()
                .find(|c| c.distance().is_some() && !c.slots.is_empty())
                .expect("paired column");
            FillFeature {
                x: col.feature_x(s.design.rules),
                y: col.slots.first().expect("slot"),
            }
        };
        let (min, max) = (i64::MIN, i64::MAX);
        let extremes = [
            FillFeature { x: max, y: 0 },
            FillFeature { x: 0, y: max },
            FillFeature { x: max, y: max },
            FillFeature { x: min, y: 0 },
            FillFeature { x: 0, y: min },
            FillFeature { x: min, y: max },
            FillFeature { x: max, y: min },
            FillFeature { x: 9_000, y: 0 },
            FillFeature { x: 0, y: 9_000 },
        ];
        let mut features = vec![located];
        features.extend(extremes);
        features.push(located);
        let impact = evaluate_placement(
            &features,
            &columns,
            &s.lines,
            bounds,
            &s.design.tech,
            s.design.rules,
            s.design.nets.len(),
        );
        assert_eq!(impact.unlocated_features, extremes.len() as u64);
        assert!(impact.total_cap > 0.0, "the in-die features still count");
        for f in extremes {
            assert_eq!(
                crate::scan::locate_feature(&columns, bounds, s.design.rules, f),
                None,
                "{f:?}"
            );
        }
    }

    /// Seeded oracle suite: the galloping cursor against the cold binary
    /// search of `locate_feature`, over feature sequences in every order
    /// the cursor can meet.
    mod cursor_props {
        use super::super::ColumnCursor;
        use crate::flow::{run_flow, FlowConfig};
        use crate::methods::GreedyFill;
        use crate::scan::locate_feature;
        use crate::{extract_active_lines, scan_slack_columns, FillFeature, SlackColumnDef};
        use pilfill_geom::Rect;
        use pilfill_layout::synth::{synthesize, SynthConfig};
        use pilfill_layout::{FillRules, LayerId};
        use pilfill_prng::rngs::StdRng;
        use pilfill_prng::{Rng, SeedableRng};

        /// One cursor walks `features` in order; every answer must equal
        /// the oracle's.
        fn assert_matches_oracle(
            columns: &[crate::SlackColumn],
            bounds: Rect,
            rules: FillRules,
            features: &[FillFeature],
            tag: &str,
        ) {
            let mut cursor = ColumnCursor::new(columns, bounds, rules);
            for (k, &f) in features.iter().enumerate() {
                assert_eq!(
                    cursor.locate(f),
                    locate_feature(columns, bounds, rules, f),
                    "{tag}: feature {k} {f:?}"
                );
            }
        }

        fn shuffled(features: &[FillFeature], rng: &mut StdRng) -> Vec<FillFeature> {
            let mut v = features.to_vec();
            for i in (1..v.len()).rev() {
                let j = rng.gen_range(0..=i);
                v.swap(i, j);
            }
            v
        }

        #[test]
        fn cursor_locate_matches_the_binary_search_oracle() {
            let mut rng = StdRng::seed_from_u64(0xC0_1055);
            for seed in 1..=4u64 {
                let d = synthesize(&SynthConfig::small_test(seed));
                let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
                let columns = scan_slack_columns(&lines, d.die, d.rules);
                let die = d.die;
                for def in [
                    SlackColumnDef::One,
                    SlackColumnDef::Two,
                    SlackColumnDef::Three,
                ] {
                    let mut config = FlowConfig::new(8_000, 2).expect("config");
                    config.def = def;
                    let flow = run_flow(&d, &config, &GreedyFill).expect("flow").features;
                    assert!(!flow.is_empty(), "seed {seed}: empty placement");
                    let tag = format!("seed {seed} {def}");

                    assert_matches_oracle(&columns, die, d.rules, &flow, &format!("{tag} flow"));
                    let mut rev = flow.clone();
                    rev.reverse();
                    assert_matches_oracle(&columns, die, d.rules, &rev, &format!("{tag} rev"));
                    let shuf = shuffled(&flow, &mut rng);
                    assert_matches_oracle(&columns, die, d.rules, &shuf, &format!("{tag} shuf"));
                    let dup: Vec<FillFeature> = flow.iter().flat_map(|&f| [f, f]).collect();
                    assert_matches_oracle(&columns, die, d.rules, &dup, &format!("{tag} dup"));
                }

                // Random positions over and around the die: inside lines,
                // in gaps, left of, right of, below and above it,
                // interleaved with real slots.
                let slots: Vec<FillFeature> = columns
                    .iter()
                    .flat_map(|c| {
                        c.slots.iter().map(|y| FillFeature {
                            x: c.feature_x(d.rules),
                            y,
                        })
                    })
                    .collect();
                let pad = 3 * d.rules.site_pitch();
                let mut mixed = Vec::new();
                for _ in 0..4_000 {
                    let f = match rng.gen_range(0u32..4) {
                        0 => slots[rng.gen_range(0..slots.len())],
                        1 => {
                            let l = &lines[rng.gen_range(0..lines.len())];
                            FillFeature {
                                x: rng.gen_range(l.rect.left..l.rect.right),
                                y: rng.gen_range(l.rect.bottom..l.rect.top),
                            }
                        }
                        _ => FillFeature {
                            x: rng.gen_range(die.left - pad..die.right + pad),
                            y: rng.gen_range(die.bottom - pad..die.top + pad),
                        },
                    };
                    mixed.push(f);
                }
                let edges = [
                    FillFeature {
                        x: die.left - 1,
                        y: die.bottom,
                    },
                    FillFeature {
                        x: die.right,
                        y: die.bottom,
                    },
                    FillFeature {
                        x: die.left,
                        y: die.top,
                    },
                    FillFeature {
                        x: die.right - 1,
                        y: die.top - 1,
                    },
                    FillFeature {
                        x: die.left,
                        y: die.bottom,
                    },
                ];
                mixed.extend(edges);
                let located = mixed
                    .iter()
                    .filter(|&&f| locate_feature(&columns, die, d.rules, f).is_some())
                    .count();
                assert!(
                    located > 500 && located < mixed.len() - 500,
                    "seed {seed}: mix must hit and miss ({located} of {})",
                    mixed.len()
                );
                assert_matches_oracle(
                    &columns,
                    die,
                    d.rules,
                    &mixed,
                    &format!("seed {seed} mixed"),
                );
                mixed.sort_by_key(|f| (f.x, f.y));
                assert_matches_oracle(
                    &columns,
                    die,
                    d.rules,
                    &mixed,
                    &format!("seed {seed} sorted"),
                );
            }
        }
    }

    #[test]
    fn worst_nets_sorted_descending() {
        let s = setup();
        let impact = eval(&s, &[feature_between(&s)]);
        let worst = impact.worst_nets(5);
        assert_eq!(worst.len(), 2);
        assert!(worst[0].1 >= worst[1].1);
    }
}
