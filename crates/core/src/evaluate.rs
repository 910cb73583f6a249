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
use pilfill_exec::WorkerPool;
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

/// One adjacent line's share of a column's contribution: the Elmore delay
/// increment, its weighted variant, and the net it charges.
#[derive(Debug, Clone, Copy)]
struct LineHit {
    dtau: f64,
    weighted_dtau: f64,
    net: Option<NetId>,
}

impl LineHit {
    /// Filler for unused `hits` slots (never folded: `n_hits` bounds the
    /// walk).
    const ZERO: Self = Self {
        dtau: 0.0,
        weighted_dtau: 0.0,
        net: None,
    };
}

/// The pure, order-independent contribution of one occupied slack column,
/// as a flat fixed-size record: the sharded evaluator's `pool.map` writes
/// these into a dense array (one slot per occupied column) that the serial
/// fold then streams in ascending column order, pinning down the f64
/// addition sequence. A free column carries only `free`; a column whose
/// defensive clamp zeroed the count carries nothing; a line-pair column
/// sets `paired` and fills `dcap` plus `n_hits` adjacent-line delay shares
/// (below first, then above — the serial iteration order).
#[derive(Debug, Clone, Copy)]
struct Contribution {
    /// `true` for line-pair columns: `dcap` and `hits[..n_hits]` carry
    /// data.
    paired: bool,
    /// Valid prefix length of `hits` (0..=2).
    n_hits: u8,
    /// Features in a column with no line pair: zero delay, counted free.
    free: u64,
    /// Exact incremental coupling capacitance of the column's line pair.
    dcap: f64,
    hits: [LineHit; 2],
}

impl Contribution {
    /// A zero record: no free features, no line-pair data.
    const EMPTY: Self = Self {
        paired: false,
        n_hits: 0,
        free: 0,
        dcap: 0.0,
        hits: [LineHit::ZERO; 2],
    };
}

/// Computes one column's [`Contribution`] for `m` located features.
fn column_contribution(
    col: &SlackColumn,
    m: u32,
    lines: &[ActiveLine],
    model: &CouplingModel,
    rules: FillRules,
) -> Contribution {
    let mut out = Contribution::EMPTY;
    let Some(d) = col.distance() else {
        out.free = u64::from(m);
        return out;
    };
    // Defensive clamp: placements from per-tile scans may exceed the
    // global slot count by a feature or two near tile cuts; never let
    // the metal close the gap in the model.
    let max_m = pilfill_geom::units::saturating_count(
        u64::try_from((d - 1) / rules.feature_size).unwrap_or(0),
    );
    let m = m.min(max_m);
    if m == 0 {
        return out;
    }
    out.paired = true;
    out.dcap = model.delta_cap_exact(m, d, rules.feature_size);
    let x = col.feature_x(rules) + rules.feature_size / 2;
    for idx in [col.below, col.above].into_iter().flatten() {
        // u32 -> usize is widening on every supported target.
        let line = &lines[idx as usize]; // pilfill: allow(as-cast)
        let dtau = out.dcap * line.res_at(x);
        out.hits[usize::from(out.n_hits)] = LineHit {
            dtau,
            weighted_dtau: f64::from(line.weight) * dtau,
            net: line.net,
        };
        out.n_hits += 1;
    }
    out
}

/// Evaluates `features` against the global slack columns.
///
/// `num_nets` sizes the per-net vector; `bounds`/`rules` must match the
/// scan that produced `columns`.
///
/// With a `pool`, the per-column contribution work is sharded across its
/// lanes: each occupied column's contribution (capacitance, per-line
/// delay shares) is a pure function of that column alone, computed into
/// its own slot, and the accumulators are then folded serially in global
/// column order — the exact f64 addition sequence of the serial
/// evaluator. Without one, contributions stream straight into the fold.
/// The result is bit-identical either way, for every lane count.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_placement(
    features: &[FillFeature],
    columns: &[SlackColumn],
    lines: &[ActiveLine],
    bounds: Rect,
    tech: &Tech,
    rules: FillRules,
    num_nets: usize,
    pool: Option<&WorkerPool>,
) -> DelayImpact {
    let model = CouplingModel::new(tech);
    let mut counts = vec![0u32; columns.len()];
    let mut unlocated = 0u64;
    for &f in features {
        match crate::scan::locate_feature(columns, bounds, rules, f) {
            Some(i) => counts[i] += 1,
            None => unlocated += 1,
        }
    }

    // The fold is serial in both modes and always runs in ascending
    // column order, so the f64 accumulation sequence is fixed by the
    // column index, never by scheduling.
    let mut total = 0.0;
    let mut weighted = 0.0;
    let mut total_cap = 0.0;
    let mut free = 0u64;
    let mut per_net = vec![0.0f64; num_nets];
    let mut per_net_cap = vec![0.0f64; num_nets];
    {
        let mut fold = |c: Contribution| {
            free += c.free;
            if !c.paired {
                return;
            }
            total_cap += c.dcap;
            for hit in &c.hits[..usize::from(c.n_hits)] {
                total += hit.dtau;
                weighted += hit.weighted_dtau;
                if let Some(net) = hit.net {
                    per_net[net.0] += hit.dtau;
                    per_net_cap[net.0] += c.dcap;
                }
            }
        };
        match pool {
            Some(pool) => {
                // Dense worklist of occupied columns, ascending; each pure
                // contribution lands in its own disjoint slot before the
                // ordered fold replays the serial addition sequence.
                let occupied: Vec<usize> = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m > 0)
                    .map(|(i, _)| i)
                    .collect();
                let contributions = pool.map(occupied.len(), |k| {
                    let ci = occupied[k];
                    column_contribution(&columns[ci], counts[ci], lines, &model, rules)
                });
                contributions.into_iter().for_each(&mut fold);
            }
            // Serial: stream each contribution straight into the fold, no
            // worklist or slot vector.
            None => counts
                .iter()
                .enumerate()
                .filter(|(_, &m)| m > 0)
                .for_each(|(ci, &m)| {
                    fold(column_contribution(&columns[ci], m, lines, &model, rules))
                }),
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
            None,
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
    fn sharded_evaluation_is_bit_identical_for_every_shard_count() {
        use pilfill_layout::synth::{synthesize, SynthConfig};
        // A dense placement on a seeded synthetic design: one feature in
        // every slot of every column, so every contribution variant
        // (paired, boundary-free) is exercised.
        let d = synthesize(&SynthConfig::small_test(7));
        let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
        let columns = scan_slack_columns(&lines, d.die, d.rules);
        let features: Vec<FillFeature> = columns
            .iter()
            .flat_map(|c| {
                c.slots.iter().map(|y| FillFeature {
                    x: c.feature_x(d.rules),
                    y,
                })
            })
            .collect();
        assert!(features.len() > 100, "dense placement expected");
        let serial = evaluate_placement(
            &features,
            &columns,
            &lines,
            d.die,
            &d.tech,
            d.rules,
            d.nets.len(),
            None,
        );
        for shards in 1..=8 {
            let pool = WorkerPool::new(shards);
            let sharded = evaluate_placement(
                &features,
                &columns,
                &lines,
                d.die,
                &d.tech,
                d.rules,
                d.nets.len(),
                Some(&pool),
            );
            // Bit-identical, including every f64 accumulator: the fold
            // order is the column order regardless of shard count.
            assert_eq!(serial, sharded, "{shards} shards");
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
