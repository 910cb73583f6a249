//! Bounded Greedy: Figure 8 plus the footnote fix.
//!
//! The paper notes that plain Greedy "will tend to insert fill close to the
//! active line with minimum resistance", which in pathological cases
//! concentrates the delay increase on a single net — worse for cycle time
//! than random fill; "this can be circumvented by placing an upper bound on
//! the added net delay". This method implements that bound: greedy fill in
//! Figure-8 order that tracks the delay added to each *net* so far (within
//! the tile) and skips any column whose saturation would push an adjacent
//! net over `max_net_delay`. If the bound leaves too little room for the
//! budget it is relaxed for the remainder — density targets always win.

use super::{check_budget, FillMethod, MethodError};
use crate::TileProblem;
use pilfill_layout::NetId;
use pilfill_prng::rngs::StdRng;
use std::collections::HashMap;

/// Greedy with an upper bound on the delay added to any single net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedGreedy {
    /// Maximum exact delay (seconds) fill in this tile may add to one net
    /// before that net's remaining columns are deferred.
    pub max_net_delay: f64,
}

impl BoundedGreedy {
    /// Creates the method with the given per-net delay bound.
    pub fn new(max_net_delay: f64) -> Self {
        Self { max_net_delay }
    }
}

impl FillMethod for BoundedGreedy {
    fn name(&self) -> &'static str {
        "Greedy-bounded"
    }

    fn place(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        _rng: &mut StdRng,
    ) -> Result<Vec<u32>, MethodError> {
        check_budget(problem, budget)?;
        let mut counts = vec![0u32; problem.columns.len()];
        let score = |i: usize| -> f64 {
            let c = &problem.columns[i];
            c.cost_exact(c.capacity(), weighted)
        };
        let mut order: Vec<usize> = (0..problem.columns.len())
            .filter(|&i| problem.columns[i].capacity() > 0)
            .collect();
        order.sort_by(|&a, &b| score(a).total_cmp(&score(b)).then(a.cmp(&b)));

        // Accumulated added delay per net (within this tile). A column's
        // full cost is attributed to each adjacent net — matching how the
        // evaluator charges both coupling partners.
        let mut net_delay: HashMap<NetId, f64> = HashMap::new();
        let mut left = budget;
        let mut deferred: Vec<usize> = Vec::new();
        for &i in &order {
            if left == 0 {
                break;
            }
            let col = &problem.columns[i];
            let take = left.min(col.capacity());
            let cost = col.cost_exact(take, weighted);
            let over = col
                .adjacent_nets
                .iter()
                .any(|n| net_delay.get(n).copied().unwrap_or(0.0) + cost > self.max_net_delay);
            if over {
                deferred.push(i);
                continue;
            }
            counts[i] = take;
            left -= take;
            for n in &col.adjacent_nets {
                *net_delay.entry(*n).or_insert(0.0) += cost;
            }
        }
        // The density budget always wins: relax the bound if needed, still
        // in cheapest-first order.
        for &i in &deferred {
            if left == 0 {
                break;
            }
            let take = left.min(problem.columns[i].capacity());
            counts[i] = take;
            left -= take;
        }
        debug_assert_eq!(left, 0);
        Ok(counts)
    }
}

/// Added delay per net of an assignment under the exact per-tile model —
/// the quantity [`BoundedGreedy`] bounds. (Cross-tile per-net attribution
/// is the global evaluator's job.)
pub fn net_delays(problem: &TileProblem, counts: &[u32], weighted: bool) -> HashMap<NetId, f64> {
    let mut out = HashMap::new();
    for (col, &m) in problem.columns.iter().zip(counts) {
        if m == 0 {
            continue;
        }
        let cost = col.cost_exact(m, weighted);
        for n in &col.adjacent_nets {
            *out.entry(*n).or_insert(0.0) += cost;
        }
    }
    out
}

/// Counts how many distinct columns an assignment uses (diagnostics for
/// the ablation harness).
pub fn used_columns(counts: &[u32]) -> usize {
    counts.iter().filter(|&&m| m > 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{assert_valid_assignment, synthetic_tile};
    use crate::methods::GreedyFill;
    use pilfill_prng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn unbounded_limit_matches_plain_greedy() {
        let tile = synthetic_tile(&[(2_000, 4, 3.0), (2_500, 5, 1.0)], 2);
        let plain = GreedyFill.place(&tile, 7, false, &mut rng()).expect("g");
        let bounded = BoundedGreedy::new(f64::INFINITY)
            .place(&tile, 7, false, &mut rng())
            .expect("bg");
        assert_eq!(plain, bounded);
    }

    #[test]
    fn bound_diverts_fill_to_other_nets() {
        // Columns 0 and 1 both couple net 0 (cheapest per Figure-8 order);
        // column 2 couples net 1 and is slightly pricier. Plain greedy
        // saturates both net-0 columns; the per-net bound allows one but
        // not two, diverting the second batch onto net 1.
        use pilfill_layout::NetId;
        let mut tile = synthetic_tile(&[(2_500, 3, 1.0), (2_500, 3, 1.01), (2_500, 3, 1.3)], 0);
        tile.columns[0].adjacent_nets = NetId(0).into();
        tile.columns[1].adjacent_nets = NetId(0).into();
        tile.columns[2].adjacent_nets = NetId(1).into();

        let plain = GreedyFill.place(&tile, 6, false, &mut rng()).expect("g");
        assert_eq!(plain, vec![3, 3, 0]);
        let plain_net0 = net_delays(&tile, &plain, false)[&NetId(0)];

        let bound = tile.columns[0].cost_exact(3, false) * 1.5;
        let bounded = BoundedGreedy::new(bound)
            .place(&tile, 6, false, &mut rng())
            .expect("bg");
        assert_valid_assignment(&tile, &bounded, 6);
        assert_eq!(bounded, vec![3, 0, 3]);
        let delays = net_delays(&tile, &bounded, false);
        assert!(delays[&NetId(0)] <= bound);
        assert!(delays[&NetId(0)] < plain_net0);
    }

    #[test]
    fn bound_relaxed_when_budget_demands() {
        let tile = synthetic_tile(&[(2_000, 4, 1.0)], 1);
        // Bound below any paired-column cost, but budget 5 > free capacity 1.
        let counts = BoundedGreedy::new(0.0)
            .place(&tile, 5, false, &mut rng())
            .expect("bg");
        assert_valid_assignment(&tile, &counts, 5);
        assert_eq!(counts, vec![4, 1]);
    }

    #[test]
    fn net_delays_sum_matches_cost_per_net() {
        let tile = synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 5.0)], 0);
        let counts = vec![4, 1];
        let d = net_delays(&tile, &counts, false);
        assert_eq!(d.len(), 2);
        assert_eq!(
            d[&pilfill_layout::NetId(0)],
            tile.columns[0].cost_exact(4, false)
        );
        assert_eq!(used_columns(&counts), 2);
    }
}
