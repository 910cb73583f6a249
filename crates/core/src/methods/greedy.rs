//! The Greedy PIL-Fill method (paper Figure 8): sort columns by the delay
//! a *fully filled* column would cause (`r_hat * Cap_hat`) and fill the
//! cheapest columns to capacity until the budget is met.

use super::{check_budget, FillMethod, MethodError};
use crate::TileProblem;
use pilfill_prng::rngs::StdRng;

/// Figure-8 greedy: whole columns in ascending full-column delay order.
///
/// Note the coarseness the paper acknowledges: the score uses the full
/// column capacity `C_k`, so a column that would be cheap for one feature
/// but expensive when saturated is ranked by its saturated cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyFill;

impl FillMethod for GreedyFill {
    fn name(&self) -> &'static str {
        "Greedy"
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
        // Line 13 of Figure 8: sort by full-capacity delay alpha * Cap(C_k).
        // Each column is scored once. The index breaks ties, so no two
        // entries compare equal and an unstable sort gives the one order.
        let mut order: Vec<(f64, usize)> = problem
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.capacity() > 0)
            .map(|(i, c)| (c.cost_exact(c.capacity(), weighted), i))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Lines 15-19: fill whole columns until the budget is met.
        let mut left = budget;
        for (_, i) in order {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{assert_valid_assignment, synthetic_tile};
    use pilfill_prng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn prefers_free_columns_first() {
        let tile = synthetic_tile(&[(2_000, 5, 1.0)], 5);
        let counts = GreedyFill
            .place(&tile, 5, false, &mut rng())
            .expect("place");
        assert_valid_assignment(&tile, &counts, 5);
        // All five features go into the zero-cost column (index 1).
        assert_eq!(counts, vec![0, 5]);
    }

    #[test]
    fn fills_low_alpha_columns_before_high() {
        let tile = synthetic_tile(&[(2_000, 4, 10.0), (2_000, 4, 1.0)], 0);
        let counts = GreedyFill
            .place(&tile, 4, false, &mut rng())
            .expect("place");
        assert_eq!(counts, vec![0, 4]);
    }

    #[test]
    fn overflows_into_next_cheapest() {
        let tile = synthetic_tile(&[(2_000, 4, 10.0), (2_000, 4, 1.0)], 2);
        let counts = GreedyFill
            .place(&tile, 7, false, &mut rng())
            .expect("place");
        assert_valid_assignment(&tile, &counts, 7);
        // Free column (2 slots) + cheap column (4) + 1 in the expensive one.
        assert_eq!(counts, vec![1, 4, 2]);
    }

    #[test]
    fn weighted_flag_changes_ranking() {
        // Column 0: low unweighted alpha but placed on a heavy line.
        let mut tile = synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.5)], 0);
        tile.columns[0].alpha_weighted = 100.0;
        tile.columns[1].alpha_weighted = 1.5;
        let unweighted = GreedyFill.place(&tile, 4, false, &mut rng()).expect("u");
        let weighted = GreedyFill.place(&tile, 4, true, &mut rng()).expect("w");
        assert_eq!(unweighted, vec![4, 0]);
        assert_eq!(weighted, vec![0, 4]);
    }

    #[test]
    fn zero_budget_places_nothing() {
        let tile = synthetic_tile(&[(2_000, 4, 1.0)], 1);
        let counts = GreedyFill
            .place(&tile, 0, false, &mut rng())
            .expect("place");
        assert!(counts.iter().all(|&c| c == 0));
    }
}
