//! ILP-I (paper Section 5.2): integer program over per-column counts with
//! the *linearized* capacitance model of Eq. (6).
//!
//! Because the linearization underestimates capacitance — badly so when a
//! column approaches saturation — ILP-I's "optimal" answers can be worse
//! than Greedy's or even Normal's under the exact evaluation model, which
//! is exactly what the paper's Table 1 shows for several testcases.
//!
//! **Solve by selection.** The program is one unit-coefficient row over
//! box-bounded integers, so its LP relaxation is integral at every vertex
//! and its optimum fills the columns in ascending cost. When that fill is
//! the only optimum by [`UNIT_ROW_TIE_MARGIN`], it is returned without a
//! model: the simplex would return exactly it. Near ties still build the
//! model, so the simplex breaks them as it always has, and every count is
//! the one the solver gives.

use super::{check_budget, FillMethod, MethodError};
use crate::{TileColumn, TileProblem};
use pilfill_geom::units;
use pilfill_prng::rngs::StdRng;
use pilfill_solver::{Model, Objective, Sense, UNIT_ROW_TIE_MARGIN};

/// The Section-5.2 integer linear program (Eqs. 10-14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpOne;

impl FillMethod for IlpOne {
    fn name(&self) -> &'static str {
        "ILP-I"
    }

    fn place(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        _rng: &mut StdRng,
    ) -> Result<Vec<u32>, MethodError> {
        check_budget(problem, budget)?;
        if budget == 0 {
            return Ok(vec![0; problem.columns.len()]);
        }
        let scale = cost_scale(problem, weighted);
        match cost_ordered_fill(problem, budget, weighted, scale) {
            (counts, true) => Ok(counts),
            (_, false) => solve_model(problem, budget, weighted, scale),
        }
    }
}

/// The objective scale: the largest per-feature linear cost, so scaled
/// coefficients are at most 1 and the simplex stays well-conditioned
/// (costs are in ohm*farad ~ 1e-18).
fn cost_scale(problem: &TileProblem, weighted: bool) -> f64 {
    let scale = problem
        .columns
        .iter()
        .map(|c| linear_cost(c, weighted))
        .fold(0.0f64, f64::max);
    if scale > 0.0 {
        scale
    } else {
        1.0
    }
}

/// Builds the program with costs divided by `scale` and solves it with
/// branch-and-bound (which stops at the integral root).
fn solve_model(
    problem: &TileProblem,
    budget: u32,
    weighted: bool,
    scale: f64,
) -> Result<Vec<u32>, MethodError> {
    let mut model = Model::new(Objective::Minimize);
    // Eq. (14): integer m_k in [0, C_k]; objective Eqs. (10)+(12)+(13)
    // folded: sum_k alpha_k * linear_cap_k * m_k.
    let vars: Vec<_> = problem
        .columns
        .iter()
        .map(|c| model.add_integer_var(0.0, c.capacity() as f64, linear_cost(c, weighted) / scale))
        .collect();
    // Eq. (11): the prescribed amount of fill.
    model.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, budget as f64);
    let sol = model.solve()?;
    Ok(vars
        .iter()
        .map(|&v| units::saturating_count(sol.int_value(v).max(0) as u64))
        .collect())
}

/// Per-feature linearized delay cost `alpha_k * linear_cap_k` of a column
/// (Eqs. 10+12+13), unscaled.
fn linear_cost(c: &TileColumn, weighted: bool) -> f64 {
    c.alpha(weighted) * c.linear_cap_per_feature
}

/// The cost-ordered fill, and whether it is the program's unique optimum.
///
/// One unit-coefficient row over box-bounded integers is a unit-row
/// program: its LP optimum is integral and fills the columns in ascending
/// scaled cost (ties by index) to capacity until `budget` is met. When the
/// columns the fill touches are separated from every other column by more
/// than [`UNIT_ROW_TIE_MARGIN`] in the scaled costs the simplex sees — the
/// next column costs that much more than the last filled one, and, if the
/// last one is only partly filled, it costs that much more than the one
/// before — that fill is the only optimum, and the simplex returns exactly
/// it. Otherwise (a near tie) the fill is one optimum among several, and
/// the caller solves the model so that the simplex breaks the tie as it
/// always has.
fn cost_ordered_fill(
    problem: &TileProblem,
    budget: u32,
    weighted: bool,
    scale: f64,
) -> (Vec<u32>, bool) {
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(problem.columns.len());
    order.extend(
        problem
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.capacity() > 0)
            .map(|(i, c)| (linear_cost(c, weighted) / scale, i)),
    );
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut counts = vec![0u32; problem.columns.len()];
    let mut left = budget;
    let mut last = 0;
    for (k, &(_, i)) in order.iter().enumerate() {
        let take = left.min(problem.columns[i].capacity());
        counts[i] = take;
        left -= take;
        last = k;
        if left == 0 {
            break;
        }
    }
    debug_assert_eq!(left, 0, "check_budget caps the budget at the capacity");
    let (cost, i) = order[last];
    let partial = counts[i] < problem.columns[i].capacity();
    let clear_below = !partial || last == 0 || cost - order[last - 1].0 > UNIT_ROW_TIE_MARGIN;
    let clear_above = order
        .get(last + 1)
        .is_none_or(|&(next, _)| next - cost > UNIT_ROW_TIE_MARGIN);
    (counts, clear_below && clear_above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{
        assert_valid_assignment, for_each_paper_table_tile, synthetic_tile,
    };
    use pilfill_prng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn hits_budget_exactly() {
        let tile = synthetic_tile(&[(1_500, 3, 2.0), (2_500, 4, 1.0)], 2);
        for budget in [0u32, 1, 5, 9] {
            let counts = IlpOne
                .place(&tile, budget, false, &mut rng())
                .expect("place");
            assert_valid_assignment(&tile, &counts, budget);
        }
    }

    #[test]
    fn prefers_columns_cheap_under_linear_model() {
        // Two identical columns except alpha: lower alpha wins under any
        // monotone cost model.
        let tile = synthetic_tile(&[(2_000, 4, 5.0), (2_000, 4, 1.0)], 0);
        let counts = IlpOne.place(&tile, 4, false, &mut rng()).expect("place");
        assert_eq!(counts, vec![0, 4]);
    }

    #[test]
    fn linearization_can_mislead_vs_exact_cost() {
        // Column A: wide gap (nearly linear); column B: narrow gap where the
        // exact cost explodes at saturation but the linear model stays mild.
        // Per feature (linear): A: alpha 1.0 * lin(d=6000) ; B: alpha scaled
        // so B looks cheaper linearly but is costlier exactly at high m.
        let tile = synthetic_tile(&[(6_000, 8, 1.0), (1_400, 2, 1.15)], 0);
        let ilp1 = IlpOne.place(&tile, 2, false, &mut rng()).expect("ilp1");
        // Under the linear model, B (index 1) is preferred when
        // alpha_B * lin_B < alpha_A * lin_A.
        let lin_cost = |i: usize, m: u32| {
            tile.columns[i].alpha(false) * tile.columns[i].linear_cap_per_feature * m as f64
        };
        if lin_cost(1, 1) < lin_cost(0, 1) {
            assert!(ilp1[1] > 0, "ILP-I should pick the linearly-cheap column");
            // And that choice is worse under the exact model than putting
            // everything in A.
            let alt = vec![2u32, 0];
            assert!(
                tile.cost_of(&ilp1, false) > tile.cost_of(&alt, false),
                "exact model should reveal the ILP-I mistake"
            );
        }
    }

    /// Checks `problem` at `budget` against the model path and returns
    /// whether the closed form decided it.
    fn check(problem: &TileProblem, budget: u32, weighted: bool) -> bool {
        let got = IlpOne
            .place(problem, budget, weighted, &mut rng())
            .expect("place");
        if budget == 0 {
            return false;
        }
        let scale = cost_scale(problem, weighted);
        let want = solve_model(problem, budget, weighted, scale).expect("model");
        let (_, unique) = cost_ordered_fill(problem, budget, weighted, scale);
        assert_eq!(
            got, want,
            "budget {budget} weighted {weighted} unique {unique} tile {:?}",
            problem.cell
        );
        unique
    }

    #[test]
    fn closed_form_matches_the_model_on_the_paper_tables() {
        let (mut unique, mut tiles) = (0usize, 0usize);
        for_each_paper_table_tile(|problem, budget, weighted| {
            unique += usize::from(check(problem, budget, weighted));
            tiles += 1;
        });
        // The closed form decides most budgeted tiles; the rest are near
        // ties that the model breaks.
        assert!(tiles > 1_000, "{tiles} tiles");
        assert!(
            unique * 10 >= tiles * 8,
            "closed form on {unique} of {tiles} tiles"
        );
    }

    #[test]
    fn closed_form_matches_the_model_on_seeded_designs() {
        use crate::flow::{FlowConfig, FlowContext};
        use crate::SlackColumnDef;
        use pilfill_layout::synth::{synthesize, SynthConfig};
        let (mut unique, mut checked) = (0usize, 0usize);
        for seed in [3u64, 11, 29] {
            let design = synthesize(&SynthConfig::small_test(seed));
            for def in [
                SlackColumnDef::One,
                SlackColumnDef::Two,
                SlackColumnDef::Three,
            ] {
                let mut config = FlowConfig::new(8_000, 2).expect("config");
                config.def = def;
                let ctx = FlowContext::build(&design, &config).expect("context");
                for problem in ctx.problems() {
                    let cap = u32::try_from(problem.capacity()).expect("small tile");
                    let flow_budget = ctx.budget_features(problem.cell).min(cap);
                    let mut budgets = vec![flow_budget, 1, cap / 3, cap / 2, cap];
                    budgets.sort_unstable();
                    budgets.dedup();
                    for budget in budgets.into_iter().filter(|&b| b <= cap) {
                        for weighted in [false, true] {
                            unique += usize::from(check(problem, budget, weighted));
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(unique > 100, "{unique} of {checked}");
        assert!(checked > unique + 10, "{unique} of {checked}");
    }

    #[test]
    fn near_ties_fall_back_to_the_model() {
        // Exact duplicates, and columns whose scaled costs differ by 1e-8
        // (well inside the margin), at every budget.
        let tiles = [
            synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.0), (2_000, 4, 1.0)], 0),
            // Tied costs, unequal capacities: the simplex's crash basis
            // puts a whole budget of 3 into the first column that holds
            // it, where the index-ordered fill splits it 2 + 1.
            synthetic_tile(&[(2_000, 2, 1.0), (2_000, 4, 1.0)], 0),
            synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.0 + 1e-8)], 3),
            synthetic_tile(
                &[(2_000, 4, 1.0 + 1e-8), (2_000, 4, 1.0), (5_000, 6, 0.4)],
                2,
            ),
            synthetic_tile(&[], 2),
            {
                let mut t = synthetic_tile(&[(2_000, 4, 1.0)], 3);
                t.columns.push(t.columns[1]);
                t
            },
        ];
        // Index-ordered fills that the model does not return: a margin
        // check that let any of them through would change a result.
        let mut index_fill_differs = 0;
        let mut ties = 0;
        for tile in &tiles {
            let cap = u32::try_from(tile.capacity()).expect("small tile");
            for budget in 1..=cap {
                for weighted in [false, true] {
                    let scale = cost_scale(tile, weighted);
                    let (fill, unique) = cost_ordered_fill(tile, budget, weighted, scale);
                    let want = solve_model(tile, budget, weighted, scale).expect("model");
                    if !unique {
                        ties += 1;
                        index_fill_differs += usize::from(fill != want);
                    }
                    check(tile, budget, weighted);
                }
            }
        }
        assert!(ties > 10, "{ties} near ties");
        assert!(
            index_fill_differs > 0,
            "no near tie where the model differs"
        );
    }

    #[test]
    fn rejects_over_capacity() {
        let tile = synthetic_tile(&[(2_000, 1, 1.0)], 0);
        assert!(matches!(
            IlpOne.place(&tile, 5, false, &mut rng()),
            Err(MethodError::BudgetOverCapacity { .. })
        ));
    }
}
