//! ILP-II (paper Section 5.3): the lookup-table integer program, with
//! exact incremental capacitances `f(n, d_k)` from the pre-built
//! [`CapTable`] (Eqs. 15-23), so the optimizer sees the true convex cost
//! curve instead of ILP-I's linearization.
//!
//! The model is compacted before solving. When every costed column's
//! scaled cost table is convex — the physical case, since [`CapTable`]
//! marginals grow with crowding — the paper's one-hot binaries `m_{k,n}`
//! are replaced by *incremental* binaries `z_{k,n}` whose objective
//! coefficient is the `n`-th marginal `f(n) - f(n-1)`. Nondecreasing
//! marginals make prefix selections (set `z_{k,1..=c}`) the cheapest way
//! to reach any cardinality `c`, and every prefix selection telescopes to
//! the exact table cost, so the compact model has the same optimum as the
//! one-hot model (a standard exchange argument). The payoff is the
//! constraint matrix: the per-column convexity rows vanish and only the
//! single budget row remains, turning the root relaxation into a
//! one-row knapsack that the simplex solves in a handful of pivots
//! instead of the dense LP that used to dominate per-tile runtime. A
//! non-convex table (possible only through rounding at the scale floor)
//! falls back to the one-hot encoding, which stays exact unconditionally.
//!
//! Branch-and-bound is warm-started from the greedy placement: the greedy
//! counts are feasible, and their exact objective seeds the search's
//! pruning level ([`pilfill_solver::MilpOptions::cutoff`]). When nothing
//! beats the cutoff the greedy counts are returned as-is (optimal to
//! within the pruning tolerance).
//!
//! **Root relaxation by selection.** Under the incremental encoding the
//! root relaxation is one unit-coefficient row over `[0, 1]` binaries plus
//! a zero-cost free aggregate, so with nonnegative marginals its optimum
//! is closed-form: the free aggregate takes `min(F, free_cap)` features
//! and the `need = F - min(F, free_cap)` smallest marginals take the rest.
//! A selection (`select_nth_unstable_by`) finds that sum and the
//! `(need + 1)`-th marginal without a sort, and gives one of three
//! answers:
//!
//! - *prune*: the sum clears the search's own pruning test — `bound >=
//!   cutoff - gap_tol` — by a margin `delta` that covers the summation
//!   round-off. The search would prune its root and report
//!   [`SolveError::Cutoff`], so the greedy counts are returned without
//!   building the model. Any simplex objective at a feasible vertex is at
//!   least the true optimum (less round-off), so this is a tile the search
//!   would have cut off.
//! - *unique*: the sum is below the pruning level by `delta` and the
//!   `(need + 1)`-th marginal exceeds the `need`-th by more than
//!   [`UNIT_ROW_TIE_MARGIN`]. Then the selection is the relaxation's only
//!   optimum and the simplex returns exactly it (see the margin's docs);
//!   it is integral, so the search takes it as its incumbent at the root.
//!   Each costed column takes its marginals at or below the threshold, and
//!   the free aggregate goes first-fit over the free columns in index
//!   order, as the search's counts are extracted.
//! - *search*: anything else — a near tie, a bound within `delta` of the
//!   pruning level, a non-convex table or a negative marginal — builds the
//!   model and runs branch-and-bound, so its counts still come from the
//!   simplex.
//!
//! The counts are the search's in every case; only the reported
//! [`BranchBoundStats`] differ, since a tile decided by selection runs no
//! search.

use super::{check_budget, FillMethod, GreedyFill, MethodError};
use crate::{TileColumn, TileProblem};
use pilfill_geom::units;
use pilfill_prng::rngs::StdRng;
use pilfill_solver::{
    BranchBoundStats, MilpOptions, Model, Objective, Sense, SolveError, VarId, UNIT_ROW_TIE_MARGIN,
};

/// The Section-5.3 lookup-table ILP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpTwo;

impl FillMethod for IlpTwo {
    fn name(&self) -> &'static str {
        "ILP-II"
    }

    fn place(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, MethodError> {
        self.place_with_stats(problem, budget, weighted, rng)
            .map(|(counts, _)| counts)
    }
}

impl IlpTwo {
    /// Like [`FillMethod::place`], but also reports the branch-and-bound
    /// search statistics (nodes, pivots, LU refactorizations) — the
    /// benchmark harness records these as solver-effort observability
    /// counters. Stats are reported even when the greedy incumbent
    /// survives the cutoff search; a tile the root selection decides runs
    /// no search and reports zero stats.
    ///
    /// # Errors
    ///
    /// Same contract as [`FillMethod::place`].
    pub fn place_with_stats(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<(Vec<u32>, BranchBoundStats), MethodError> {
        check_budget(problem, budget)?;
        if budget == 0 {
            return Ok((vec![0; problem.columns.len()], BranchBoundStats::default()));
        }
        let costs = TileCosts::new(problem, weighted);
        let (mut counts, cutoff) = costs.greedy_incumbent(problem, budget, rng)?;
        let options = MilpOptions {
            cutoff: Some(cutoff),
            ..MilpOptions::default()
        };
        match costs.root_selection(budget, cutoff - options.gap_tol) {
            RootSelection::Prunes => Ok((counts, BranchBoundStats::default())),
            RootSelection::Unique { threshold } => {
                costs.selected_counts(problem, budget, threshold, &mut counts);
                Ok((counts, BranchBoundStats::default()))
            }
            RootSelection::Search => costs.branch_and_bound(problem, budget, counts, &options),
        }
    }
}

/// `true` for a zero-cost column: no line pair, or a zero delay
/// coefficient.
fn is_free(c: &TileColumn, weighted: bool) -> bool {
    // Exact zero is the sentinel for "no adjacent line charged", set —
    // never computed — upstream; an epsilon would misclassify real
    // low-resistance columns. pilfill: allow(float-eq)
    c.table.is_none() || c.alpha(weighted) == 0.0
}

/// What the root relaxation, solved by selection, says about a tile.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RootSelection {
    /// The relaxation cannot beat the greedy cutoff: the search would
    /// prune its root, so the greedy counts stand.
    Prunes,
    /// The relaxation's optimum is unique, integral and clearly below the
    /// pruning level: the search would return it from its root. A costed
    /// column's count is its number of marginals at or below `threshold`.
    Unique {
        /// The `need`-th smallest marginal (0 when `need` is 0).
        threshold: f64,
    },
    /// Neither is certain: run branch-and-bound.
    Search,
}

/// The per-tile data the root selection and the model build both read:
/// the free aggregate's capacity, the objective scale and every costed
/// column's scaled marginal costs.
struct TileCosts {
    weighted: bool,
    /// Summed capacity of the free columns.
    free_cap: u64,
    /// Objective scale: the largest full-column cost (costs are in
    /// ohm*farad ~ 1e-18).
    scale: f64,
    /// The scaled marginals `m_n = (f(n) - f(n-1)) / scale`, n = 1..=C_k,
    /// of every costed column in column order ([`TileCosts::per_column`]
    /// splits them back up).
    marginals: Vec<f64>,
    /// Every costed column's marginals are nondecreasing (within
    /// round-off), so the incremental encoding is exact.
    convex: bool,
}

impl TileCosts {
    fn new(problem: &TileProblem, weighted: bool) -> Self {
        // Model reduction: zero-cost columns are interchangeable, so they
        // collapse into a single aggregate integer variable. This keeps the
        // binary count proportional to the *costed* columns only, which is
        // what makes the per-tile ILPs tractable on large sparse tiles. The
        // reduction is exact: any distribution of the aggregate over free
        // columns is optimal.
        let free_cap: u64 = problem
            .columns
            .iter()
            .filter(|c| is_free(c, weighted))
            .map(|c| c.capacity() as u64)
            .sum();

        // Objective scaling (costs are in ohm*farad ~ 1e-18).
        let max_cost = problem
            .columns
            .iter()
            .filter(|c| c.capacity() > 0 && !is_free(c, weighted))
            .map(|c| c.cost_exact(c.capacity(), weighted))
            .fold(0.0f64, f64::max);
        let scale = if max_cost > 0.0 { max_cost } else { 1.0 };

        // The costed columns hold the capacity the free ones do not.
        let mut marginals =
            Vec::with_capacity(usize::try_from(problem.capacity() - free_cap).unwrap_or(0));
        // Tolerance in scaled space (all costs are in [0, 1] there): a
        // marginal may dip below its predecessor by round-off without
        // breaking the exchange argument in any measurable way.
        const CONVEX_EPS: f64 = 1e-12;
        // The incremental encoding is exact iff the marginals are
        // nondecreasing within every column (convexity).
        let mut convex = true;
        for col in problem.columns.iter().filter(|c| !is_free(c, weighted)) {
            let alpha = col.alpha(weighted);
            let Some(table) = &col.table else { continue };
            let start = marginals.len();
            marginals.extend((1..=col.capacity()).map(|n| alpha * table.marginal(n) / scale));
            let ms = &marginals[start..];
            convex &= ms.windows(2).all(|w| w[1] + CONVEX_EPS >= w[0])
                && ms.iter().all(|&m| m >= -CONVEX_EPS);
        }
        Self {
            weighted,
            free_cap,
            scale,
            marginals,
            convex,
        }
    }

    /// Per column, its scaled marginals; `None` for free columns.
    fn per_column<'a>(
        &'a self,
        problem: &'a TileProblem,
    ) -> impl Iterator<Item = Option<&'a [f64]>> + 'a {
        let mut rest = self.marginals.as_slice();
        problem.columns.iter().map(move |col| {
            if is_free(col, self.weighted) {
                return None;
            }
            let (ms, tail) = rest.split_at(units::index(col.capacity().into()));
            rest = tail;
            Some(ms)
        })
    }

    /// The greedy warm start and its scaled cost, the search's cutoff.
    ///
    /// Greedy is deterministic, feasible for the same budget row (it
    /// places exactly `budget` features within column capacities), and
    /// usually optimal on sparse tiles. Its exact objective is evaluated
    /// by the same tables the model costs with, in the same `scale`.
    fn greedy_incumbent(
        &self,
        problem: &TileProblem,
        budget: u32,
        rng: &mut StdRng,
    ) -> Result<(Vec<u32>, f64), MethodError> {
        let counts = GreedyFill.place(problem, budget, self.weighted, rng)?;
        let cost = problem.cost_of(&counts, self.weighted) / self.scale;
        Ok((counts, cost))
    }

    /// Solves the compact model's root relaxation by selection and says
    /// what branch-and-bound would do with it, given the search's pruning
    /// level `level = cutoff - gap_tol`.
    ///
    /// Applies only to the incremental encoding with nonnegative
    /// marginals; every other tile answers [`RootSelection::Search`]. The
    /// relaxation's optimum is the sum of the `need` smallest marginals
    /// (see the module docs); the margin `delta` bounds the difference
    /// between this sum and the simplex's objective, which are the same
    /// quantity summed in different orders. The optimum is unique when
    /// the `(need + 1)`-th smallest marginal clears the `need`-th (or,
    /// for `need = 0`, the free aggregate's zero cost) by
    /// [`UNIT_ROW_TIE_MARGIN`].
    fn root_selection(&self, budget: u32, level: f64) -> RootSelection {
        if !self.convex {
            return RootSelection::Search;
        }
        let mut sel = self.marginals.clone();
        if !sel.iter().all(|&m| m >= 0.0) {
            return RootSelection::Search;
        }
        // The free aggregate takes what it can; the binaries take the rest.
        let Ok(need) = usize::try_from(u64::from(budget).saturating_sub(self.free_cap)) else {
            return RootSelection::Search;
        };
        // `check_budget` caps the budget at the tile capacity, so the
        // costed columns always hold `need` features.
        debug_assert!(need <= sel.len());
        let delta = 1e-12 * (1.0 + sel.iter().sum::<f64>());
        let min = |ms: &[f64]| ms.iter().copied().fold(f64::INFINITY, f64::min);
        let (bound, threshold, next) = match need.checked_sub(1) {
            None => (0.0, 0.0, min(&sel)),
            Some(last) => {
                let (smallest, nth, larger) = sel.select_nth_unstable_by(last, f64::total_cmp);
                (smallest.iter().sum::<f64>() + *nth, *nth, min(larger))
            }
        };
        if bound >= level + delta {
            RootSelection::Prunes
        } else if bound < level - delta && next - threshold > UNIT_ROW_TIE_MARGIN {
            RootSelection::Unique { threshold }
        } else {
            RootSelection::Search
        }
    }

    /// Writes the [`RootSelection::Unique`] optimum into `counts`: each
    /// costed column takes its marginals at or below `threshold`, and the
    /// free aggregate `min(budget, free_cap)` goes first-fit over the free
    /// columns in index order, as [`TileCosts::branch_and_bound`]
    /// distributes it.
    fn selected_counts(
        &self,
        problem: &TileProblem,
        budget: u32,
        threshold: f64,
        counts: &mut [u32],
    ) {
        let mut free_left = u64::from(budget).min(self.free_cap);
        for ((count, col), ms) in counts
            .iter_mut()
            .zip(&problem.columns)
            .zip(self.per_column(problem))
        {
            *count = match ms {
                Some(ms) => {
                    units::saturating_count(ms.iter().filter(|&&m| m <= threshold).count() as u64)
                }
                None => {
                    let take = units::saturating_count(u64::from(col.capacity()).min(free_left));
                    free_left -= u64::from(take);
                    take
                }
            };
        }
        debug_assert_eq!(
            counts.iter().map(|&c| u64::from(c)).sum::<u64>(),
            u64::from(budget)
        );
    }

    /// Builds the model and runs branch-and-bound from the greedy
    /// incumbent, extracting per-column counts from the simplex solution.
    fn branch_and_bound(
        &self,
        problem: &TileProblem,
        budget: u32,
        greedy_counts: Vec<u32>,
        options: &MilpOptions,
    ) -> Result<(Vec<u32>, BranchBoundStats), MethodError> {
        let weighted = self.weighted;
        let mut model = Model::new(Objective::Minimize);
        let mut vars: Vec<Option<Vec<VarId>>> = Vec::with_capacity(problem.columns.len());
        let mut budget_terms: Vec<(VarId, f64)> = Vec::new();
        for (col, ms) in problem.columns.iter().zip(self.per_column(problem)) {
            let Some(ms) = ms else {
                vars.push(None);
                continue;
            };
            if self.convex {
                // Incremental binaries z_{k,n}: cost is the n-th marginal,
                // count is the cardinality of the set binaries. No
                // per-column row needed — the budget row carries them with
                // unit coefficients.
                let col_vars: Vec<_> = ms.iter().map(|&m| model.add_binary_var(m)).collect();
                budget_terms.extend(col_vars.iter().map(|&v| (v, 1.0)));
                vars.push(Some(col_vars));
            } else {
                // One-hot binaries m_{k,n} (Eq. 15/23), n = 0..=C_k; cost
                // from the table (Eq. 20 folded into Eq. 16 through
                // Eq. 21).
                let cap = col.capacity();
                let col_vars: Vec<_> = (0..=cap)
                    .map(|n| {
                        let cost = col
                            .table
                            .as_ref()
                            .map_or(0.0, |t| col.alpha(weighted) * t.delta_cap(n));
                        model.add_binary_var(cost / self.scale)
                    })
                    .collect();
                // Eq. (19) with the n = 0 entry included: exactly one
                // count is chosen per column.
                model.add_constraint(col_vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
                budget_terms.extend(col_vars.iter().enumerate().map(|(n, &v)| (v, n as f64)));
                vars.push(Some(col_vars));
            }
        }
        // The aggregate free variable (continuous: the budget row forces an
        // integral value given integral binaries).
        let free_var = model.add_var(0.0, self.free_cap as f64, 0.0);
        budget_terms.push((free_var, 1.0));
        // Eqs. (17)+(18) folded: sum_k sum_n n * m_{k,n} + free = F (with
        // the incremental encoding every binary counts one feature, so the
        // coefficient is simply 1).
        model.add_constraint(budget_terms, Sense::Eq, budget as f64);

        let (result, stats) = model.solve_with_stats(options);
        let sol = match result {
            Ok(sol) => sol,
            // Nothing beats the greedy incumbent (Cutoff), or the node
            // budget ran out before anything did (NodeLimit): keep the
            // greedy counts, which are optimal to within the pruning
            // tolerance `gap_tol * scale`.
            Err(SolveError::Cutoff | SolveError::NodeLimit) => return Ok((greedy_counts, stats)),
            Err(e) => return Err(e.into()),
        };
        let mut counts: Vec<u32> = vars
            .iter()
            .map(|col_vars| match col_vars {
                // Incremental: the count is how many binaries are set (ties
                // between equal marginals may set a non-prefix subset; the
                // prefix of the same cardinality costs the same or less, so
                // cardinality extraction never degrades the objective).
                Some(cv) if self.convex => units::saturating_count(
                    cv.iter().filter(|&&v| sol.value(v) > 0.5).count() as u64,
                ),
                Some(cv) => cv
                    .iter()
                    .position(|&v| sol.value(v) > 0.5)
                    .map_or(0, |n| units::saturating_count(n as u64)),
                None => 0,
            })
            .collect();
        // Distribute the aggregate over the free columns.
        let mut free_left = sol.value(free_var).round().max(0.0) as u64;
        for (i, col) in problem.columns.iter().enumerate() {
            if free_left == 0 {
                break;
            }
            if is_free(col, weighted) {
                let take = units::saturating_count(u64::from(col.capacity()).min(free_left));
                counts[i] = take;
                free_left -= u64::from(take);
            }
        }
        // Numerical safety: if rounding left a residual against the exact
        // budget, top up / trim in free columns first.
        reconcile_budget(problem, &mut counts, budget, &|c| is_free(c, weighted));
        Ok((counts, stats))
    }
}

/// Adjusts `counts` so they sum exactly to `budget`, preferring free
/// columns for any correction (costed columns only as a last resort, which
/// only triggers on solver round-off).
fn reconcile_budget(
    problem: &TileProblem,
    counts: &mut [u32],
    budget: u32,
    is_free: &dyn Fn(&crate::TileColumn) -> bool,
) {
    let mut total: i64 = counts.iter().map(|&m| m as i64).sum();
    let order: Vec<usize> = {
        let mut free: Vec<usize> = (0..counts.len())
            .filter(|&i| is_free(&problem.columns[i]))
            .collect();
        let costed: Vec<usize> = (0..counts.len())
            .filter(|&i| !is_free(&problem.columns[i]))
            .collect();
        free.extend(costed);
        free
    };
    for &i in &order {
        if total == budget as i64 {
            break;
        }
        let cap = problem.columns[i].capacity();
        if total < i64::from(budget) {
            let missing =
                units::saturating_count(u64::try_from(i64::from(budget) - total).unwrap_or(0));
            let add = missing.min(cap - counts[i]);
            counts[i] += add;
            total += i64::from(add);
        } else {
            let excess =
                units::saturating_count(u64::try_from(total - i64::from(budget)).unwrap_or(0));
            let sub = excess.min(counts[i]);
            counts[i] -= sub;
            total -= i64::from(sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{assert_valid_assignment, synthetic_tile};
    use crate::methods::{DpExact, GreedyFill, IlpOne};
    use pilfill_prng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn hits_budget_exactly() {
        let tile = synthetic_tile(&[(1_500, 3, 2.0), (2_500, 4, 1.0)], 2);
        for budget in [0u32, 1, 5, 9] {
            let counts = IlpTwo
                .place(&tile, budget, false, &mut rng())
                .expect("place");
            assert_valid_assignment(&tile, &counts, budget);
        }
    }

    #[test]
    fn matches_dp_exact_optimum() {
        let tile = synthetic_tile(
            &[
                (1_000, 3, 1.0),
                (1_400, 4, 0.8),
                (5_000, 5, 2.0),
                (900, 2, 0.1),
            ],
            2,
        );
        for budget in [2u32, 6, 11] {
            for weighted in [false, true] {
                let ilp = IlpTwo
                    .place(&tile, budget, weighted, &mut rng())
                    .expect("ilp2");
                let dp = DpExact
                    .place(&tile, budget, weighted, &mut rng())
                    .expect("dp");
                let ci = tile.cost_of(&ilp, weighted);
                let cd = tile.cost_of(&dp, weighted);
                assert!(
                    (ci - cd).abs() <= 1e-9 * (1.0 + cd.abs()),
                    "budget {budget} weighted {weighted}: ilp2 {ci} vs dp {cd}"
                );
            }
        }
    }

    #[test]
    fn never_worse_than_greedy_or_ilp1_on_exact_model() {
        let tile = synthetic_tile(&[(6_000, 8, 1.0), (1_400, 3, 1.15), (2_000, 4, 0.5)], 1);
        for budget in [3u32, 7, 12] {
            let two = IlpTwo.place(&tile, budget, false, &mut rng()).expect("2");
            let one = IlpOne.place(&tile, budget, false, &mut rng()).expect("1");
            let gr = GreedyFill
                .place(&tile, budget, false, &mut rng())
                .expect("g");
            let c2 = tile.cost_of(&two, false);
            assert!(
                c2 <= tile.cost_of(&one, false) + 1e-25,
                "budget {budget} vs ilp1"
            );
            assert!(
                c2 <= tile.cost_of(&gr, false) + 1e-25,
                "budget {budget} vs greedy"
            );
        }
    }

    #[test]
    fn free_columns_absorb_first() {
        let tile = synthetic_tile(&[(2_000, 5, 1.0)], 4);
        let counts = IlpTwo.place(&tile, 4, false, &mut rng()).expect("place");
        assert_eq!(counts, vec![0, 4]);
    }

    /// Root selection against the search it skips: on every tile and
    /// budget the suites try, `place_with_stats` must return the counts of
    /// the branch-and-bound path run without the selection; the selection
    /// must answer `Prunes` exactly where that search keeps the greedy
    /// counts, and `Unique` only where it takes its incumbent at the root.
    mod root_selection {
        use super::*;
        use crate::flow::{FlowConfig, FlowContext};
        use crate::methods::testutil::for_each_paper_table_tile;
        use crate::SlackColumnDef;
        use pilfill_layout::synth::{synthesize, SynthConfig};

        /// Tallies of the answers.
        #[derive(Debug, Default)]
        struct Tally {
            pruned: usize,
            unique: usize,
            searched: usize,
        }

        /// Checks `problem` at `budget`.
        fn check(problem: &TileProblem, budget: u32, weighted: bool, tally: &mut Tally) {
            let (counts, stats) = IlpTwo
                .place_with_stats(problem, budget, weighted, &mut rng())
                .expect("place");
            if budget == 0 {
                return;
            }
            // The search path exactly as `place_with_stats` takes it, minus
            // the selection.
            let costs = TileCosts::new(problem, weighted);
            let (greedy, cutoff) = costs
                .greedy_incumbent(problem, budget, &mut rng())
                .expect("greedy");
            let options = MilpOptions {
                cutoff: Some(cutoff),
                ..MilpOptions::default()
            };
            let answer = costs.root_selection(budget, cutoff - options.gap_tol);
            let (want, search) = costs
                .branch_and_bound(problem, budget, greedy, &options)
                .expect("search");
            let context = || {
                format!(
                    "budget {budget} weighted {weighted} answer {answer:?} search {search:?} \
                     tile {:?}",
                    problem.cell
                )
            };
            assert_eq!(counts, want, "counts differ: {}", context());
            // The search kept greedy if it found no incumbent at its only
            // node, or if the tile has no binary and only the LP ran.
            let kept_greedy = search.incumbents == 0 && search.nodes <= 1;
            assert_eq!(
                answer == RootSelection::Prunes,
                kept_greedy,
                "prune vs search: {}",
                context()
            );
            match answer {
                RootSelection::Prunes => {
                    assert_eq!(stats, BranchBoundStats::default(), "{}", context());
                    tally.pruned += 1;
                }
                RootSelection::Unique { .. } => {
                    assert_eq!((search.nodes, search.incumbents), (1, 1), "{}", context());
                    assert_eq!(stats, BranchBoundStats::default(), "{}", context());
                    tally.unique += 1;
                }
                RootSelection::Search => {
                    assert_eq!(stats, search, "{}", context());
                    tally.searched += 1;
                }
            }
        }

        /// Checks `problem` at a spread of budgets up to its capacity.
        fn check_budgets(problem: &TileProblem, weighted: bool, tally: &mut Tally) {
            let cap = u32::try_from(problem.capacity()).expect("small tile");
            let mut budgets = vec![1, 2, cap / 4, cap / 3, cap / 2, cap.saturating_sub(1), cap];
            budgets.sort_unstable();
            budgets.dedup();
            for budget in budgets.into_iter().filter(|&b| b <= cap) {
                check(problem, budget, weighted, tally);
            }
        }

        #[test]
        fn selection_matches_the_search_on_the_paper_tables() {
            let mut tally = Tally::default();
            for_each_paper_table_tile(|problem, budget, weighted| {
                check(problem, budget, weighted, &mut tally);
            });
            // Of the tiles the greedy cutoff does not decide, the closed
            // form decides most; the rest are near ties.
            let searched = tally.unique + tally.searched;
            assert!(tally.pruned > 500 && searched > 400, "{tally:?}");
            assert!(tally.unique * 10 >= searched * 8, "{tally:?}");
        }

        #[test]
        fn selection_matches_the_search_on_seeded_designs() {
            let mut tally = Tally::default();
            for seed in [3u64, 11, 29] {
                let design = synthesize(&SynthConfig::small_test(seed));
                for def in [
                    SlackColumnDef::One,
                    SlackColumnDef::Two,
                    SlackColumnDef::Three,
                ] {
                    for weighted in [false, true] {
                        let mut config = FlowConfig::new(8_000, 2).expect("config");
                        config.def = def;
                        config.weighted = weighted;
                        let ctx = FlowContext::build(&design, &config).expect("context");
                        for problem in ctx.problems() {
                            let cap = u32::try_from(problem.capacity()).expect("small tile");
                            let flow_budget = ctx.budget_features(problem.cell).min(cap);
                            check(problem, flow_budget, weighted, &mut tally);
                            check_budgets(problem, weighted, &mut tally);
                        }
                    }
                }
            }
            // Every answer is exercised, so no direction of the
            // equivalence holds vacuously.
            assert!(tally.pruned > 100, "{tally:?}");
            assert!(tally.unique > 100, "{tally:?}");
            assert!(tally.searched > 10, "{tally:?}");
        }

        #[test]
        fn selection_matches_the_search_on_synthetic_tiles() {
            let mut tally = Tally::default();
            let tiles = [
                // Exactly tied duplicate columns: the relaxation has many
                // optimal vertices, so the selection must leave them to the
                // search, and greedy (whole columns) is optimal only at
                // some budgets.
                synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.0), (2_000, 4, 1.0)], 0),
                synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.0)], 3),
                // Near ties: marginals 1e-8 apart, inside the margin.
                synthetic_tile(&[(2_000, 4, 1.0), (2_000, 4, 1.0 + 1e-8)], 0),
                synthetic_tile(&[(3_000, 6, 1.0 + 1e-8), (3_000, 6, 1.0), (900, 2, 0.1)], 1),
                // Free-only tiles: no binaries; greedy's first-fit is the
                // LP's.
                synthetic_tile(&[], 5),
                // Greedy optimal: one costed column behind a free one, and
                // a cheap wide column ahead of an expensive narrow one.
                synthetic_tile(&[(2_000, 5, 1.0)], 4),
                synthetic_tile(&[(6_000, 6, 0.2), (1_400, 2, 3.0)], 0),
                // Mixed: convex curves of different steepness.
                synthetic_tile(
                    &[
                        (1_000, 3, 1.0),
                        (1_400, 4, 0.8),
                        (5_000, 5, 2.0),
                        (900, 2, 0.1),
                    ],
                    2,
                ),
            ];
            for tile in &tiles {
                for weighted in [false, true] {
                    let cap = u32::try_from(tile.capacity()).expect("small tile");
                    for budget in 0..=cap {
                        check(tile, budget, weighted, &mut tally);
                    }
                }
            }
            assert!(tally.pruned > 10, "{tally:?}");
            assert!(tally.unique > 10, "{tally:?}");
            assert!(tally.searched > 10, "{tally:?}");
        }
    }
}
