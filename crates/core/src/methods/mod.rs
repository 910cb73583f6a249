//! The MDFC placement methods: Normal (density-only baseline), ILP-I,
//! ILP-II, Greedy, and an exact dynamic-programming reference.
//!
//! Every method answers the same question for one tile: given the tile's
//! slack columns and a fill budget `F`, how many features go into each
//! column? All methods place *exactly* `F` features (the caller clamps `F`
//! to the tile capacity first), so density quality is identical across
//! methods — only the delay impact differs.

mod bounded_greedy;
mod dp;
mod greedy;
mod ilp1;
mod ilp2;
mod normal;

pub use bounded_greedy::{net_delays, used_columns, BoundedGreedy};
pub use dp::DpExact;
pub use greedy::GreedyFill;
pub use ilp1::IlpOne;
pub use ilp2::IlpTwo;
pub use normal::NormalFill;

use crate::TileProblem;
use pilfill_prng::rngs::StdRng;

/// Error from a placement method.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodError {
    /// The fill budget exceeds the tile capacity (caller must clamp).
    BudgetOverCapacity {
        /// Requested features.
        budget: u32,
        /// Available slots.
        capacity: u64,
    },
    /// The underlying ILP solver failed.
    Solver(pilfill_solver::SolveError),
}

impl std::fmt::Display for MethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodError::BudgetOverCapacity { budget, capacity } => {
                write!(f, "budget {budget} exceeds tile capacity {capacity}")
            }
            MethodError::Solver(e) => write!(f, "ilp solve failed: {e}"),
        }
    }
}

impl std::error::Error for MethodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MethodError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pilfill_solver::SolveError> for MethodError {
    fn from(e: pilfill_solver::SolveError) -> Self {
        MethodError::Solver(e)
    }
}

/// A per-tile fill placement strategy.
pub trait FillMethod {
    /// Short name for reports ("Normal", "ILP-I", ...).
    fn name(&self) -> &'static str;

    /// Chooses per-column fill counts for `problem`. The result has one
    /// entry per column, sums to exactly `budget`, and respects column
    /// capacities.
    ///
    /// `weighted` selects the objective (Table 2 vs Table 1 of the paper);
    /// `rng` is used only by stochastic methods (Normal fill).
    ///
    /// # Errors
    ///
    /// [`MethodError::BudgetOverCapacity`] if `budget` exceeds the tile
    /// capacity, or [`MethodError::Solver`] from the ILP backends.
    fn place(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, MethodError>;
}

pub(crate) fn check_budget(problem: &TileProblem, budget: u32) -> Result<(), MethodError> {
    let capacity = problem.capacity();
    if budget as u64 > capacity {
        return Err(MethodError::BudgetOverCapacity { budget, capacity });
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{TileColumn, TileProblem};
    use pilfill_geom::{Coord, Rect};
    use pilfill_layout::Tech;
    use pilfill_rc::{CapTable, CouplingModel};

    /// A synthetic tile with paired columns of the given distances and
    /// capacities, plus optionally one free (zero-cost) column.
    pub fn synthetic_tile(
        cols: &[(Coord, u32, f64)], // (distance d, capacity, alpha)
        free_capacity: u32,
    ) -> TileProblem {
        let model = CouplingModel::new(&Tech::default_180nm());
        let w = 300;
        let mut columns: Vec<TileColumn> = cols
            .iter()
            .enumerate()
            .map(|(i, &(d, cap, alpha))| {
                // Clamp to what the capacitance model allows (m * w < d).
                let cap = cap.min(((d - 1) / w) as u32);
                TileColumn {
                    feature_x: 1_000 * i as Coord,
                    slots: crate::Slots::evenly(0, 450, cap),
                    distance: Some(d),
                    alpha_weighted: alpha * 2.0,
                    alpha_unweighted: alpha,
                    table: Some(CapTable::build(&model, d, w, cap)),
                    linear_cap_per_feature: model.delta_cap_linear(1, d, w),
                    adjacent_nets: pilfill_layout::NetId(i).into(),
                }
            })
            .collect();
        if free_capacity > 0 {
            columns.push(TileColumn {
                feature_x: 999_000,
                slots: crate::Slots::evenly(0, 450, free_capacity),
                distance: None,
                alpha_weighted: 0.0,
                alpha_unweighted: 0.0,
                table: None,
                linear_cap_per_feature: 0.0,
                adjacent_nets: crate::AdjacentNets::EMPTY,
            });
        }
        TileProblem {
            cell: (0, 0),
            rect: Rect::new(0, 0, 1_000_000, 1_000_000),
            columns,
        }
    }

    /// Calls `f(problem, budget, weighted)` for every budgeted tile of
    /// the paper's Tables 1 and 2: T1 and T2 × W ∈ {32k, 20k} ×
    /// r ∈ {2, 4, 8} under definition III, each tile at its flow budget,
    /// once unweighted (Table 1) and once weighted (Table 2).
    pub fn for_each_paper_table_tile(mut f: impl FnMut(&TileProblem, u32, bool)) {
        use crate::flow::{FlowConfig, FlowContext};
        use pilfill_layout::synth::{synthesize, SynthConfig};
        for design in [
            synthesize(&SynthConfig::t1()),
            synthesize(&SynthConfig::t2()),
        ] {
            for window in [32_000, 20_000] {
                for r in [2, 4, 8] {
                    let config = FlowConfig::new(window, r).expect("config");
                    let ctx = FlowContext::build(&design, &config).expect("context");
                    for problem in ctx.problems() {
                        let cap = u32::try_from(problem.capacity()).unwrap_or(u32::MAX);
                        let budget = ctx.budget_features(problem.cell).min(cap);
                        if budget > 0 {
                            f(problem, budget, false);
                            f(problem, budget, true);
                        }
                    }
                }
            }
        }
    }

    pub fn assert_valid_assignment(problem: &TileProblem, counts: &[u32], budget: u32) {
        assert_eq!(counts.len(), problem.columns.len());
        let total: u32 = counts.iter().sum();
        assert_eq!(total, budget, "assignment must hit the budget exactly");
        for (c, &m) in problem.columns.iter().zip(counts) {
            assert!(
                m <= c.capacity(),
                "count {m} over capacity {}",
                c.capacity()
            );
        }
    }
}
