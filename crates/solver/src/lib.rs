//! # pilfill-solver
//!
//! A self-contained linear-programming and mixed-integer-programming solver,
//! standing in for the CPLEX 7.0 installation used by the original PIL-Fill
//! experiments.
//!
//! The solver is sized for the problems PIL-Fill actually produces — per-tile
//! MDFC instances with tens of general-integer variables (ILP-I) or a few
//! hundred binaries (ILP-II), and the per-layout density-budget LP:
//!
//! - [`Model`]: a builder API for variables (with bounds and integrality),
//!   linear constraints and a linear objective;
//! - a *sparse revised simplex* with an LU-factored basis, native bounded
//!   variables and two-phase feasibility ([`Model::solve_lp`]) — the one LP
//!   engine;
//! - a best-incumbent depth-first branch-and-bound layer for integer
//!   variables ([`Model::solve`]) with most-fractional branching, whose
//!   child nodes re-optimize from the parent basis with the dual simplex.
//!
//! The original dense bounded-variable Big-M tableau survives only under
//! `cfg(test)`, as the oracle the sparse engine's unit tests compare
//! against.
//!
//! # Examples
//!
//! ```
//! use pilfill_solver::{Model, Objective, Sense};
//!
//! // max x + 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0 integer
//! let mut m = Model::new(Objective::Maximize);
//! let x = m.add_integer_var(0.0, f64::INFINITY, 1.0);
//! let y = m.add_integer_var(0.0, 3.0, 2.0);
//! m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective.round(), 7.0); // x=1, y=3
//! # Ok::<(), pilfill_solver::SolveError>(())
//! ```

mod lu;
mod milp;
mod model;
mod simplex;
mod sparse;

pub use milp::{BranchBoundStats, MilpOptions};
pub use model::{Model, Objective, Sense, Solution, SolveError, VarId};
pub use simplex::LpStatus;
pub use sparse::UNIT_ROW_TIE_MARGIN;
