//! User-facing model builder and solve entry points.

use std::rc::Rc;

use crate::milp::{self, BranchBoundStats, MilpOptions};
use crate::simplex::{self, LpStatus, StandardLp};
use crate::sparse::{self, SparseLp};

/// Handle to a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the model's solution vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// Which LP engine backs [`Model::solve_lp`] and the branch-and-bound
/// relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Sparse revised simplex with an LU-factored basis, bounded
    /// variables and two-phase feasibility (the default engine).
    #[default]
    Sparse,
    /// The original dense bounded-variable tableau with Big-M
    /// feasibility — kept as a numerical oracle and escape hatch.
    DenseReference,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Left-hand side `<=` right-hand side.
    Le,
    /// Left-hand side `>=` right-hand side.
    Ge,
    /// Left-hand side `=` right-hand side.
    Eq,
}

/// Error returned when a model cannot be solved to optimality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The simplex iteration limit was hit (numerical trouble).
    IterationLimit,
    /// Branch-and-bound exhausted its node limit before proving optimality.
    NodeLimit,
    /// Every branch was pruned against [`crate::MilpOptions::cutoff`]: no
    /// integer solution beats the caller-supplied incumbent objective.
    /// Callers holding the incumbent (a warm-start heuristic solution)
    /// should keep it — it is optimal to within the pruning tolerance.
    Cutoff,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolveError::Infeasible => "model is infeasible",
            SolveError::Unbounded => "model is unbounded",
            SolveError::IterationLimit => "simplex iteration limit exceeded",
            SolveError::NodeLimit => "branch-and-bound node limit exceeded",
            SolveError::Cutoff => "no integer solution beats the cutoff incumbent",
        })
    }
}

impl std::error::Error for SolveError {}

/// An optimal (or best-found) solution.
#[derive(Debug, Clone)]
#[must_use = "a solve is expensive; dropping the solution discards it"]
pub struct Solution {
    /// Value per variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Objective value in the model's own direction (max problems report
    /// the maximum).
    pub objective: f64,
    /// Branch-and-bound statistics (zero nodes for pure LPs).
    pub stats: BranchBoundStats,
}

impl Solution {
    /// Value of variable `v`.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Value of `v` rounded to the nearest integer (for integer variables).
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) sense: Sense,
    pub(crate) rhs: f64,
}

/// A linear / mixed-integer optimization model.
///
/// # Examples
///
/// ```
/// use pilfill_solver::{Model, Objective, Sense};
///
/// // Knapsack: max 6a + 5b + 4c, 2a + 3b + c <= 4, binaries.
/// let mut m = Model::new(Objective::Maximize);
/// let a = m.add_binary_var(6.0);
/// let b = m.add_binary_var(5.0);
/// let c = m.add_binary_var(4.0);
/// m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 1.0)], Sense::Le, 4.0);
/// let sol = m.solve()?;
/// assert_eq!(sol.objective.round(), 10.0); // pick a and c
/// # Ok::<(), pilfill_solver::SolveError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Model {
    minimize: bool,
    obj: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
    backend: SolverBackend,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        Self {
            minimize: objective == Objective::Minimize,
            ..Self::default()
        }
    }

    /// Creates an empty model solved by a specific LP backend.
    pub fn with_backend(objective: Objective, backend: SolverBackend) -> Self {
        Self {
            backend,
            ..Self::new(objective)
        }
    }

    /// The LP engine this model solves with.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// Switches the LP engine (e.g. to cross-check the two backends).
    pub fn set_backend(&mut self, backend: SolverBackend) {
        self.backend = backend;
    }

    /// Adds a continuous variable with bounds `[lb, ub]` and objective
    /// coefficient `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, `lb` is not finite, or either bound is NaN.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(lb.is_finite(), "lower bound must be finite (got {lb})");
        assert!(!ub.is_nan() && ub >= lb, "invalid bounds [{lb}, {ub}]");
        let id = VarId(self.obj.len());
        self.obj.push(obj);
        self.lower.push(lb);
        self.upper.push(ub);
        self.integer.push(false);
        id
    }

    /// Adds a general integer variable with bounds `[lb, ub]`.
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds (see [`Model::add_var`]).
    pub fn add_integer_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        let id = self.add_var(lb, ub, obj);
        self.integer[id.0] = true;
        id
    }

    /// Adds a 0/1 variable.
    pub fn add_binary_var(&mut self, obj: f64) -> VarId {
        self.add_integer_var(0.0, 1.0, obj)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// `true` if any variable is integer.
    pub fn has_integers(&self) -> bool {
        self.integer.iter().any(|&b| b)
    }

    /// Adds the linear constraint `sum(coeff * var) sense rhs`. Terms with
    /// a repeated variable are summed.
    ///
    /// # Panics
    ///
    /// Panics if a term references a variable not in this model.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        // Sum duplicate terms in first-occurrence order. A slot per
        // variable in the row's index span keeps this linear for the large
        // budget rows the fill ILPs generate, without hashing.
        let mut dense: Vec<(usize, f64)> = terms
            .into_iter()
            .map(|(v, c)| {
                assert!(v.0 < self.obj.len(), "variable out of range");
                (v.0, c)
            })
            .collect();
        if dense.len() > 1 {
            let (lo, hi) = dense
                .iter()
                .fold((usize::MAX, 0), |(lo, hi), &(i, _)| (lo.min(i), hi.max(i)));
            // `slot[i - lo]` is the position of variable `i`'s first term
            // among the kept ones; later terms add onto it in order.
            let mut slot = vec![usize::MAX; hi - lo + 1];
            let mut kept = 0;
            for t in 0..dense.len() {
                let (i, c) = dense[t];
                match slot[i - lo] {
                    usize::MAX => {
                        slot[i - lo] = kept;
                        dense[kept] = (i, c);
                        kept += 1;
                    }
                    at => dense[at].1 += c,
                }
            }
            dense.truncate(kept);
        }
        self.constraints.push(Constraint {
            terms: dense,
            sense,
            rhs,
        });
    }

    /// Tightens the bounds of `v` to `[lb, ub]` (used by branch-and-bound).
    pub(crate) fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        self.lower[v.0] = lb;
        self.upper[v.0] = ub;
    }

    pub(crate) fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.lower[v.0], self.upper[v.0])
    }

    pub(crate) fn is_minimize(&self) -> bool {
        self.minimize
    }

    pub(crate) fn integer_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.integer
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| VarId(i))
    }

    /// Current lower bounds per variable.
    pub(crate) fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    /// Current upper bounds per variable.
    pub(crate) fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Objective coefficients in the model's own direction.
    pub(crate) fn objective_coeffs(&self) -> &[f64] {
        &self.obj
    }

    /// The raw constraint rows (post-presolve when called on a presolved
    /// model).
    pub(crate) fn constraint_rows(&self) -> &[Constraint] {
        &self.constraints
    }

    /// `true` when variable `idx` is a 0/1 integer.
    pub(crate) fn is_binary(&self, idx: usize) -> bool {
        // Exact bound comparison: binaries are constructed with literal
        // 0.0/1.0 bounds, never computed ones. pilfill: allow(float-eq)
        self.integer[idx] && self.lower[idx] == 0.0 && self.upper[idx] == 1.0
    }

    /// Light presolve: empty rows become feasibility checks, singleton
    /// rows become variable bounds. Returns the simplified model, or
    /// `None` when presolve proves infeasibility.
    pub(crate) fn presolved(&self) -> Option<Model> {
        let mut out = self.clone();
        let mut kept = Vec::with_capacity(out.constraints.len());
        for c in out.constraints.drain(..) {
            match c.terms.as_slice() {
                [] => {
                    let ok = match c.sense {
                        Sense::Le => 0.0 <= c.rhs + 1e-12,
                        Sense::Ge => 0.0 >= c.rhs - 1e-12,
                        Sense::Eq => c.rhs.abs() <= 1e-12,
                    };
                    if !ok {
                        return None;
                    }
                }
                // Exact zero test: guards the division below; an epsilon
                // would misroute tiny-coefficient rows. pilfill: allow(float-eq)
                [(var, coeff)] if *coeff != 0.0 => {
                    let bound = c.rhs / coeff;
                    // Sense flips when dividing by a negative coefficient.
                    let (mut lo, mut hi) = (out.lower[*var], out.upper[*var]);
                    match (c.sense, *coeff > 0.0) {
                        (Sense::Le, true) | (Sense::Ge, false) => hi = hi.min(bound),
                        (Sense::Ge, true) | (Sense::Le, false) => lo = lo.max(bound),
                        (Sense::Eq, _) => {
                            lo = lo.max(bound);
                            hi = hi.min(bound);
                        }
                    }
                    if lo > hi + 1e-9 {
                        return None;
                    }
                    out.lower[*var] = lo;
                    out.upper[*var] = hi.max(lo);
                }
                _ => kept.push(c),
            }
        }
        out.constraints = kept;
        Some(out)
    }

    /// Converts to computational standard form: shift each variable by its
    /// lower bound so all variables live in `[0, ub - lb]`, and negate the
    /// objective for maximization.
    pub(crate) fn to_standard(&self) -> (StandardLp, f64) {
        let n = self.num_vars();
        let sign = if self.minimize { 1.0 } else { -1.0 };
        let costs: Vec<f64> = self.obj.iter().map(|&c| sign * c).collect();
        // Constant objective offset from the shift (in minimize sign).
        let offset: f64 = costs.iter().zip(&self.lower).map(|(c, lb)| c * lb).sum();
        let upper: Vec<f64> = self
            .upper
            .iter()
            .zip(&self.lower)
            .map(|(ub, lb)| ub - lb)
            .collect();
        let mut rows = Vec::with_capacity(self.constraints.len());
        let mut eq = Vec::with_capacity(self.constraints.len());
        let mut rhs = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let mut row = vec![0.0; n];
            let mut shift = 0.0;
            for &(i, coeff) in &c.terms {
                row[i] += coeff;
                shift += coeff * self.lower[i];
            }
            let mut b = c.rhs - shift;
            match c.sense {
                Sense::Le => {
                    eq.push(false);
                }
                Sense::Ge => {
                    // Negate to a <= row.
                    for v in row.iter_mut() {
                        *v = -*v;
                    }
                    b = -b;
                    eq.push(false);
                }
                Sense::Eq => {
                    eq.push(true);
                }
            }
            rows.push(row);
            rhs.push(b);
        }
        (
            StandardLp {
                n_structural: n,
                costs,
                rows,
                eq,
                rhs,
                upper,
            },
            offset,
        )
    }

    /// Solves the continuous (LP) relaxation, ignoring integrality.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`], [`SolveError::Unbounded`] or
    /// [`SolveError::IterationLimit`] when no optimal solution exists or the
    /// solver fails to converge.
    pub fn solve_lp(&self) -> Result<Solution, SolveError> {
        match self.backend {
            SolverBackend::Sparse => match self.solve_lp_sparse() {
                // Numerical trouble in the sparse engine: retry on the
                // dense oracle before reporting failure.
                Err(SolveError::IterationLimit) => self.solve_lp_dense(),
                other => other,
            },
            SolverBackend::DenseReference => self.solve_lp_dense(),
        }
    }

    fn solve_lp_sparse(&self) -> Result<Solution, SolveError> {
        let presolved = self.presolved().ok_or(SolveError::Infeasible)?;
        let lp = Rc::new(SparseLp::build(&presolved));
        let (sol, warm) = sparse::solve_sparse(&lp);
        match sol.status {
            LpStatus::Optimal => {
                let sign = if self.minimize { 1.0 } else { -1.0 };
                Ok(Solution {
                    // Sparse solutions are already in model space.
                    objective: sign * sol.objective,
                    values: sol.values,
                    stats: BranchBoundStats {
                        pivots: sol.iterations,
                        refactorizations: warm.as_ref().map_or(0, |s| s.refactor_count()),
                        ..BranchBoundStats::default()
                    },
                })
            }
            LpStatus::Infeasible => Err(SolveError::Infeasible),
            LpStatus::Unbounded => Err(SolveError::Unbounded),
            LpStatus::IterationLimit => Err(SolveError::IterationLimit),
        }
    }

    fn solve_lp_dense(&self) -> Result<Solution, SolveError> {
        let presolved = self.presolved().ok_or(SolveError::Infeasible)?;
        let (std_lp, offset) = presolved.to_standard();
        let sol = simplex::solve_standard(&std_lp);
        match sol.status {
            LpStatus::Optimal => {
                let sign = if self.minimize { 1.0 } else { -1.0 };
                let values: Vec<f64> = sol
                    .values
                    .iter()
                    .zip(&presolved.lower)
                    .map(|(v, lb)| v + lb)
                    .collect();
                Ok(Solution {
                    objective: sign * (sol.objective + offset),
                    values,
                    stats: BranchBoundStats {
                        pivots: sol.iterations,
                        ..BranchBoundStats::default()
                    },
                })
            }
            LpStatus::Infeasible => Err(SolveError::Infeasible),
            LpStatus::Unbounded => Err(SolveError::Unbounded),
            LpStatus::IterationLimit => Err(SolveError::IterationLimit),
        }
    }

    /// Solves the model, branching on integer variables if present.
    ///
    /// # Errors
    ///
    /// See [`Model::solve_lp`]; additionally returns
    /// [`SolveError::NodeLimit`] if branch-and-bound runs out of nodes
    /// without an incumbent.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&MilpOptions::default())
    }

    /// Solves with explicit branch-and-bound options.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`]; additionally returns [`SolveError::Cutoff`]
    /// when [`MilpOptions::cutoff`] is set and no integer solution beats
    /// it.
    pub fn solve_with(&self, options: &MilpOptions) -> Result<Solution, SolveError> {
        if !self.has_integers() {
            return self.solve_lp();
        }
        milp::branch_and_bound(self, options).0
    }

    /// Like [`Model::solve_with`], but always reports the branch-and-bound
    /// statistics — including when the result is an error such as
    /// [`SolveError::Cutoff`], where the search ran to completion and the
    /// caller's incumbent simply survived.
    pub fn solve_with_stats(
        &self,
        options: &MilpOptions,
    ) -> (Result<Solution, SolveError>, BranchBoundStats) {
        if !self.has_integers() {
            let result = self.solve_lp();
            let stats = result.as_ref().map(|s| s.stats).unwrap_or_default();
            return (result, stats);
        }
        milp::branch_and_bound(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_max_matches_hand_solution() {
        let mut m = Model::new(Objective::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 3.0);
        let y = m.add_var(0.0, f64::INFINITY, 5.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = m.solve().expect("solvable");
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn lp_with_nonzero_lower_bounds() {
        // min x + y, x >= 2, y >= 3, x + y >= 7 -> 7.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(2.0, f64::INFINITY, 1.0);
        let y = m.add_var(3.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 7.0);
        let s = m.solve().expect("solvable");
        assert!((s.objective - 7.0).abs() < 1e-6);
        assert!(s.value(x) >= 2.0 - 1e-9);
        assert!(s.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn lp_negative_lower_bounds() {
        // min x with x in [-5, 5] and x >= -3 -> -3.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(-5.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, -3.0);
        let s = m.solve().expect("solvable");
        assert!((s.objective + 3.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut m = Model::new(Objective::Maximize);
        let x = m.add_var(0.0, 10.0, 1.0);
        // x + x <= 6 -> x <= 3.
        m.add_constraint(vec![(x, 1.0), (x, 1.0)], Sense::Le, 6.0);
        let s = m.solve().expect("solvable");
        assert!((s.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn repeated_terms_merge_in_first_occurrence_order() {
        let mut m = Model::new(Objective::Minimize);
        let _ = m.add_var(0.0, 1.0, 0.0);
        let a = m.add_var(0.0, 1.0, 0.0);
        let b = m.add_var(0.0, 1.0, 0.0);
        m.add_constraint(vec![(a, 1.0), (b, 2.0), (a, 3.0)], Sense::Le, 1.0);
        // Later index first: order follows the terms, not the indices.
        m.add_constraint(
            vec![(b, 0.5), (a, 1.0), (b, 0.25), (b, 0.25)],
            Sense::Ge,
            0.0,
        );
        m.add_constraint(vec![(b, 7.0)], Sense::Eq, 0.0);
        let rows: Vec<Vec<(usize, f64)>> = m
            .constraint_rows()
            .iter()
            .map(|c| c.terms.clone())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![(a.index(), 4.0), (b.index(), 2.0)],
                vec![(b.index(), 1.0), (a.index(), 1.0)],
                vec![(b.index(), 7.0)],
            ]
        );
    }

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn foreign_variable_in_a_row_panics() {
        let mut other = Model::new(Objective::Minimize);
        let _ = other.add_var(0.0, 1.0, 0.0);
        let x = other.add_var(0.0, 1.0, 0.0);
        let mut m = Model::new(Objective::Minimize);
        let _ = m.add_var(0.0, 1.0, 0.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 1.0);
    }

    #[test]
    fn infeasible_eq_pair() {
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Eq, 2.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Eq, 3.0);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible)));
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new(Objective::Maximize);
        let _ = m.add_var(0.0, f64::INFINITY, 1.0);
        assert!(matches!(m.solve(), Err(SolveError::Unbounded)));
    }

    #[test]
    fn pure_integer_knapsack() {
        // max 6a + 5b + 4c, 2a + 3b + c <= 4 over binaries: best is a + c = 10.
        let mut m = Model::new(Objective::Maximize);
        let a = m.add_binary_var(6.0);
        let b = m.add_binary_var(5.0);
        let c = m.add_binary_var(4.0);
        m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 1.0)], Sense::Le, 4.0);
        let s = m.solve().expect("solvable");
        assert_eq!(s.objective.round() as i64, 10);
        assert_eq!(s.int_value(a), 1);
        assert_eq!(s.int_value(b), 0);
        assert_eq!(s.int_value(c), 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max y s.t. 2y <= 7 -> LP 3.5, ILP 3.
        let mut m = Model::new(Objective::Maximize);
        let y = m.add_integer_var(0.0, 100.0, 1.0);
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 7.0);
        let lp = m.solve_lp().expect("lp");
        assert!((lp.objective - 3.5).abs() < 1e-6);
        let ip = m.solve().expect("ip");
        assert_eq!(ip.objective.round() as i64, 3);
    }

    #[test]
    fn mdfc_shaped_budget_equality() {
        // min 3a + 1b + 2c, a + b + c = 4, each in [0, 2] integer.
        let mut m = Model::new(Objective::Minimize);
        let a = m.add_integer_var(0.0, 2.0, 3.0);
        let b = m.add_integer_var(0.0, 2.0, 1.0);
        let c = m.add_integer_var(0.0, 2.0, 2.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Eq, 4.0);
        let s = m.solve().expect("solvable");
        assert_eq!(s.objective.round() as i64, 6);
        assert_eq!(s.int_value(b), 2);
        assert_eq!(s.int_value(c), 2);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + 10z, x <= 2.5 continuous, z binary, x + 4z <= 5.
        // z=1 -> x <= 1 -> obj 11; z=0 -> x = 2.5 -> 2.5.
        let mut m = Model::new(Objective::Maximize);
        let x = m.add_var(0.0, 2.5, 1.0);
        let z = m.add_binary_var(10.0);
        m.add_constraint(vec![(x, 1.0), (z, 4.0)], Sense::Le, 5.0);
        let s = m.solve().expect("solvable");
        assert!((s.objective - 11.0).abs() < 1e-6);
        assert_eq!(s.int_value(z), 1);
    }

    #[test]
    fn integer_infeasible() {
        // 2x = 3 with integer x.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_integer_var(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Sense::Eq, 3.0);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible)));
    }

    #[test]
    fn empty_model_solves_trivially() {
        let m = Model::new(Objective::Minimize);
        let s = m.solve().expect("trivial");
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn presolve_tightens_singleton_rows() {
        // 2x <= 10 (x <= 5) and -x <= -2 (x >= 2); min x -> 2.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Sense::Le, 10.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, -2.0);
        let s = m.solve().expect("solvable");
        assert!((s.objective - 2.0).abs() < 1e-9);
        // And max x -> 5 through the same rows.
        let mut m = Model::new(Objective::Maximize);
        let x = m.add_var(0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Sense::Le, 10.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, -2.0);
        let s = m.solve().expect("solvable");
        assert!((s.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn presolve_detects_empty_row_infeasibility() {
        let mut m = Model::new(Objective::Minimize);
        let _x = m.add_var(0.0, 1.0, 1.0);
        // 0 >= 3 encoded as an empty Ge row.
        m.add_constraint(Vec::<(VarId, f64)>::new(), Sense::Ge, 3.0);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible)));
        // A vacuous empty row is dropped without harm.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(Vec::<(VarId, f64)>::new(), Sense::Le, 3.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0);
        assert!((m.solve().expect("solvable").objective - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Objective::Minimize);
        let _ = m.add_var(2.0, 1.0, 0.0);
    }
}
