//! Dense bounded-variable primal simplex with Big-M feasibility: the
//! test oracle the sparse engine is checked against. It shares no code
//! with [`crate::sparse`] beyond the model's presolve, so agreement
//! between the two is evidence, not tautology.
//!
// Exact `!= 0.0` comparisons in this file are sparsity/no-op guards:
// skipping arithmetic on an exactly-zero coefficient never changes a
// result, whereas an epsilon threshold would silently drop small but
// meaningful pivot terms. pilfill: allow-file(float-eq)
//!
//! Solves `min c'x  s.t.  Ax = b, 0 <= x <= u` where some components of `u`
//! may be infinite. Inequalities and general bounds are normalized into this
//! form by [`crate::model::Model`]. The tableau `[B^-1 A | B^-1 b]` is kept
//! in a single row-major `Vec<f64>` (one allocation, cache-friendly pivots)
//! and updated in place; nonbasic variables may rest at their lower *or*
//! upper bound (the standard upper-bounded simplex extension), which keeps
//! the tableau small for models with many box-constrained variables (e.g.
//! ILP-II binaries).
//!
//! Reduced costs are maintained incrementally across pivots and priced with
//! a cyclic candidate list (partial pricing), so a pivot costs O(rows·cols)
//! for the elimination but pricing no longer rescans every column against
//! every row. A full reduced-cost refresh runs periodically and before
//! declaring optimality, so accumulated float drift cannot produce a wrong
//! termination.

use super::{LpSolution, LpStatus};
use crate::model::{Model, SolveError};

const EPS: f64 = 1e-9;
/// Pivot elements smaller than this are rejected for stability.
const PIVOT_EPS: f64 = 1e-7;
/// Candidate-list size for partial pricing: the cyclic scan stops as soon
/// as this many improving columns have been seen and pivots on the best.
const PRICE_CANDIDATES: usize = 24;
/// Maintained reduced costs are refreshed from scratch every this many
/// pivots to bound float drift.
const REFRESH_INTERVAL: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NonbasicAt {
    Lower,
    Upper,
}

/// A linear program in dense computational standard form, built by
/// [`Model::to_standard`].
#[derive(Debug, Clone)]
pub(crate) struct StandardLp {
    /// Number of structural variables (excluding slacks/artificials).
    pub(crate) n_structural: usize,
    /// Objective coefficients (minimization), length `n_structural`.
    pub(crate) costs: Vec<f64>,
    /// Dense constraint rows over structural variables.
    pub(crate) rows: Vec<Vec<f64>>,
    /// Row senses normalized to `<=` (false) or `=` (true); `>=` rows are
    /// pre-negated by the caller.
    pub(crate) eq: Vec<bool>,
    /// Right-hand sides, one per row.
    pub(crate) rhs: Vec<f64>,
    /// Upper bounds per structural variable (may be `f64::INFINITY`).
    pub(crate) upper: Vec<f64>,
}

/// Solves the standard-form LP with the bounded-variable Big-M simplex.
///
/// All variables have implicit lower bound zero. Slack variables are added
/// for `<=` rows; artificial variables (with Big-M cost) are added for `=`
/// rows and for `<=` rows with negative right-hand side.
pub(crate) fn solve_standard(lp: &StandardLp) -> LpSolution {
    Tableau::build(lp).primal_solve()
}

/// Objective of the continuous relaxation of `model` on the dense
/// tableau, in the model's own direction: the oracle counterpart of
/// [`Model::solve_lp`], with the same presolve and error mapping.
pub(crate) fn lp_objective(model: &Model) -> Result<f64, SolveError> {
    let presolved = model.presolved().ok_or(SolveError::Infeasible)?;
    let (std_lp, offset) = presolved.to_standard();
    let sol = solve_standard(&std_lp);
    let sign = if model.is_minimize() { 1.0 } else { -1.0 };
    match sol.status {
        LpStatus::Optimal => Ok(sign * (sol.objective + offset)),
        LpStatus::Infeasible => Err(SolveError::Infeasible),
        LpStatus::Unbounded => Err(SolveError::Unbounded),
        LpStatus::IterationLimit => Err(SolveError::IterationLimit {
            rows: std_lp.rows.len(),
            cols: std_lp.n_structural,
            pivots: sol.iterations,
        }),
    }
}

#[derive(Debug, Clone)]
struct Tableau {
    /// `n_rows x n_cols` coefficient matrix (structural + slack +
    /// artificial), row-major in one flat allocation.
    a: Vec<f64>,
    /// Current right-hand side (basic variable values given nonbasic rests),
    /// expressed in the shifted variable space.
    b: Vec<f64>,
    /// Cost per column (Big-M applied to artificials).
    cost: Vec<f64>,
    /// Width of the feasible interval per column (`hi - lo` after shifts).
    upper: Vec<f64>,
    /// Maintained reduced costs, refreshed periodically.
    d: Vec<f64>,
    /// Basic variable (column index) per row.
    basis: Vec<usize>,
    /// O(1) basis membership (replaces scanning `basis`).
    in_basis: Vec<bool>,
    /// Rest position of each nonbasic column.
    at: Vec<NonbasicAt>,
    /// First artificial column (for the feasibility check).
    artificial_start: usize,
    /// Number of structural columns (prefix of the column range).
    n_structural: usize,
    /// Cyclic pricing cursor.
    price_start: usize,
    /// Scratch copy of the normalized pivot row.
    work: Vec<f64>,
    n_cols: usize,
    n_rows: usize,
    big_m: f64,
}

impl Tableau {
    fn build(lp: &StandardLp) -> Self {
        let n_rows = lp.rows.len();
        let n_struct = lp.n_structural;

        // Normalize rows so rhs >= 0 (flip row sign if needed); `<=` rows
        // that get flipped become `>=`, which then need surplus+artificial.
        // We encode: for each row, slack coefficient (+1 for <=, -1 for >=,
        // 0 for =) and whether an artificial is required.
        let mut rows = lp.rows.clone();
        let mut rhs = lp.rhs.clone();
        let mut slack_sign = vec![0.0f64; n_rows];
        let mut needs_artificial = vec![false; n_rows];
        for i in 0..n_rows {
            let mut ge = false;
            if rhs[i] < 0.0 {
                for v in rows[i].iter_mut() {
                    *v = -*v;
                }
                rhs[i] = -rhs[i];
                if !lp.eq[i] {
                    ge = true; // flipped <= becomes >=
                }
            }
            if lp.eq[i] {
                slack_sign[i] = 0.0;
                needs_artificial[i] = true;
            } else if ge {
                slack_sign[i] = -1.0;
                needs_artificial[i] = true;
            } else {
                slack_sign[i] = 1.0;
                needs_artificial[i] = false;
            }
        }

        // Row equilibration: scale each row so its largest coefficient has
        // magnitude 1. Keeps Big-M proportionate when callers pass rows
        // with wildly different magnitudes (e.g. capacitances vs counts).
        for i in 0..n_rows {
            let max_abs = rows[i].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            if max_abs > 0.0 && !(1e-3..=1e3).contains(&max_abs) {
                let inv = 1.0 / max_abs;
                for v in rows[i].iter_mut() {
                    *v *= inv;
                }
                rhs[i] *= inv;
            }
        }

        let n_slack = slack_sign.iter().filter(|&&s| s != 0.0).count();
        let n_art = needs_artificial.iter().filter(|&&x| x).count();
        let n_cols = n_struct + n_slack + n_art;

        let max_abs_cost = lp.costs.iter().fold(1.0f64, |m, &c| m.max(c.abs()));
        let max_abs_rhs = rhs.iter().fold(1.0f64, |m, &r| m.max(r.abs()));
        let big_m = 1e7 * max_abs_cost.max(max_abs_rhs);

        let mut a = vec![0.0; n_rows * n_cols];
        let mut cost = vec![0.0; n_cols];
        let mut upper = vec![f64::INFINITY; n_cols];
        cost[..n_struct].copy_from_slice(&lp.costs);
        upper[..n_struct].copy_from_slice(&lp.upper);
        for (i, row) in rows.iter().enumerate() {
            a[i * n_cols..i * n_cols + n_struct].copy_from_slice(row);
        }

        let mut col = n_struct;
        let mut slack_col = vec![usize::MAX; n_rows];
        for i in 0..n_rows {
            if slack_sign[i] != 0.0 {
                a[i * n_cols + col] = slack_sign[i];
                slack_col[i] = col;
                col += 1;
            }
        }
        let artificial_start = col;
        let mut basis = vec![usize::MAX; n_rows];
        for i in 0..n_rows {
            if needs_artificial[i] {
                a[i * n_cols + col] = 1.0;
                cost[col] = big_m;
                basis[i] = col;
                col += 1;
            } else {
                basis[i] = slack_col[i];
            }
        }
        debug_assert_eq!(col, n_cols);

        let mut in_basis = vec![false; n_cols];
        for &bj in &basis {
            in_basis[bj] = true;
        }

        let mut tab = Self {
            a,
            b: rhs,
            cost,
            upper,
            d: vec![0.0; n_cols],
            basis,
            in_basis,
            at: vec![NonbasicAt::Lower; n_cols],
            artificial_start,
            n_structural: n_struct,
            price_start: 0,
            work: vec![0.0; n_cols],
            n_cols,
            n_rows,
            big_m,
        };
        tab.refresh_reduced_costs();
        tab
    }

    #[inline]
    fn coeff(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n_cols + j]
    }

    /// Value of column `j` given its rest position, in shifted space.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.at[j] {
            NonbasicAt::Lower => 0.0,
            NonbasicAt::Upper => self.upper[j],
        }
    }

    /// Recomputes `d_j = c_j - c_B' B^-1 A_j` from scratch.
    fn refresh_reduced_costs(&mut self) {
        self.d.copy_from_slice(&self.cost);
        for i in 0..self.n_rows {
            let cb = self.cost[self.basis[i]];
            if cb != 0.0 {
                let row = &self.a[i * self.n_cols..(i + 1) * self.n_cols];
                for (dj, &aij) in self.d.iter_mut().zip(row) {
                    if aij != 0.0 {
                        *dj -= cb * aij;
                    }
                }
            }
        }
        for (j, dj) in self.d.iter_mut().enumerate() {
            if self.in_basis[j] {
                *dj = 0.0;
            }
        }
    }

    /// Whether moving nonbasic `j` in its feasible direction improves the
    /// objective.
    #[inline]
    fn improving(&self, j: usize) -> bool {
        match self.at[j] {
            NonbasicAt::Lower => self.d[j] < -EPS,
            NonbasicAt::Upper => self.d[j] > EPS,
        }
    }

    /// Partial pricing: cyclic scan collecting at most [`PRICE_CANDIDATES`]
    /// improving columns, returning the one with the largest |d|.
    fn price_candidate(&mut self) -> Option<(usize, f64)> {
        let n = self.n_cols;
        let mut best: Option<(usize, f64)> = None;
        let mut found = 0usize;
        for step in 0..n {
            let j = (self.price_start + step) % n;
            if self.in_basis[j] || !self.improving(j) {
                continue;
            }
            let dj = self.d[j];
            if best.is_none_or(|(_, bd)| dj.abs() > bd.abs()) {
                best = Some((j, dj));
            }
            found += 1;
            if found >= PRICE_CANDIDATES {
                self.price_start = (j + 1) % n;
                return best;
            }
        }
        self.price_start = 0;
        best
    }

    /// Bland's rule: smallest-index improving column (anti-cycling).
    fn price_bland(&self) -> Option<(usize, f64)> {
        (0..self.n_cols)
            .find(|&j| !self.in_basis[j] && self.improving(j))
            .map(|j| (j, self.d[j]))
    }

    fn primal_solve(&mut self) -> LpSolution {
        let iter_limit = 200 * (self.n_rows + self.n_cols).max(50);
        let mut iterations = 0usize;
        let mut degenerate_streak = 0usize;

        loop {
            if iterations > iter_limit {
                return LpSolution {
                    status: LpStatus::IterationLimit,
                    values: vec![0.0; self.n_structural],
                    objective: f64::NAN,
                    iterations,
                };
            }
            if iterations > 0 && iterations.is_multiple_of(REFRESH_INTERVAL) {
                self.refresh_reduced_costs();
            }

            let use_bland = degenerate_streak > 2 * self.n_rows.max(10);
            let entering = if use_bland {
                // Recompute before an anti-cycling pick: Bland's guarantee
                // needs exact signs, not drifted ones.
                self.refresh_reduced_costs();
                self.price_bland()
            } else {
                match self.price_candidate() {
                    Some(e) => Some(e),
                    None => {
                        // The maintained d claims optimality; verify with a
                        // full refresh before believing it.
                        self.refresh_reduced_costs();
                        self.price_candidate()
                    }
                }
            };

            let Some((q, dq)) = entering else {
                return self.extract(iterations);
            };

            // Direction: +1 if q increases from lower, -1 if decreases from
            // upper.
            let dir = if self.at[q] == NonbasicAt::Lower {
                1.0
            } else {
                -1.0
            };
            debug_assert!(dq * dir < 0.0);

            // Ratio test with bounds. t = amount of movement of q (>= 0).
            // Basic variable i changes by -dir * a[i][q] * t; it must stay
            // within [0, upper[basis[i]]]. q itself must stay within
            // [0, upper[q]].
            let mut t_max = if self.upper[q].is_finite() {
                self.upper[q]
            } else {
                f64::INFINITY
            };
            // Leaving candidate: (row, basic var goes to which bound).
            let mut leaving: Option<(usize, NonbasicAt)> = None;
            for i in 0..self.n_rows {
                let alpha = dir * self.coeff(i, q);
                let xb = self.b[i];
                if alpha > PIVOT_EPS {
                    // Basic decreases towards 0.
                    let t = xb / alpha;
                    if t < t_max {
                        t_max = t.max(0.0);
                        leaving = Some((i, NonbasicAt::Lower));
                    }
                } else if alpha < -PIVOT_EPS {
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() {
                        // Basic increases towards its upper bound.
                        let t = (ub - xb) / (-alpha);
                        if t < t_max {
                            t_max = t.max(0.0);
                            leaving = Some((i, NonbasicAt::Upper));
                        }
                    }
                }
            }

            if t_max.is_infinite() {
                // A ray in the composite (Big-M) objective while an
                // artificial is still basic at positive level does not
                // prove true unboundedness: the ray keeps the artificial
                // sum constant, so no feasible point has been reached.
                // Report infeasibility, matching the two-phase sparse
                // engine on infeasible-with-ray instances.
                let feas_tol = 1e-6 * (1.0 + self.big_m / 1e7);
                let artificial_residual = self
                    .basis
                    .iter()
                    .zip(&self.b)
                    .any(|(&bj, &xb)| bj >= self.artificial_start && xb.abs() > feas_tol);
                if artificial_residual {
                    return LpSolution {
                        status: LpStatus::Infeasible,
                        values: vec![0.0; self.n_structural],
                        objective: f64::NAN,
                        iterations,
                    };
                }
                return LpSolution {
                    status: LpStatus::Unbounded,
                    values: vec![0.0; self.n_structural],
                    objective: f64::NEG_INFINITY,
                    iterations,
                };
            }

            degenerate_streak = if t_max < EPS {
                degenerate_streak + 1
            } else {
                0
            };

            match leaving {
                None => {
                    // q moves all the way to its other bound; basis is
                    // unchanged ("bound flip").
                    for i in 0..self.n_rows {
                        self.b[i] -= dir * self.coeff(i, q) * t_max;
                    }
                    self.at[q] = match self.at[q] {
                        NonbasicAt::Lower => NonbasicAt::Upper,
                        NonbasicAt::Upper => NonbasicAt::Lower,
                    };
                }
                Some((r, leave_to)) => {
                    self.pivot(r, q, dir, t_max, leave_to);
                }
            }
            iterations += 1;
        }
    }

    /// Pivot: q enters the basis at row r after moving by `t >= 0` in
    /// direction `dir`; the old basic leaves to `leave_to`.
    fn pivot(&mut self, r: usize, q: usize, dir: f64, t: f64, leave_to: NonbasicAt) {
        let leaving_var = self.basis[r];
        let nc = self.n_cols;

        // Update basic values for the movement t of q.
        for i in 0..self.n_rows {
            self.b[i] -= dir * self.a[i * nc + q] * t;
        }
        // New basic value of q = rest value + dir * t.
        let q_new = self.nonbasic_value(q) + dir * t;

        // Normalize pivot row and stash it for the eliminations.
        let piv = self.a[r * nc + q];
        debug_assert!(piv.abs() > PIVOT_EPS * 0.5, "tiny pivot {piv}");
        let inv = 1.0 / piv;
        for v in self.a[r * nc..(r + 1) * nc].iter_mut() {
            *v *= inv;
        }
        self.work.copy_from_slice(&self.a[r * nc..(r + 1) * nc]);
        // b[r] currently holds the (updated) value of the *leaving*
        // variable; replace row content for q's row, eliminating q from
        // other rows. For the b vector we maintain actual basic values, so
        // set row r to q's value first, then eliminate.
        self.b[r] = q_new;

        for (i, row) in self.a.chunks_exact_mut(nc).enumerate() {
            if i == r {
                continue;
            }
            let factor = row[q];
            if factor != 0.0 {
                for (x, y) in row.iter_mut().zip(&self.work) {
                    *x -= factor * y;
                }
                // b[i] was already updated by the movement step; the
                // elimination does not change basic values, only the
                // representation.
            }
        }

        // Reduced costs: d_j -= d_q * (normalized pivot row)_j. The column
        // of the leaving variable is the unit e_r pre-pivot, so the same
        // update assigns it -d_q / piv; the entering column lands on zero.
        let dq = self.d[q];
        if dq != 0.0 {
            for (dj, &wj) in self.d.iter_mut().zip(&self.work) {
                if wj != 0.0 {
                    *dj -= dq * wj;
                }
            }
        }
        self.d[q] = 0.0;

        self.basis[r] = q;
        self.in_basis[q] = true;
        self.in_basis[leaving_var] = false;
        self.at[leaving_var] = leave_to;
        // Guard: a nonbasic "at upper" with infinite bound is invalid; can
        // only happen with numerical trouble.
        if leave_to == NonbasicAt::Upper && !self.upper[leaving_var].is_finite() {
            self.at[leaving_var] = NonbasicAt::Lower;
        }
    }

    fn extract(&self, iterations: usize) -> LpSolution {
        let mut values = vec![0.0; self.n_cols];
        for (j, v) in values.iter_mut().enumerate() {
            if !self.in_basis[j] {
                *v = self.nonbasic_value(j);
            }
        }
        for (i, &bj) in self.basis.iter().enumerate() {
            values[bj] = self.b[i];
        }
        // Check artificials: any residual means infeasible.
        let feas_tol = 1e-6 * (1.0 + self.big_m / 1e7);
        for v in &values[self.artificial_start..self.n_cols] {
            if v.abs() > feas_tol {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    values: vec![0.0; self.n_structural],
                    objective: f64::NAN,
                    iterations,
                };
            }
        }
        let structural: Vec<f64> = values[..self.n_structural]
            .iter()
            .map(|&x| if x.abs() < 1e-11 { 0.0 } else { x })
            .collect();
        let objective = structural.iter().zip(&self.cost).map(|(v, c)| v * c).sum();
        LpSolution {
            status: LpStatus::Optimal,
            values: structural,
            objective,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Objective, Sense};
    use pilfill_prng::rngs::StdRng;
    use pilfill_prng::{Rng, SeedableRng};

    fn lp(costs: Vec<f64>, rows: Vec<(Vec<f64>, bool, f64)>, upper: Vec<f64>) -> StandardLp {
        let n = costs.len();
        StandardLp {
            n_structural: n,
            costs,
            eq: rows.iter().map(|r| r.1).collect(),
            rhs: rows.iter().map(|r| r.2).collect(),
            rows: rows.into_iter().map(|r| r.0).collect(),
            upper,
        }
    }

    #[test]
    fn simple_two_var_max() {
        // min -x - 2y s.t. x + y <= 4, y <= 3 (via bound). Optimum (1, 3).
        let p = lp(
            vec![-1.0, -2.0],
            vec![(vec![1.0, 1.0], false, 4.0)],
            vec![f64::INFINITY, 3.0],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - (-7.0)).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.values[0] - 1.0).abs() < 1e-6);
        assert!((s.values[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + 2y = 6, 0<=x, 0<=y<=2 -> y=2, x=2, obj 4.
        let p = lp(
            vec![1.0, 1.0],
            vec![(vec![1.0, 2.0], true, 6.0)],
            vec![f64::INFINITY, 2.0],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 3 (encoded as -x <= -3).
        let p = lp(
            vec![1.0],
            vec![(vec![1.0], false, 1.0), (vec![-1.0], false, -3.0)],
            vec![f64::INFINITY],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x, x >= 0 unbounded.
        let p = lp(vec![-1.0], vec![], vec![f64::INFINITY]);
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn bounded_by_upper_only() {
        // min -x - y with x<=5, y<=7 and no rows: optimum at (5,7).
        let p = lp(vec![-1.0, -1.0], vec![], vec![5.0, 7.0]);
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 12.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple constraints active at the optimum.
        let p = lp(
            vec![-1.0, -1.0],
            vec![
                (vec![1.0, 0.0], false, 2.0),
                (vec![1.0, 0.0], false, 2.0),
                (vec![0.0, 1.0], false, 2.0),
                (vec![1.0, 1.0], false, 4.0),
            ],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_le_row_feasible() {
        // -x <= -2 means x >= 2; min x -> 2.
        let p = lp(
            vec![1.0],
            vec![(vec![-1.0], false, -2.0)],
            vec![f64::INFINITY],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn classic_product_mix() {
        // min -3x - 5y; x <= 4; 2y <= 12; 3x + 2y <= 18 -> (2, 6), obj -36.
        let p = lp(
            vec![-3.0, -5.0],
            vec![
                (vec![1.0, 0.0], false, 4.0),
                (vec![0.0, 2.0], false, 12.0),
                (vec![3.0, 2.0], false, 18.0),
            ],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 36.0).abs() < 1e-6);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_with_upper_bounds_budget() {
        // The MDFC shape: min c'm s.t. sum m = F, 0 <= m_k <= C_k.
        // c = [3, 1, 2], C = [2, 2, 2], F = 4 -> m = [0, 2, 2], obj 6.
        let p = lp(
            vec![3.0, 1.0, 2.0],
            vec![(vec![1.0, 1.0, 1.0], true, 4.0)],
            vec![2.0, 2.0, 2.0],
        );
        let s = solve_standard(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 6.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.values[0]).abs() < 1e-6);
        assert!((s.values[1] - 2.0).abs() < 1e-6);
        assert!((s.values[2] - 2.0).abs() < 1e-6);
    }

    /// A random bounded LP: continuous variables with mixed-sign finite
    /// lower bounds, occasional infinite uppers, and a handful of random
    /// rows, with every number a multiple of 1/4 so both engines stay well
    /// away from float noise.
    fn rand_lp(rng: &mut StdRng) -> Model {
        let quarters = |x: f64| (x * 4.0).round() / 4.0;
        let n = rng.gen_range(2usize..7);
        let mut m = Model::new(if rng.gen::<bool>() {
            Objective::Maximize
        } else {
            Objective::Minimize
        });
        let vars: Vec<_> = (0..n)
            .map(|_| {
                let lb = quarters(rng.gen_range(-4.0f64..2.0));
                let width = quarters(rng.gen_range(0.0f64..8.0));
                let ub = if rng.gen_range(0u32..5) == 0 {
                    f64::INFINITY
                } else {
                    lb + width
                };
                let obj = quarters(rng.gen_range(-5.0f64..5.0));
                m.add_var(lb, ub, obj)
            })
            .collect();
        for _ in 0..rng.gen_range(1usize..4) {
            let coeffs: Vec<f64> = (0..n)
                .map(|_| quarters(rng.gen_range(-3.0f64..3.0)))
                .collect();
            let sense = match rng.gen_range(0u32..4) {
                0 | 1 => Sense::Le,
                2 => Sense::Ge,
                _ => Sense::Eq,
            };
            let rhs = quarters(rng.gen_range(-6.0f64..10.0));
            m.add_constraint(vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)), sense, rhs);
        }
        m
    }

    /// 192 random bounded LPs: the sparse engine behind [`Model::solve_lp`]
    /// and this tableau must report the same status, and equal objectives
    /// at optimality.
    #[test]
    fn sparse_lp_objectives_agree_with_the_dense_oracle() {
        let mut rng = StdRng::seed_from_u64(0xEAE_0001);
        for case in 0..192 {
            let model = rand_lp(&mut rng);
            match (model.solve_lp(), lp_objective(&model)) {
                (Ok(s), Ok(d)) => {
                    let tol = 1e-6 * (1.0 + d.abs());
                    assert!(
                        (s.objective - d).abs() <= tol,
                        "case {case}: sparse {} vs dense {d}",
                        s.objective
                    );
                }
                (Err(se), Err(de)) => {
                    assert_eq!(se, de, "case {case}: sparse err vs dense err");
                }
                (s, d) => panic!("case {case}: sparse {s:?} vs dense {d:?}"),
            }
        }
    }
}
