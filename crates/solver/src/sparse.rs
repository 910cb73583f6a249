//! Sparse revised simplex with bounded variables and an LU-factored basis.
//!
//! This is the solver's only LP engine. Compared to the dense tableau
//! oracle its tests check it against (`simplex::dense_reference`, built
//! only under `cfg(test)`):
//!
//! - **Columns are sparse** `(row, value)` vectors in CSC layout; the
//!   work per iteration scales with the nonzeros touched, not with
//!   `rows × cols`.
//! - **The basis is an LU factorization** ([`crate::lu::Lu`]): FTRAN/BTRAN
//!   solves replace the explicitly maintained `B^-1 A`, and basis
//!   exchanges append product-form update etas with a periodic
//!   refactorization cadence.
//! - **Bounds are native**: every variable (structural and logical) lives
//!   in `[lo, hi]` and nonbasic variables rest at either bound, so slack
//!   upper bounds never become rows and branch-and-bound tightenings stay
//!   in variable space (no lower-bound shifting as in the dense path).
//! - **Feasibility is two-phase**: rows whose initial logical value
//!   violates its bounds get a unit artificial, phase 1 minimizes the sum
//!   of artificials, and phase 2 runs with the artificials fixed to zero —
//!   no Big-M cost inflation, so tolerances stay at their natural scale.
//!
//! Pricing exploits a property the fill ILPs lean on heavily: a *bound
//! flip* (a nonbasic variable moving to its opposite bound) does not
//! change the basis, hence the duals and every reduced cost stay valid.
//! Each full pricing pass builds a candidate list sorted by `|d|`, and the
//! list is consumed flip after flip without re-pricing; only a true basis
//! exchange invalidates it. On the ILP-II knapsack relaxation this turns
//! hundreds of `O(n)` pricing scans into a handful.
//!
// Exact `== 0.0` / `!= 0.0` comparisons in this file are sparsity/no-op
// guards: skipping arithmetic on an exactly-zero entry never changes a
// result. pilfill: allow-file(float-eq)

use std::rc::Rc;

use crate::lu::{Lu, LuError, REFACTOR_INTERVAL};
use crate::model::{Model, SolveError};
use crate::simplex::{LpSolution, LpStatus};
use crate::Sense;

/// Reduced-cost optimality tolerance (and bound-width / degeneracy
/// threshold), absolute, in the model's own cost units.
const EPS: f64 = 1e-9;
/// Pivot elements smaller than this are rejected for stability.
const PIVOT_EPS: f64 = 1e-7;
/// Dual simplex primal and dual feasibility tolerance per unit of
/// [`SparseLp::scale`].
const DUAL_FEAS_TOL: f64 = 1e-7;

/// Cost gap, in a model's own objective units, above which the simplex
/// answer of a *unit-row program* is the threshold selection.
///
/// A unit-row program minimizes `c'x` subject to one equality row
/// `sum x_j = F` with unit coefficients and box bounds `0 <= x_j <= u_j`
/// (ILP-I, and ILP-II's incremental encoding, are of this form). Fill the
/// cheapest variables first to `F`; call a variable *taken* if the fill
/// gives it a positive value and *open* if it leaves it room. When every
/// open variable costs more than this margin above every *other* taken
/// variable, that fill is the program's only optimum, and it is exactly
/// what the primal simplex returns:
///
/// - the basis is the one row, so the dual is one value `y` (the cost of
///   the basic column, or 0 for a basic logical), and each reduced cost
///   is `c_j - y`, one rounded subtraction;
/// - the primal loop stops only when no non-fixed nonbasic column has a
///   reduced cost past [`EPS`] in its improving direction, so any
///   variable the simplex answer raises above the fill costs at most
///   `y + EPS`, and any it lowers below the fill costs at least
///   `y - EPS`;
/// - a different answer would need one variable of each kind, with costs
///   at most `2·EPS` apart, which the margin rules out;
/// - the root vertex is integral (every nonbasic column rests at an
///   integral bound, and the basic one takes the integral remainder), so
///   branch-and-bound stops at the root and never reaches the dual
///   simplex, and its unit pivot elements never meet [`PIVOT_EPS`].
///
/// The proof needs only `2·EPS` plus an ulp; the margin is ten times the
/// largest tolerance the engine applies at unit scale (`EPS`,
/// `PIVOT_EPS`, `DUAL_FEAS_TOL`), so it still holds if any of them is
/// loosened by up to that factor.
pub const UNIT_ROW_TIE_MARGIN: f64 = 10.0 * EPS.max(PIVOT_EPS).max(DUAL_FEAS_TOL);

/// A linear program in sparse computational form:
/// `min c'x  s.t.  Ax + l = b,  lo <= (x, l) <= hi`,
/// where `l` is one logical (slack) variable per row whose bounds encode
/// the row sense: `<=` gives `l in [0, inf)`, `>=` gives `l in (-inf, 0]`,
/// `=` gives `l = 0`.
#[derive(Debug, Clone)]
pub(crate) struct SparseLp {
    /// Number of structural variables.
    pub(crate) n: usize,
    /// Number of rows (== number of logicals).
    pub(crate) m: usize,
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_vals: Vec<f64>,
    /// Structural costs, minimization sense.
    pub(crate) cost: Vec<f64>,
    /// Right-hand sides (after row equilibration).
    rhs: Vec<f64>,
    /// Bounds for all `n + m` columns: structural first, then logicals.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Tolerance scale: `1 + max|rhs|`.
    scale: f64,
}

impl SparseLp {
    /// Builds the sparse form from a (presolved) [`Model`]. Maximization
    /// is negated into minimization; rows whose largest structural
    /// coefficient is far from 1 are equilibrated.
    pub(crate) fn build(model: &Model) -> Self {
        let n = model.num_vars();
        let cons = model.constraint_rows();
        let m = cons.len();
        let sign = if model.is_minimize() { 1.0 } else { -1.0 };
        let cost: Vec<f64> = model.objective_coeffs().iter().map(|&c| sign * c).collect();

        // Per-row equilibration factor.
        let mut row_scale = vec![1.0f64; m];
        for (i, c) in cons.iter().enumerate() {
            let max_abs = c.terms.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
            if max_abs > 0.0 && !(1e-3..=1e3).contains(&max_abs) {
                row_scale[i] = 1.0 / max_abs;
            }
        }

        // CSC assembly: count, prefix, fill. Explicit zero coefficients
        // (the fill ILPs emit them for n = 0 budget terms) are dropped so
        // column supports reflect true sparsity — the crash basis below
        // depends on singleton detection seeing through them.
        let mut counts = vec![0usize; n + 1];
        for c in cons {
            for &(j, v) in &c.terms {
                if v != 0.0 {
                    counts[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            counts[j + 1] += counts[j];
        }
        let nnz = counts[n];
        let mut col_rows = vec![0usize; nnz];
        let mut col_vals = vec![0.0f64; nnz];
        let mut cursor = counts.clone();
        for (i, c) in cons.iter().enumerate() {
            for &(j, v) in &c.terms {
                if v != 0.0 {
                    let k = cursor[j];
                    col_rows[k] = i;
                    col_vals[k] = v * row_scale[i];
                    cursor[j] += 1;
                }
            }
        }

        let mut rhs = Vec::with_capacity(m);
        let mut lower: Vec<f64> = model.lower_bounds().to_vec();
        let mut upper: Vec<f64> = model.upper_bounds().to_vec();
        for (i, c) in cons.iter().enumerate() {
            rhs.push(c.rhs * row_scale[i]);
            let (lo, hi) = match c.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
        }
        let scale = 1.0 + rhs.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        Self {
            n,
            m,
            col_ptr: counts,
            col_rows,
            col_vals,
            cost,
            rhs,
            lower,
            upper,
            scale,
        }
    }

    /// The [`SolveError::IterationLimit`] of a failed solve of this LP
    /// that made `pivots` pivots.
    pub(crate) fn iteration_limit(&self, pivots: usize) -> SolveError {
        SolveError::IterationLimit {
            rows: self.m,
            cols: self.n,
            pivots,
        }
    }
}

/// Where a variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

/// Outcome of one primal step on a candidate column.
enum Step {
    /// Bound flip: no basis change, candidate list stays valid.
    Flip,
    /// Basis exchange: reduced costs are stale.
    Pivot {
        degenerate: bool,
    },
    Unbounded,
    Trouble,
}

/// How a phase of the primal loop ended.
enum LoopEnd {
    Optimal,
    Unbounded,
    IterationLimit,
    Trouble,
}

/// Scatters column `j` of the working matrix through `f(row, value)`.
/// Columns `0..n` are structural (CSC), `n..n+m` are unit logicals, and
/// anything past that is an artificial `(row, sign)` pair.
#[inline]
fn col_apply(lp: &SparseLp, arts: &[(usize, f64)], j: usize, mut f: impl FnMut(usize, f64)) {
    if j < lp.n {
        for k in lp.col_ptr[j]..lp.col_ptr[j + 1] {
            f(lp.col_rows[k], lp.col_vals[k]);
        }
    } else if j < lp.n + lp.m {
        f(j - lp.n, 1.0);
    } else {
        let (row, sign) = arts[j - lp.n - lp.m];
        f(row, sign);
    }
}

/// Dot product of column `j` with a row-space vector.
#[inline]
fn col_dot(lp: &SparseLp, arts: &[(usize, f64)], j: usize, y: &[f64]) -> f64 {
    let mut acc = 0.0;
    col_apply(lp, arts, j, |i, a| acc += a * y[i]);
    acc
}

/// Sparse revised simplex state. A solved instance doubles as the
/// warm-start state for branch-and-bound: [`SparseSimplex::apply_var_bounds`]
/// tightens a structural variable in model space and
/// [`SparseSimplex::dual_solve`] re-optimizes from the current basis.
#[derive(Debug, Clone)]
pub(crate) struct SparseSimplex {
    lp: Rc<SparseLp>,
    /// Working bounds for all columns (structural, logical, artificial).
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Artificial columns as `(row, sign)`.
    arts: Vec<(usize, f64)>,
    status: Vec<VStat>,
    /// Basic column per row (slot).
    basis: Vec<usize>,
    /// Values of the basic variables, by slot.
    xb: Vec<f64>,
    lu: Lu,
    /// Row-space dual scratch.
    y: Vec<f64>,
    /// Reduced costs per column.
    d: Vec<f64>,
    /// FTRAN scratch (slot space).
    w: Vec<f64>,
    /// Improving candidate columns from the last full pricing.
    cands: Vec<usize>,
    phase1: bool,
}

impl SparseSimplex {
    /// Cold start: logical basis, artificials where the logical value
    /// violates its bounds.
    pub(crate) fn new(lp: Rc<SparseLp>) -> Self {
        let (n, m) = (lp.n, lp.m);
        let lo = lp.lower.clone();
        let up = lp.upper.clone();
        // Structural columns rest at their (finite, per Model's contract)
        // lower bound; the logical basis starts every row.
        let mut status = vec![VStat::AtLower; n];
        status.extend(std::iter::repeat_n(VStat::Basic, m));
        let basis: Vec<usize> = (n..n + m).collect();

        let mut sim = Self {
            lp: Rc::clone(&lp),
            lo,
            up,
            arts: Vec::new(),
            status,
            basis,
            xb: vec![0.0; m],
            lu: Lu::default(),
            y: vec![0.0; m],
            d: Vec::new(),
            w: vec![0.0; m],
            cands: Vec::new(),
            phase1: false,
        };
        // Identity basis always factors.
        let _ = sim.refactor();

        // Singleton-column crash: a structural column whose support is
        // exactly one row can replace that row's logical in the basis while
        // keeping the basis diagonal. When the implied basic value is
        // within the column's own bounds (and the displaced logical can
        // rest at zero, which every row sense admits), the row starts
        // primal-feasible with no artificial — on the fill ILPs, where
        // almost every row is a one-hot equality whose `n = 0` binary is a
        // free singleton, this eliminates phase 1 nearly outright.
        let tol = EPS * lp.scale;
        let mut row_singleton: Vec<Vec<usize>> = vec![Vec::new(); m];
        for j in 0..n {
            let span = lp.col_ptr[j]..lp.col_ptr[j + 1];
            if span.len() == 1 {
                let k = span.start;
                if lp.col_vals[k].abs() > PIVOT_EPS {
                    row_singleton[lp.col_rows[k]].push(j);
                }
            }
        }
        for (i, singletons) in row_singleton.iter().enumerate() {
            let v = sim.xb[i];
            let lj = n + i;
            if !(v < sim.lo[lj] - tol || v > sim.up[lj] + tol) {
                continue;
            }
            // First singleton whose implied basic value is in bounds wins.
            let chosen = singletons.iter().copied().find_map(|s| {
                let k = lp.col_ptr[s];
                let a = lp.col_vals[k];
                // With the logical resting at zero, the singleton absorbs
                // the whole row residual on top of its own rest value.
                let xs = sim.rest(s) + v / a;
                (xs >= sim.lo[s] - tol && xs <= sim.up[s] + tol).then_some((s, xs))
            });
            if let Some((s, xs)) = chosen {
                sim.status[lj] = if sim.lo[lj].is_finite() {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                };
                sim.status[s] = VStat::Basic;
                sim.basis[i] = s;
                sim.xb[i] = xs;
            }
        }
        // Remaining violated rows get an artificial that absorbs the
        // violation with a nonnegative value.
        let mut crashed = false;
        for i in 0..m {
            if sim.basis[i] < n {
                crashed = true;
                continue;
            }
            let v = sim.xb[i];
            let lj = n + i;
            let violated = v < sim.lo[lj] - tol || v > sim.up[lj] + tol;
            if violated {
                // Logical leaves to its nearest (zero) bound.
                sim.status[lj] = if v > 0.0 {
                    VStat::AtUpper
                } else {
                    VStat::AtLower
                };
                if !sim.up[lj].is_finite() {
                    sim.status[lj] = VStat::AtLower;
                }
                if !sim.lo[lj].is_finite() && sim.status[lj] == VStat::AtLower {
                    sim.status[lj] = VStat::AtUpper;
                }
                let rest = sim.rest(lj);
                let value = v - rest;
                let sign = if value >= 0.0 { 1.0 } else { -1.0 };
                let aj = n + m + sim.arts.len();
                sim.arts.push((i, sign));
                sim.status.push(VStat::Basic);
                sim.basis[i] = aj;
                sim.xb[i] = value.abs();
            }
        }
        for _ in 0..sim.arts.len() {
            sim.lo.push(0.0);
            sim.up.push(f64::INFINITY);
        }
        if crashed || !sim.arts.is_empty() {
            // Refactor with the crash/artificial basis (still diagonal:
            // singletons and unit columns only touch their own row).
            let _ = sim.refactor();
        }
        sim
    }

    /// The LP this state solves.
    pub(crate) fn lp(&self) -> &SparseLp {
        &self.lp
    }

    /// Cumulative LU refactorization count.
    pub(crate) fn refactor_count(&self) -> usize {
        self.lu.refactor_count()
    }

    fn total_cols(&self) -> usize {
        self.lp.n + self.lp.m + self.arts.len()
    }

    /// Phase-aware cost of column `j`.
    #[inline]
    fn cost(&self, j: usize) -> f64 {
        if self.phase1 {
            if j >= self.lp.n + self.lp.m {
                1.0
            } else {
                0.0
            }
        } else if j < self.lp.n {
            self.lp.cost[j]
        } else {
            0.0
        }
    }

    /// Rest value of a nonbasic column.
    #[inline]
    fn rest(&self, j: usize) -> f64 {
        match self.status[j] {
            VStat::AtLower => self.lo[j],
            VStat::AtUpper => self.up[j],
            VStat::Basic => debug_unreachable_zero(),
        }
    }

    #[inline]
    fn improving(&self, j: usize) -> bool {
        match self.status[j] {
            VStat::AtLower => self.d[j] < -EPS,
            VStat::AtUpper => self.d[j] > EPS,
            VStat::Basic => false,
        }
    }

    /// Full pricing: `y = B^-T c_B`, then `d_j = c_j - y·A_j`.
    fn reprice(&mut self) {
        let m = self.lp.m;
        let mut any = false;
        for k in 0..m {
            let c = self.cost(self.basis[k]);
            self.y[k] = c;
            any |= c != 0.0;
        }
        if any {
            self.lu.btran(&mut self.y);
        }
        let total = self.total_cols();
        self.d.resize(total, 0.0);
        for j in 0..total {
            self.d[j] = if self.status[j] == VStat::Basic {
                0.0
            } else if any {
                self.cost(j) - col_dot(&self.lp, &self.arts, j, &self.y)
            } else {
                self.cost(j)
            };
        }
    }

    /// Rebuilds the improving-candidate list. Normal mode sorts by `|d|`
    /// descending (Dantzig order); Bland mode sorts ascending by index for
    /// anti-cycling. Fixed (zero-width) columns can never improve and are
    /// skipped.
    fn build_candidates(&mut self, bland: bool) {
        self.cands.clear();
        for j in 0..self.total_cols() {
            if self.status[j] != VStat::Basic && self.up[j] - self.lo[j] > EPS && self.improving(j)
            {
                self.cands.push(j);
            }
        }
        if !bland {
            let d = &self.d;
            if self.phase1 {
                // Phase-1 reduced costs are quantized (artificial costs are
                // all 1), so ties are the common case — break them toward
                // the cheapest true cost. On budget-row-bound fill models
                // this makes phase 1 assemble the phase-2-optimal support
                // directly instead of an arbitrary feasible one that phase
                // 2 must then unwind one basis exchange at a time.
                let lp = &self.lp;
                let true_cost = |j: usize| if j < lp.n { lp.cost[j] } else { 0.0 };
                self.cands.sort_unstable_by(|&a, &b| {
                    d[b].abs()
                        .total_cmp(&d[a].abs())
                        .then(true_cost(a).total_cmp(&true_cost(b)))
                        .then(a.cmp(&b))
                });
            } else {
                self.cands
                    .sort_unstable_by(|&a, &b| d[b].abs().total_cmp(&d[a].abs()).then(a.cmp(&b)));
            }
        }
    }

    /// Gathers the current basis columns and refactors; recomputes `xb`
    /// from scratch to shed accumulated drift.
    fn refactor(&mut self) -> Result<(), LuError> {
        let m = self.lp.m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for k in 0..m {
            let mut c = Vec::new();
            col_apply(&self.lp, &self.arts, self.basis[k], |i, a| c.push((i, a)));
            cols.push(c);
        }
        self.lu.factor(&cols)?;
        self.recompute_xb();
        Ok(())
    }

    /// `xb = B^-1 (b - sum over nonbasic columns of A_j * rest_j)`.
    fn recompute_xb(&mut self) {
        let mut v = self.lp.rhs.clone();
        for j in 0..self.total_cols() {
            if self.status[j] != VStat::Basic {
                let rest = self.rest(j);
                if rest != 0.0 {
                    col_apply(&self.lp, &self.arts, j, |i, a| v[i] -= a * rest);
                }
            }
        }
        self.lu.ftran(&mut v);
        self.xb = v;
    }

    /// Loads `w = B^-1 A_j` into the scratch.
    fn load_ftran_column(&mut self, j: usize) {
        self.w.iter_mut().for_each(|x| *x = 0.0);
        let w = &mut self.w;
        col_apply(&self.lp, &self.arts, j, |i, a| w[i] += a);
        self.lu.ftran(&mut self.w);
    }

    /// One primal step on candidate `j`: ratio test, then either a bound
    /// flip or a basis exchange.
    fn step(&mut self, j: usize) -> Step {
        self.load_ftran_column(j);
        let dir = if self.status[j] == VStat::AtLower {
            1.0
        } else {
            -1.0
        };
        let width = self.up[j] - self.lo[j];
        let mut t_best = width;
        let mut leave: Option<(usize, VStat)> = None;
        let m = self.lp.m;
        for r in 0..m {
            let wr = self.w[r];
            if wr == 0.0 {
                continue;
            }
            let alpha = dir * wr;
            let bv = self.basis[r];
            let xbr = self.xb[r];
            if alpha > PIVOT_EPS {
                if self.lo[bv].is_finite() {
                    let t = (xbr - self.lo[bv]) / alpha;
                    if t < t_best {
                        t_best = t.max(0.0);
                        leave = Some((r, VStat::AtLower));
                    }
                }
            } else if alpha < -PIVOT_EPS && self.up[bv].is_finite() {
                let t = (self.up[bv] - xbr) / (-alpha);
                if t < t_best {
                    t_best = t.max(0.0);
                    leave = Some((r, VStat::AtUpper));
                }
            }
        }
        if t_best.is_infinite() {
            return Step::Unbounded;
        }
        match leave {
            None => {
                // Bound flip: move all the way to the opposite bound.
                for r in 0..m {
                    let wr = self.w[r];
                    if wr != 0.0 {
                        self.xb[r] -= dir * wr * t_best;
                    }
                }
                self.status[j] = match self.status[j] {
                    VStat::AtLower => VStat::AtUpper,
                    _ => VStat::AtLower,
                };
                Step::Flip
            }
            Some((r, leave_to)) => {
                let new_val = self.rest(j) + dir * t_best;
                for i in 0..m {
                    let wi = self.w[i];
                    if wi != 0.0 {
                        self.xb[i] -= dir * wi * t_best;
                    }
                }
                self.xb[r] = new_val;
                let lv = self.basis[r];
                self.status[lv] = if leave_to == VStat::AtUpper && !self.up[lv].is_finite() {
                    VStat::AtLower
                } else {
                    leave_to
                };
                self.basis[r] = j;
                self.status[j] = VStat::Basic;
                if !self.lu.push_update(&self.w, r) {
                    // Growth-triggered fallback: the update pivot is bad,
                    // so rebuild the factorization for the new basis.
                    if self.refactor().is_err() {
                        return Step::Trouble;
                    }
                }
                Step::Pivot {
                    degenerate: t_best < EPS,
                }
            }
        }
    }

    fn maybe_refactor(&mut self) -> bool {
        if self.lu.updates_since_refactor() >= REFACTOR_INTERVAL || self.lu.eta_growth_exceeded() {
            return self.refactor().is_ok();
        }
        true
    }

    /// Primal loop for the current phase. Consumes the candidate list
    /// across bound flips (duals unchanged), re-pricing only after basis
    /// exchanges; optimality is always verified with a fresh pricing pass.
    fn primal_loop(&mut self, iterations: &mut usize) -> LoopEnd {
        let total = self.total_cols();
        let iter_limit = 200 * (self.lp.m + total).max(50);
        let mut degenerate_streak = 0usize;
        loop {
            if *iterations > iter_limit {
                return LoopEnd::IterationLimit;
            }
            if !self.maybe_refactor() {
                return LoopEnd::Trouble;
            }
            let bland = degenerate_streak > (2 * self.lp.m).max(10);
            self.reprice();
            self.build_candidates(bland);
            if self.cands.is_empty() {
                return LoopEnd::Optimal;
            }
            let cands = std::mem::take(&mut self.cands);
            let mut outcome = None;
            for &j in &cands {
                if self.status[j] == VStat::Basic || !self.improving(j) {
                    continue;
                }
                *iterations += 1;
                match self.step(j) {
                    Step::Flip => {
                        degenerate_streak = 0;
                        if *iterations > iter_limit {
                            break;
                        }
                    }
                    Step::Pivot { degenerate } => {
                        degenerate_streak = if degenerate { degenerate_streak + 1 } else { 0 };
                        outcome = Some(LoopEnd::Optimal); // placeholder: continue outer loop
                        break;
                    }
                    Step::Unbounded => {
                        outcome = Some(LoopEnd::Unbounded);
                        break;
                    }
                    Step::Trouble => {
                        outcome = Some(LoopEnd::Trouble);
                        break;
                    }
                }
            }
            self.cands = cands;
            match outcome {
                Some(LoopEnd::Unbounded) => return LoopEnd::Unbounded,
                Some(LoopEnd::Trouble) => return LoopEnd::Trouble,
                _ => {}
            }
        }
    }

    /// Solves from the current (cold) state: phase 1 if artificials are
    /// present, then phase 2.
    pub(crate) fn primal_solve(&mut self) -> LpSolution {
        let mut iterations = 0usize;
        if !self.arts.is_empty() {
            self.phase1 = true;
            let end = self.primal_loop(&mut iterations);
            self.phase1 = false;
            match end {
                LoopEnd::Optimal => {}
                LoopEnd::Unbounded | LoopEnd::IterationLimit | LoopEnd::Trouble => {
                    return self.failed(LpStatus::IterationLimit, iterations);
                }
            }
            // Phase-1 objective: total artificial residual.
            let mut infeas = 0.0f64;
            for (k, &bv) in self.basis.iter().enumerate() {
                if bv >= self.lp.n + self.lp.m {
                    infeas += self.xb[k].abs();
                }
            }
            if infeas > 1e-7 * self.lp.scale {
                return self.failed(LpStatus::Infeasible, iterations);
            }
            // Fix artificials to zero for phase 2.
            for a in 0..self.arts.len() {
                let j = self.lp.n + self.lp.m + a;
                self.up[j] = 0.0;
            }
        }
        match self.primal_loop(&mut iterations) {
            LoopEnd::Optimal => self.extract(iterations),
            LoopEnd::Unbounded => self.failed(LpStatus::Unbounded, iterations),
            LoopEnd::IterationLimit | LoopEnd::Trouble => {
                self.failed(LpStatus::IterationLimit, iterations)
            }
        }
    }

    fn failed(&self, status: LpStatus, iterations: usize) -> LpSolution {
        LpSolution {
            status,
            values: vec![0.0; self.lp.n],
            objective: if status == LpStatus::Unbounded {
                f64::NEG_INFINITY
            } else {
                f64::NAN
            },
            iterations,
        }
    }

    /// Extracts the structural solution in **model space** (no shifts).
    fn extract(&self, iterations: usize) -> LpSolution {
        // Residual artificials mean the point is not actually feasible.
        let art_tol = 1e-6 * self.lp.scale;
        for (k, &bv) in self.basis.iter().enumerate() {
            if bv >= self.lp.n + self.lp.m && self.xb[k].abs() > art_tol {
                return self.failed(LpStatus::Infeasible, iterations);
            }
        }
        let mut values = vec![0.0; self.lp.n];
        for (j, v) in values.iter_mut().enumerate() {
            if self.status[j] != VStat::Basic {
                *v = self.rest(j);
            }
        }
        for (k, &bv) in self.basis.iter().enumerate() {
            if bv < self.lp.n {
                values[bv] = self.xb[k];
            }
        }
        for v in values.iter_mut() {
            if v.abs() < 1e-11 {
                *v = 0.0;
            }
        }
        let objective = values.iter().zip(&self.lp.cost).map(|(v, c)| v * c).sum();
        LpSolution {
            status: LpStatus::Optimal,
            values,
            objective,
            iterations,
        }
    }

    /// Tightens structural column `j` to `[lo, hi]` **in model space**.
    /// Only the basic values change (via the column's FTRAN image); the
    /// basis stays dual feasible, so [`SparseSimplex::dual_solve`]
    /// re-optimizes from here. Returns `false` on an empty interval.
    pub(crate) fn apply_var_bounds(&mut self, j: usize, lo: f64, hi: f64) -> bool {
        debug_assert!(j < self.lp.n);
        if hi - lo < -1e-9 {
            return false;
        }
        let hi = hi.max(lo);
        if self.status[j] == VStat::Basic {
            self.lo[j] = lo;
            self.up[j] = hi;
            return true;
        }
        let old_rest = self.rest(j);
        if self.status[j] == VStat::AtUpper && !hi.is_finite() {
            self.status[j] = VStat::AtLower;
        }
        self.lo[j] = lo;
        self.up[j] = hi;
        let delta = self.rest(j) - old_rest;
        if delta != 0.0 {
            self.load_ftran_column(j);
            for r in 0..self.lp.m {
                let wr = self.w[r];
                if wr != 0.0 {
                    self.xb[r] -= delta * wr;
                }
            }
        }
        true
    }

    /// Reduced-cost sign conditions for every nonbasic, non-fixed column.
    fn dual_feasible(&self, tol: f64) -> bool {
        (0..self.total_cols()).all(|j| match self.status[j] {
            VStat::Basic => true,
            _ if self.up[j] - self.lo[j] <= EPS => true,
            VStat::AtLower => self.d[j] >= -tol,
            VStat::AtUpper => self.d[j] <= tol,
        })
    }

    /// Re-optimizes with the bounded dual simplex after
    /// [`SparseSimplex::apply_var_bounds`]. Returns `None` on numerical
    /// trouble (the caller falls back to a cold solve); otherwise a
    /// solution with status `Optimal` or `Infeasible`.
    pub(crate) fn dual_solve(&mut self) -> Option<LpSolution> {
        let feas_tol = DUAL_FEAS_TOL * self.lp.scale;
        let total = self.total_cols();
        let iter_limit = 100 * (self.lp.m + total).max(50);
        let mut iterations = 0usize;
        loop {
            if iterations > iter_limit || !self.maybe_refactor() {
                return None;
            }
            self.reprice();
            if iterations == 0 && !self.dual_feasible(feas_tol) {
                return None;
            }

            // Leaving row: largest primal bound violation.
            let mut leave: Option<(usize, f64, VStat)> = None;
            for r in 0..self.lp.m {
                let bv = self.basis[r];
                let xbr = self.xb[r];
                if self.lo[bv].is_finite() && xbr < self.lo[bv] - feas_tol {
                    let viol = self.lo[bv] - xbr;
                    if leave.is_none_or(|(_, v, _)| viol > v) {
                        leave = Some((r, viol, VStat::AtLower));
                    }
                } else if self.up[bv].is_finite() && xbr > self.up[bv] + feas_tol {
                    let viol = xbr - self.up[bv];
                    if leave.is_none_or(|(_, v, _)| viol > v) {
                        leave = Some((r, viol, VStat::AtUpper));
                    }
                }
            }
            let Some((r, _, leave_to)) = leave else {
                // Primal feasible again; certify optimality on fresh duals.
                if !self.dual_feasible(feas_tol) {
                    return None;
                }
                return Some(self.extract(iterations));
            };

            // Alpha row: rho = B^-T e_r, alpha_j = rho · A_j.
            self.y.iter_mut().for_each(|x| *x = 0.0);
            self.y[r] = 1.0;
            self.lu.btran(&mut self.y);
            let below = leave_to == VStat::AtLower;
            let mut entering: Option<(usize, f64, f64)> = None;
            let mut any_eligible_sign = false;
            for j in 0..total {
                if self.status[j] == VStat::Basic {
                    continue;
                }
                let arj = col_dot(&self.lp, &self.arts, j, &self.y);
                let eligible = match (below, self.status[j]) {
                    (true, VStat::AtLower) => arj < -EPS,
                    (true, VStat::AtUpper) => arj > EPS,
                    (false, VStat::AtLower) => arj > EPS,
                    (false, VStat::AtUpper) => arj < -EPS,
                    (_, VStat::Basic) => false,
                };
                if !eligible {
                    continue;
                }
                any_eligible_sign = true;
                if arj.abs() <= PIVOT_EPS {
                    continue;
                }
                let ratio = self.d[j].abs() / arj.abs();
                let better = match entering {
                    None => true,
                    Some((_, best, besta)) => {
                        ratio < best - EPS || (ratio < best + EPS && arj.abs() > besta)
                    }
                };
                if better {
                    entering = Some((j, ratio, arj.abs()));
                }
            }
            match entering {
                Some((q, _, _)) => {
                    let dir = if self.status[q] == VStat::AtLower {
                        1.0
                    } else {
                        -1.0
                    };
                    self.load_ftran_column(q);
                    let wr = self.w[r];
                    if wr.abs() <= PIVOT_EPS * 0.5 {
                        return None;
                    }
                    let target = match leave_to {
                        VStat::AtLower => self.lo[self.basis[r]],
                        _ => self.up[self.basis[r]],
                    };
                    let t = ((self.xb[r] - target) / (dir * wr)).max(0.0);
                    let new_val = self.rest(q) + dir * t;
                    for i in 0..self.lp.m {
                        let wi = self.w[i];
                        if wi != 0.0 {
                            self.xb[i] -= dir * wi * t;
                        }
                    }
                    self.xb[r] = new_val;
                    let lv = self.basis[r];
                    self.status[lv] = if leave_to == VStat::AtUpper && !self.up[lv].is_finite() {
                        VStat::AtLower
                    } else {
                        leave_to
                    };
                    self.basis[r] = q;
                    self.status[q] = VStat::Basic;
                    if !self.lu.push_update(&self.w, r) && self.refactor().is_err() {
                        return None;
                    }
                }
                None if any_eligible_sign => return None,
                None => {
                    // No column can reduce the violation: primal infeasible.
                    return Some(LpSolution {
                        status: LpStatus::Infeasible,
                        values: vec![0.0; self.lp.n],
                        objective: f64::NAN,
                        iterations,
                    });
                }
            }
            iterations += 1;
        }
    }
}

#[cold]
fn debug_unreachable_zero() -> f64 {
    debug_assert!(false, "rest() called on a basic column");
    0.0
}

/// Solves the LP cold and, on optimality, returns the solved state for
/// warm-started re-solves.
pub(crate) fn solve_sparse(lp: &Rc<SparseLp>) -> (LpSolution, Option<SparseSimplex>) {
    let mut sim = SparseSimplex::new(Rc::clone(lp));
    let sol = sim.primal_solve();
    let warm = (sol.status == LpStatus::Optimal).then_some(sim);
    (sol, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Objective, Sense};

    fn solve_model(m: &Model) -> LpSolution {
        let pre = m.presolved().expect("feasible presolve");
        let lp = Rc::new(SparseLp::build(&pre));
        let (sol, _) = solve_sparse(&lp);
        sol
    }

    #[test]
    fn product_mix_matches_hand_solution() {
        // max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18 -> (2, 6), 36.
        let mut m = Model::new(Objective::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 3.0);
        let y = m.add_var(0.0, f64::INFINITY, 5.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve_model(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        // Internal objective is minimize sense: -36.
        assert!((s.objective + 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.values[0] - 2.0).abs() < 1e-6);
        assert!((s.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_budget_with_upper_bounds() {
        // min 3a + b + 2c, a + b + c = 4, all in [0, 2] -> (0, 2, 2), 6.
        let mut m = Model::new(Objective::Minimize);
        let a = m.add_var(0.0, 2.0, 3.0);
        let b = m.add_var(0.0, 2.0, 1.0);
        let c = m.add_var(0.0, 2.0, 2.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Eq, 4.0);
        let s = solve_model(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 6.0).abs() < 1e-6, "obj {}", s.objective);
        assert!(s.values[0].abs() < 1e-6);
    }

    #[test]
    fn infeasible_band_detected() {
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 3.0);
        // Presolve consumes singleton rows; rebuild with two-var rows so
        // the simplex itself proves infeasibility.
        let mut m2 = Model::new(Objective::Minimize);
        let a = m2.add_var(0.0, 10.0, 1.0);
        let b = m2.add_var(0.0, 10.0, 1.0);
        m2.add_constraint(vec![(a, 1.0), (b, 1.0)], Sense::Le, 1.0);
        m2.add_constraint(vec![(a, 1.0), (b, 1.0)], Sense::Ge, 3.0);
        assert!(m.presolved().is_none() || solve_model(&m).status == LpStatus::Infeasible);
        let s = solve_model(&m2);
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Objective::Maximize);
        let _ = m.add_var(0.0, f64::INFINITY, 1.0);
        let s = solve_model(&m);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_native() {
        // min x with x in [-5, 5], x >= -3 via a two-var row to survive
        // presolve: min x + 0y, x + y >= -3, y in [0, 0.5].
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(-5.0, 5.0, 1.0);
        let y = m.add_var(0.0, 0.5, 0.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, -3.0);
        let s = solve_model(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 3.5).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn ge_row_uses_logical_upper_bound() {
        // min x + y, x + y >= 7, x >= 2, y >= 3 (bounds) -> 7.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(2.0, f64::INFINITY, 1.0);
        let y = m.add_var(3.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 7.0);
        let s = solve_model(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 7.0).abs() < 1e-6);
    }

    #[test]
    fn warm_restart_matches_cold_after_bound_tightening() {
        let mut m = Model::new(Objective::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 3.0);
        let y = m.add_var(0.0, f64::INFINITY, 5.0);
        m.add_constraint(vec![(x, 1.0), (y, 0.001)], Sense::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let pre = m.presolved().expect("feasible");
        let lp = Rc::new(SparseLp::build(&pre));
        let (root, warm) = solve_sparse(&lp);
        assert_eq!(root.status, LpStatus::Optimal);
        let mut sim = warm.expect("warm state");
        assert!(sim.apply_var_bounds(0, 0.0, 1.0));
        let ws = sim.dual_solve().expect("dual path");
        assert_eq!(ws.status, LpStatus::Optimal);

        let mut cold = m.clone();
        cold.set_bounds(crate::VarId(0), 0.0, 1.0);
        let cs = solve_model(&cold);
        assert!(
            (ws.objective - cs.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            ws.objective,
            cs.objective
        );
    }

    #[test]
    fn warm_restart_raised_lower_bound() {
        // min 3a + b + 2c, a + b + c = 4, all [0,2]; then force a >= 1.
        let mut m = Model::new(Objective::Minimize);
        let _a = m.add_var(0.0, 2.0, 3.0);
        let _b = m.add_var(0.0, 2.0, 1.0);
        let _c = m.add_var(0.0, 2.0, 2.0);
        m.add_constraint(
            vec![
                (crate::VarId(0), 1.0),
                (crate::VarId(1), 1.0),
                (crate::VarId(2), 1.0),
            ],
            Sense::Eq,
            4.0,
        );
        let pre = m.presolved().expect("feasible");
        let lp = Rc::new(SparseLp::build(&pre));
        let (root, warm) = solve_sparse(&lp);
        assert_eq!(root.status, LpStatus::Optimal);
        let mut sim = warm.expect("warm");
        assert!(sim.apply_var_bounds(0, 1.0, 2.0));
        let s = sim.dual_solve().expect("dual path");
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 7.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.values[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn warm_restart_detects_infeasible_child() {
        // x + y = 4 with x, y in [0, 2]: forcing x = 0 leaves y = 4 > 2.
        let mut m = Model::new(Objective::Minimize);
        let x = m.add_var(0.0, 2.0, 1.0);
        let y = m.add_var(0.0, 2.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
        let pre = m.presolved().expect("feasible");
        let lp = Rc::new(SparseLp::build(&pre));
        let (root, warm) = solve_sparse(&lp);
        assert_eq!(root.status, LpStatus::Optimal);
        let mut sim = warm.expect("warm");
        assert!(sim.apply_var_bounds(0, 0.0, 0.0));
        let s = sim.dual_solve().expect("dual path");
        assert_eq!(s.status, LpStatus::Infeasible);
    }

    #[test]
    fn empty_interval_rejected() {
        let mut m = Model::new(Objective::Minimize);
        let _x = m.add_var(0.0, 5.0, 1.0);
        let lp = Rc::new(SparseLp::build(&m));
        let (_, warm) = solve_sparse(&lp);
        let mut sim = warm.expect("warm");
        assert!(!sim.apply_var_bounds(0, 3.0, 2.0));
    }

    #[test]
    fn knapsack_relaxation_is_mostly_bound_flips() {
        // ILP-II shape: one equality budget row over many bounded columns.
        // The candidate-list pricing should solve it with very few true
        // pivots (each pivot forces a full re-price; flips do not).
        let mut m = Model::new(Objective::Minimize);
        let mut terms = Vec::new();
        for k in 0..200usize {
            let cost = 1.0 + ((k * 37) % 101) as f64 * 0.013;
            let v = m.add_var(0.0, 1.0, cost);
            terms.push((v, 1.0 + (k % 5) as f64));
        }
        m.add_constraint(terms, Sense::Eq, 180.0);
        let s = solve_model(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        // Feasibility of the extracted point.
        let lhs: f64 = s
            .values
            .iter()
            .enumerate()
            .map(|(k, v)| v * (1.0 + (k % 5) as f64))
            .sum();
        assert!((lhs - 180.0).abs() < 1e-6, "budget row violated: {lhs}");
    }
}
