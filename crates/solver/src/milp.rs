//! Branch-and-bound layer over the LP relaxation.
//!
//! Depth-first search with best-incumbent pruning. The branch variable is
//! the most fractional one (first on ties); the search explores the
//! branch nearer the fractional value first (a cheap form of best-first
//! dive). Node, pivot, cut and refactorization counts are
//! reported in [`BranchBoundStats`] so benchmark tables can include
//! solver effort, not just wall time.
//!
//! At the root, **knapsack cover cuts** ([`crate::cuts`]) are separated
//! from `<=`/`=` rows over binaries (cut-and-branch): a few rounds of
//! globally valid covers tighten the relaxation before the tree starts,
//! which the ILP-II budget row is particularly amenable to.
//!
//! Child nodes are warm-started from the parent's optimal basis: a branch
//! only tightens one variable's bounds, which leaves the basis dual
//! feasible, so the child re-optimizes with a few dual-simplex pivots
//! instead of a from-scratch primal solve. Both children of a node share
//! the parent state through an [`Rc`] and clone it on use; any numerical
//! trouble on the warm path falls back to the cold solve. The warm state
//! is backend-shaped: an LU-factored [`SparseSimplex`] for the default
//! sparse engine, a dense [`Tableau`] for the reference oracle.

use std::rc::Rc;

use crate::cuts;
use crate::model::{Model, Solution, SolveError, SolverBackend, VarId};
use crate::simplex::{self, LpStatus, StandardLp, Tableau};
use crate::sparse::{self, SparseLp, SparseSimplex};

/// Rounds of cover-cut separation at the root.
const CUT_ROUNDS: usize = 3;
/// Maximum cover cuts accepted per separation round.
const CUTS_PER_ROUND: usize = 8;

/// Tuning knobs for [`Model::solve_with`].
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes before giving up.
    pub node_limit: usize,
    /// Absolute integrality tolerance.
    pub int_tol: f64,
    /// Prune nodes whose bound is within this of the incumbent (absolute).
    pub gap_tol: f64,
    /// Warm-start child nodes from the parent LP basis (dual simplex).
    /// Disable to force the from-scratch solve at every node (slower;
    /// useful for testing and as a numerical escape hatch).
    pub warm_start: bool,
    /// Objective value of a known feasible solution (in the model's own
    /// optimization direction), used as the initial incumbent bound: any
    /// node whose relaxation cannot beat it by more than `gap_tol` is
    /// pruned immediately. When the search ends without finding a strictly
    /// better integer solution, [`Model::solve_with`] returns
    /// [`SolveError::Cutoff`] and the caller should keep the solution the
    /// cutoff came from.
    pub cutoff: Option<f64>,
    /// Separate knapsack cover cuts at the root (cut-and-branch).
    pub cover_cuts: bool,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            node_limit: 200_000,
            int_tol: 1e-6,
            gap_tol: 1e-9,
            warm_start: true,
            cutoff: None,
            cover_cuts: true,
        }
    }
}

/// Search statistics from a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchBoundStats {
    /// LP relaxations solved.
    pub nodes: usize,
    /// Nodes pruned by bound.
    pub pruned: usize,
    /// Incumbent improvements.
    pub incumbents: usize,
    /// Total simplex pivots across all relaxations.
    pub pivots: usize,
    /// Nodes re-optimized from the parent basis (dual simplex).
    pub warm_solves: usize,
    /// LU basis refactorizations (sparse backend only).
    pub refactorizations: usize,
    /// Cover cuts added at the root.
    pub cuts: usize,
}

/// Backend-shaped warm-start state shared by both children of a node.
enum WarmState {
    Dense(Rc<Tableau>),
    Sparse(Rc<SparseSimplex>),
}

impl WarmState {
    fn share(&self) -> WarmState {
        match self {
            WarmState::Dense(t) => WarmState::Dense(Rc::clone(t)),
            WarmState::Sparse(s) => WarmState::Sparse(Rc::clone(s)),
        }
    }
}

struct Node {
    /// (var, lb, ub) bound overrides along this branch.
    bounds: Vec<(VarId, f64, f64)>,
    /// Parent's optimal basis plus this node's single new bound
    /// `(column, lb, ub)` — in root standard space for the dense backend,
    /// in model space for the sparse backend.
    warm: Option<(WarmState, (usize, f64, f64))>,
    depth: usize,
}

/// Per-node LP solve outcome, normalized to model space.
enum Relaxed {
    Optimal(Solution, Option<WarmState>),
    Infeasible,
    Unbounded,
    Fatal(SolveError),
}

/// Shared per-search solve context: the cut-augmented models and the
/// backend-specific root forms they compile to.
struct SearchCtx {
    /// Presolved root model plus any cover cuts (bound base for branching).
    work: Model,
    /// Original model plus the same cuts (cold-solve base: keeps the
    /// original rows so node bounds computed against original bases stay
    /// sound).
    cold_base: Model,
    backend: SolverBackend,
    minimize_sign: f64,
    /// Dense-backend root form: standard LP, objective offset, root lower
    /// bounds (the shift the warm deltas are expressed in).
    dense: Option<(StandardLp, f64, Vec<f64>)>,
    /// Sparse-backend root form.
    sparse: Option<Rc<SparseLp>>,
    scratch: Model,
}

impl SearchCtx {
    fn new(model: &Model, work: Model) -> Self {
        let backend = model.backend();
        let mut ctx = Self {
            work,
            cold_base: model.clone(),
            backend,
            minimize_sign: if model.is_minimize() { 1.0 } else { -1.0 },
            dense: None,
            sparse: None,
            scratch: model.clone(),
        };
        ctx.compile_root();
        ctx
    }

    /// (Re-)compiles the root forms from `work`; called after cut rounds.
    fn compile_root(&mut self) {
        match self.backend {
            SolverBackend::DenseReference => {
                let (lp, offset) = self.work.to_standard();
                let lower = self.work.lower_bounds().to_vec();
                self.dense = Some((lp, offset, lower));
                self.sparse = None;
            }
            SolverBackend::Sparse => {
                self.sparse = Some(Rc::new(SparseLp::build(&self.work)));
                self.dense = None;
            }
        }
    }

    /// Adds cover cuts to both models. The cuts are globally valid, so
    /// they strengthen every node's relaxation.
    fn add_cuts(&mut self, new_cuts: &[cuts::CoverCut]) {
        for cut in new_cuts {
            let terms: Vec<(VarId, f64)> = cut.vars.iter().map(|&v| (v, 1.0)).collect();
            self.work
                .add_constraint(terms.clone(), crate::Sense::Le, cut.rhs);
            self.cold_base
                .add_constraint(terms, crate::Sense::Le, cut.rhs);
        }
        self.compile_root();
    }

    /// Solves the root relaxation, producing the tree-seeding warm state.
    fn solve_root(&mut self, stats: &mut BranchBoundStats) -> Relaxed {
        match self.backend {
            SolverBackend::DenseReference => {
                let Some((lp, offset, lower)) = self.dense.as_ref() else {
                    return Relaxed::Fatal(SolveError::IterationLimit);
                };
                let (sol, warm) = simplex::solve_with_warm(lp);
                stats.pivots += sol.iterations;
                self.dense_outcome(sol, warm.map(Rc::new), *offset, lower)
            }
            SolverBackend::Sparse => {
                let Some(lp) = self.sparse.as_ref() else {
                    return Relaxed::Fatal(SolveError::IterationLimit);
                };
                let (sol, warm) = sparse::solve_sparse(lp);
                stats.pivots += sol.iterations;
                if let Some(sim) = &warm {
                    stats.refactorizations += sim.refactor_count();
                }
                self.sparse_outcome(sol, warm.map(Rc::new))
            }
        }
    }

    fn dense_outcome(
        &self,
        sol: simplex::LpSolution,
        warm: Option<Rc<Tableau>>,
        offset: f64,
        lower: &[f64],
    ) -> Relaxed {
        match sol.status {
            LpStatus::Optimal => {
                let values: Vec<f64> = sol.values.iter().zip(lower).map(|(v, lb)| v + lb).collect();
                let objective = self.minimize_sign * (sol.objective + offset);
                Relaxed::Optimal(
                    Solution {
                        values,
                        objective,
                        stats: BranchBoundStats::default(),
                    },
                    warm.map(WarmState::Dense),
                )
            }
            LpStatus::Infeasible => Relaxed::Infeasible,
            LpStatus::Unbounded => Relaxed::Unbounded,
            LpStatus::IterationLimit => Relaxed::Fatal(SolveError::IterationLimit),
        }
    }

    fn sparse_outcome(&self, sol: simplex::LpSolution, warm: Option<Rc<SparseSimplex>>) -> Relaxed {
        match sol.status {
            LpStatus::Optimal => Relaxed::Optimal(
                Solution {
                    values: sol.values,
                    objective: self.minimize_sign * sol.objective,
                    stats: BranchBoundStats::default(),
                },
                warm.map(WarmState::Sparse),
            ),
            LpStatus::Infeasible => Relaxed::Infeasible,
            LpStatus::Unbounded => Relaxed::Unbounded,
            LpStatus::IterationLimit => Relaxed::Fatal(SolveError::IterationLimit),
        }
    }

    /// Solves one node's relaxation: warm dual re-optimize when possible,
    /// cold solve on the cut-augmented base model otherwise.
    fn solve_node(
        &mut self,
        node: &Node,
        effective: &[(VarId, f64, f64)],
        stats: &mut BranchBoundStats,
        options: &MilpOptions,
    ) -> Relaxed {
        if options.warm_start {
            if let Some((parent, (col, lb, ub))) = &node.warm {
                match parent {
                    WarmState::Dense(parent) => {
                        let mut tab = Tableau::clone(parent);
                        if !tab.apply_var_bounds(*col, *lb, *ub) {
                            return Relaxed::Infeasible;
                        }
                        if let Some(sol) = tab.dual_solve() {
                            stats.pivots += sol.iterations;
                            stats.warm_solves += 1;
                            let (offset, lower): (f64, &[f64]) = match self.dense.as_ref() {
                                Some((_, off, low)) => (*off, low),
                                None => (0.0, &[]),
                            };
                            return self.dense_outcome(sol, Some(Rc::new(tab)), offset, lower);
                        }
                        // Dual solve bailed out: fall through to cold.
                    }
                    WarmState::Sparse(parent) => {
                        let mut sim = SparseSimplex::clone(parent);
                        if !sim.apply_var_bounds(*col, *lb, *ub) {
                            return Relaxed::Infeasible;
                        }
                        let refactor0 = sim.refactor_count();
                        if let Some(sol) = sim.dual_solve() {
                            stats.pivots += sol.iterations;
                            stats.warm_solves += 1;
                            stats.refactorizations += sim.refactor_count() - refactor0;
                            return self.sparse_outcome(sol, Some(Rc::new(sim)));
                        }
                        // Dual solve bailed out: fall through to cold.
                    }
                }
            }
        }

        if node.depth == 0 {
            return self.solve_root(stats);
        }

        // Cold fallback: apply bounds onto a fresh copy of the base model
        // (original rows plus cuts, so presolve-consumed singleton rows
        // cannot be loosened away).
        self.scratch.clone_from(&self.cold_base);
        for &(v, lb, ub) in effective {
            self.scratch.set_bounds(v, lb, ub);
        }
        match self.scratch.solve_lp() {
            Ok(s) => {
                stats.pivots += s.stats.pivots;
                stats.refactorizations += s.stats.refactorizations;
                Relaxed::Optimal(s, None)
            }
            Err(SolveError::Infeasible) => Relaxed::Infeasible,
            Err(SolveError::Unbounded) => Relaxed::Unbounded,
            Err(e) => Relaxed::Fatal(e),
        }
    }
}

/// Runs branch-and-bound and always reports the search statistics, even
/// when the outcome is an error (e.g. [`SolveError::Cutoff`], where the
/// caller's incumbent wins but the tree was still searched).
pub(crate) fn branch_and_bound(
    model: &Model,
    options: &MilpOptions,
) -> (Result<Solution, SolveError>, BranchBoundStats) {
    let mut stats = BranchBoundStats::default();
    let minimize_sign = if model.is_minimize() { 1.0 } else { -1.0 };
    // A caller-supplied incumbent objective acts as the initial pruning
    // level: the search only keeps solutions strictly better than it.
    let cutoff_min: Option<f64> = options.cutoff.map(|c| minimize_sign * c);

    let int_vars: Vec<VarId> = model.integer_vars().collect();
    debug_assert!(!int_vars.is_empty());

    // Root presolve once: singleton-row bound tightenings are valid at
    // every node, and the resulting forms fix the spaces all warm-started
    // bases share.
    let Some(work) = model.presolved() else {
        return (Err(SolveError::Infeasible), stats);
    };
    let mut ctx = SearchCtx::new(model, work);

    // Root solve + cover-cut rounds (cut-and-branch).
    let mut root = ctx.solve_root(&mut stats);
    if options.cover_cuts {
        for _ in 0..CUT_ROUNDS {
            let Relaxed::Optimal(sol, _) = &root else {
                break;
            };
            let fractional = int_vars.iter().any(|&v| {
                let val = sol.values[v.index()];
                (val - val.round()).abs() > options.int_tol
            });
            if !fractional {
                break;
            }
            let new_cuts = cuts::separate_cover_cuts(&ctx.work, &sol.values, CUTS_PER_ROUND);
            if new_cuts.is_empty() {
                break;
            }
            stats.cuts += new_cuts.len();
            ctx.add_cuts(&new_cuts);
            root = ctx.solve_root(&mut stats);
        }
    }

    let mut incumbent: Option<Solution> = None;
    let mut stack = vec![Node {
        bounds: Vec::new(),
        warm: None,
        depth: 0,
    }];
    let mut root_relax = Some(root);
    let mut relaxation_unbounded_at_root = false;

    while let Some(node) = stack.pop() {
        if stats.nodes >= options.node_limit {
            return match incumbent {
                Some(sol) => (Ok(finish(sol, stats)), stats),
                None => (Err(SolveError::NodeLimit), stats),
            };
        }

        // Effective bounds along this branch, checked for consistency
        // before any solve.
        let mut consistent = true;
        let mut effective: Vec<(VarId, f64, f64)> = Vec::with_capacity(node.bounds.len());
        for &(v, lb, ub) in &node.bounds {
            let (base_lb, base_ub) = model.bounds(v);
            let mut new_lb = base_lb.max(lb);
            let mut new_ub = base_ub.min(ub);
            if let Some(pos) = effective.iter().position(|&(ev, _, _)| ev == v) {
                new_lb = new_lb.max(effective[pos].1);
                new_ub = new_ub.min(effective[pos].2);
                effective[pos] = (v, new_lb, new_ub);
            } else {
                effective.push((v, new_lb, new_ub));
            }
            if new_lb > new_ub {
                consistent = false;
                break;
            }
        }
        if !consistent {
            stats.pruned += 1;
            continue;
        }

        stats.nodes += 1;
        let relax = match root_relax.take() {
            Some(r) if node.depth == 0 => r,
            _ => ctx.solve_node(&node, &effective, &mut stats, options),
        };
        let (relax, warm) = match relax {
            Relaxed::Optimal(sol, warm) => (sol, warm),
            Relaxed::Infeasible => continue,
            Relaxed::Unbounded => {
                if node.depth == 0 {
                    relaxation_unbounded_at_root = true;
                }
                // An unbounded relaxation at depth > 0 still means the MILP
                // may be unbounded; treat conservatively as unbounded.
                relaxation_unbounded_at_root = relaxation_unbounded_at_root || node.depth > 0;
                if relaxation_unbounded_at_root {
                    return (Err(SolveError::Unbounded), stats);
                }
                continue;
            }
            Relaxed::Fatal(e) => return (Err(e), stats),
        };

        // Bound pruning (compare in minimization sense) against the best
        // of the incumbent and the caller's cutoff.
        let prune_level = best_bound(&incumbent, cutoff_min, minimize_sign);
        if let Some(level) = prune_level {
            if minimize_sign * relax.objective >= level - options.gap_tol {
                stats.pruned += 1;
                continue;
            }
        }

        // Fractional candidates, in deterministic variable order.
        let mut candidates: Vec<(VarId, f64)> = Vec::new();
        for &v in &int_vars {
            let value = relax.value(v);
            if (value - value.round()).abs() > options.int_tol {
                candidates.push((v, value));
            }
        }

        if candidates.is_empty() {
            // Integer feasible: snap and record.
            let mut snapped = relax;
            for &v in &int_vars {
                snapped.values[v.index()] = snapped.values[v.index()].round();
            }
            let better = best_bound(&incumbent, cutoff_min, minimize_sign)
                .is_none_or(|level| minimize_sign * snapped.objective < level - options.gap_tol);
            if better {
                stats.incumbents += 1;
                incumbent = Some(snapped);
            }
            continue;
        }

        let (v, val) = candidates[most_fractional(&candidates)];
        let floor = val.floor();
        // Each child tightens one side of v around the fractional value;
        // compute the child's full [lb, ub] for v so the warm path can
        // apply it as a single delta. The base comes from the *presolved*
        // root model: singleton rows were consumed into these bounds and
        // no longer exist in the shared root forms, so dropping them here
        // would let children escape them.
        let (mut cur_lb, mut cur_ub) = ctx.work.bounds(v);
        if let Some(&(_, lb, ub)) = effective.iter().find(|&&(ev, _, _)| ev == v) {
            cur_lb = cur_lb.max(lb);
            cur_ub = cur_ub.min(ub);
        }
        // Warm deltas: root-standard space (shifted by the root lower
        // bound) for the dense backend, model space for the sparse one.
        let (down_delta, up_delta) = match ctx.backend {
            SolverBackend::DenseReference => {
                let lb0 = ctx
                    .dense
                    .as_ref()
                    .map_or(0.0, |(_, _, lower)| lower[v.index()]);
                (
                    (v.index(), cur_lb - lb0, floor - lb0),
                    (v.index(), floor + 1.0 - lb0, cur_ub - lb0),
                )
            }
            SolverBackend::Sparse => ((v.index(), cur_lb, floor), (v.index(), floor + 1.0, cur_ub)),
        };
        let frac = val - floor;
        let child = |bounds: Vec<(VarId, f64, f64)>, delta| Node {
            bounds,
            warm: warm.as_ref().map(|w| (w.share(), delta)),
            depth: node.depth + 1,
        };
        // Explore the nearer branch last so it pops first (DFS stack
        // order): dive towards the fractional value.
        let down = child(
            with_bound(&node.bounds, v, f64::NEG_INFINITY, floor),
            down_delta,
        );
        let up = child(
            with_bound(&node.bounds, v, floor + 1.0, f64::INFINITY),
            up_delta,
        );
        if frac < 0.5 {
            stack.push(up);
            stack.push(down);
        } else {
            stack.push(down);
            stack.push(up);
        }
    }

    match incumbent {
        Some(sol) => (Ok(finish(sol, stats)), stats),
        // With a cutoff the empty outcome is the expected "your incumbent
        // already wins" verdict, not an infeasibility proof.
        None if options.cutoff.is_some() => (Err(SolveError::Cutoff), stats),
        None => (Err(SolveError::Infeasible), stats),
    }
}

/// Index of the candidate `(var, value)` whose value is farthest from an
/// integer; the first one wins ties, which fixes the search order.
fn most_fractional(candidates: &[(VarId, f64)]) -> usize {
    let mut best = 0usize;
    let mut best_frac = 0.0f64;
    for (i, &(_, value)) in candidates.iter().enumerate() {
        let frac = (value - value.round()).abs();
        if frac > best_frac {
            best_frac = frac;
            best = i;
        }
    }
    best
}

/// The current pruning level in minimization sense: the better of the
/// incumbent objective and the caller's cutoff, if either exists.
fn best_bound(
    incumbent: &Option<Solution>,
    cutoff_min: Option<f64>,
    minimize_sign: f64,
) -> Option<f64> {
    let inc = incumbent.as_ref().map(|s| minimize_sign * s.objective);
    match (inc, cutoff_min) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

fn with_bound(bounds: &[(VarId, f64, f64)], v: VarId, lb: f64, ub: f64) -> Vec<(VarId, f64, f64)> {
    let mut out = bounds.to_vec();
    out.push((v, lb, ub));
    out
}

fn finish(mut sol: Solution, stats: BranchBoundStats) -> Solution {
    sol.stats = stats;
    sol
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Objective, Sense};

    /// Exhaustive reference solver for tiny pure-integer models.
    fn brute_force_best(
        maximize: bool,
        objs: &[f64],
        caps: &[i64],
        constraints: &[(Vec<f64>, Sense, f64)],
    ) -> Option<f64> {
        fn rec(idx: usize, caps: &[i64], current: &mut Vec<i64>, all: &mut Vec<Vec<i64>>) {
            if idx == caps.len() {
                all.push(current.clone());
                return;
            }
            for v in 0..=caps[idx] {
                current.push(v);
                rec(idx + 1, caps, current, all);
                current.pop();
            }
        }
        let mut all = Vec::new();
        rec(0, caps, &mut Vec::new(), &mut all);
        let feasible = all.into_iter().filter(|x| {
            constraints.iter().all(|(coeffs, sense, rhs)| {
                let lhs: f64 = coeffs
                    .iter()
                    .zip(x.iter())
                    .map(|(c, &v)| c * v as f64)
                    .sum();
                match sense {
                    Sense::Le => lhs <= rhs + 1e-9,
                    Sense::Ge => lhs >= rhs - 1e-9,
                    Sense::Eq => (lhs - rhs).abs() < 1e-9,
                }
            })
        });
        let objective =
            |x: &Vec<i64>| -> f64 { objs.iter().zip(x.iter()).map(|(c, &v)| c * v as f64).sum() };
        feasible
            .map(|x| objective(&x))
            .fold(None, |best: Option<f64>, o| match best {
                None => Some(o),
                Some(b) => Some(if maximize { b.max(o) } else { b.min(o) }),
            })
    }

    type BruteCase = (bool, Vec<f64>, Vec<i64>, Vec<(Vec<f64>, Sense, f64)>);

    fn run_cases(warm_start: bool) {
        let cases: Vec<BruteCase> = vec![
            (
                true,
                vec![5.0, 4.0, 3.0],
                vec![3, 3, 3],
                vec![(vec![2.0, 3.0, 1.0], Sense::Le, 5.0)],
            ),
            (
                false,
                vec![2.0, 7.0, 1.5, 4.0],
                vec![2, 2, 2, 2],
                vec![(vec![1.0, 1.0, 1.0, 1.0], Sense::Eq, 4.0)],
            ),
            (
                false,
                vec![1.0, 1.0, 10.0],
                vec![4, 4, 4],
                vec![
                    (vec![1.0, 2.0, 1.0], Sense::Ge, 5.0),
                    (vec![1.0, 0.0, 1.0], Sense::Le, 3.0),
                ],
            ),
        ];
        let opts = MilpOptions {
            warm_start,
            ..MilpOptions::default()
        };
        for (maximize, objs, caps, cons) in cases {
            let mut m = Model::new(if maximize {
                Objective::Maximize
            } else {
                Objective::Minimize
            });
            let vars: Vec<_> = objs
                .iter()
                .zip(&caps)
                .map(|(&o, &c)| m.add_integer_var(0.0, c as f64, o))
                .collect();
            for (coeffs, sense, rhs) in &cons {
                m.add_constraint(vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)), *sense, *rhs);
            }
            let expected = brute_force_best(maximize, &objs, &caps, &cons);
            match (m.solve_with(&opts), expected) {
                (Ok(sol), Some(best)) => {
                    assert!(
                        (sol.objective - best).abs() < 1e-6,
                        "milp {} vs brute {best} (warm_start {warm_start})",
                        sol.objective
                    );
                }
                (Err(SolveError::Infeasible), None) => {}
                (got, want) => panic!("mismatch: got {got:?}, brute force {want:?}"),
            }
        }
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        run_cases(true);
    }

    #[test]
    fn matches_brute_force_without_warm_start() {
        run_cases(false);
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Model::new(Objective::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_binary_var(1.0 + i as f64 * 0.3))
            .collect();
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Le, 3.0);
        let s = m.solve().expect("solvable");
        assert!(s.stats.nodes >= 1);
    }

    #[test]
    fn node_limit_without_incumbent_errors() {
        let mut m = Model::new(Objective::Minimize);
        // A problem that needs branching to find feasibility.
        let x = m.add_integer_var(0.0, 10.0, 1.0);
        let y = m.add_integer_var(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Sense::Eq, 7.0); // infeasible in integers
        let opts = MilpOptions {
            node_limit: 1,
            ..MilpOptions::default()
        };
        let res = m.solve_with(&opts);
        assert!(matches!(
            res,
            Err(SolveError::NodeLimit) | Err(SolveError::Infeasible)
        ));
    }

    #[test]
    fn cutoff_at_optimum_prunes_everything() {
        // Solve once to learn the optimum, then hand it back as a cutoff:
        // nothing strictly better exists, so the verdict is Cutoff — the
        // caller's incumbent wins, without the search re-proving it.
        let m = ilp2_tile(6, 3, 8.0);
        let baseline = m.solve().expect("solvable");
        let with_cutoff = m.solve_with(&MilpOptions {
            cutoff: Some(baseline.objective),
            ..MilpOptions::default()
        });
        assert!(matches!(with_cutoff, Err(SolveError::Cutoff)));
    }

    #[test]
    fn loose_cutoff_still_finds_the_optimum_with_less_work() {
        let m = ilp2_tile(8, 3, 11.0);
        let baseline = m.solve().expect("solvable");
        let with_cutoff = m
            .solve_with(&MilpOptions {
                // A strictly worse incumbent: the optimum must still be
                // found, and the pre-seeded bound can only shrink the tree.
                cutoff: Some(baseline.objective + 1.0),
                ..MilpOptions::default()
            })
            .expect("cutoff run solvable");
        assert!(
            (with_cutoff.objective - baseline.objective).abs() < 1e-6,
            "cutoff {} vs baseline {}",
            with_cutoff.objective,
            baseline.objective
        );
        assert!(
            with_cutoff.stats.nodes <= baseline.stats.nodes,
            "cutoff must not grow the tree: {} vs {}",
            with_cutoff.stats.nodes,
            baseline.stats.nodes
        );
    }

    #[test]
    fn cutoff_on_maximization_prunes_in_the_right_direction() {
        let mut m = Model::new(Objective::Maximize);
        let vars: Vec<_> = (0..5)
            .map(|i| m.add_binary_var(1.0 + i as f64 * 0.5))
            .collect();
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Le, 2.0);
        let best = m.solve().expect("solvable");
        // An unbeatable incumbent prunes everything...
        assert!(matches!(
            m.solve_with(&MilpOptions {
                cutoff: Some(best.objective),
                ..MilpOptions::default()
            }),
            Err(SolveError::Cutoff)
        ));
        // ...while a beatable one is beaten.
        let sol = m
            .solve_with(&MilpOptions {
                cutoff: Some(best.objective - 0.75),
                ..MilpOptions::default()
            })
            .expect("beatable cutoff");
        assert!((sol.objective - best.objective).abs() < 1e-6);
    }

    /// Builds an ILP-II tile-shaped instance: one-hot binaries per costed
    /// column over capacities, a convexity row per column, one budget row.
    fn ilp2_tile(k: usize, cap: u32, budget: f64) -> Model {
        let mut m = Model::new(Objective::Minimize);
        let mut budget_terms = Vec::new();
        for col in 0..k {
            let alpha = 1.0 + (col % 7) as f64 * 0.31;
            let vars: Vec<_> = (0..=cap)
                .map(|n| {
                    // Deliberately non-convex in n (weighted tiles produce
                    // such tables), so the LP relaxation goes fractional
                    // and branching actually happens.
                    let jitter = ((col * 31 + n as usize * 17) % 13) as f64 * 0.23;
                    let cost = alpha * (n as f64) * 0.4 + jitter;
                    m.add_binary_var(cost)
                })
                .collect();
            m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
            budget_terms.extend(vars.iter().enumerate().map(|(n, &v)| (v, n as f64)));
        }
        m.add_constraint(budget_terms, Sense::Eq, budget);
        m
    }

    #[test]
    fn warm_start_same_optimum_fewer_pivots_on_ilp2_tile() {
        // A budget that does not divide evenly across columns forces real
        // branching, so the warm path gets exercised.
        let m = ilp2_tile(8, 3, 11.0);
        let warm = m
            .solve_with(&MilpOptions::default())
            .expect("warm solvable");
        let cold = m
            .solve_with(&MilpOptions {
                warm_start: false,
                ..MilpOptions::default()
            })
            .expect("cold solvable");
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "optima differ: warm {} cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.stats.warm_solves > 0,
            "warm path never taken: {:?}",
            warm.stats
        );
        assert!(
            warm.stats.pivots < cold.stats.pivots,
            "warm {} pivots vs cold {}",
            warm.stats.pivots,
            cold.stats.pivots
        );
    }

    #[test]
    fn most_fractional_picks_farthest_from_integral() {
        let cands = [(VarId(0), 2.1), (VarId(1), 3.5), (VarId(2), 0.8)];
        assert_eq!(most_fractional(&cands), 1);
        // First wins ties.
        let cands = [(VarId(0), 1.5), (VarId(1), 2.5)];
        assert_eq!(most_fractional(&cands), 0);
    }

    #[test]
    fn cover_cuts_do_not_change_the_optimum() {
        // A knapsack with distinct weights, where cover separation can
        // actually fire.
        let mut weights = Vec::new();
        let mut m = Model::new(Objective::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| {
                let w = 2.0 + (i % 5) as f64 * 1.3;
                weights.push(w);
                m.add_binary_var(1.0 + i as f64 * 0.7)
            })
            .collect();
        m.add_constraint(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)),
            Sense::Le,
            14.0,
        );
        let with_cuts = m.solve().expect("with cuts");
        let without = m
            .solve_with(&MilpOptions {
                cover_cuts: false,
                ..MilpOptions::default()
            })
            .expect("without cuts");
        assert!(
            (with_cuts.objective - without.objective).abs() < 1e-6,
            "cuts changed the optimum: {} vs {}",
            with_cuts.objective,
            without.objective
        );
    }

    #[test]
    fn backends_agree_on_ilp2_tile() {
        let sparse = ilp2_tile(8, 3, 11.0);
        let mut dense = sparse.clone();
        dense.set_backend(crate::SolverBackend::DenseReference);
        let s = sparse.solve().expect("sparse solvable");
        let d = dense.solve().expect("dense solvable");
        assert!(
            (s.objective - d.objective).abs() < 1e-6,
            "sparse {} vs dense {}",
            s.objective,
            d.objective
        );
    }

    #[test]
    fn solve_with_stats_reports_the_tree_on_cutoff() {
        let m = ilp2_tile(6, 3, 8.0);
        let baseline = m.solve().expect("solvable");
        let (result, stats) = m.solve_with_stats(&MilpOptions {
            cutoff: Some(baseline.objective),
            ..MilpOptions::default()
        });
        assert!(matches!(result, Err(SolveError::Cutoff)));
        assert!(stats.nodes >= 1, "search ran but stats empty: {stats:?}");
    }
}
