//! Branch-and-bound layer over the LP relaxation.
//!
//! Depth-first search with best-incumbent pruning. The branch variable is
//! the most fractional one (first on ties); the search explores the
//! branch nearer the fractional value first (a cheap form of best-first
//! dive). Node, pivot and refactorization counts are reported in
//! [`BranchBoundStats`] so benchmark tables can include solver effort,
//! not just wall time.
//!
//! Child nodes are warm-started from the parent's optimal basis: a branch
//! only tightens one variable's bounds, which leaves the basis dual
//! feasible, so the child re-optimizes with a few dual-simplex pivots
//! instead of a from-scratch primal solve. Both children of a node share
//! the parent's LU-factored [`SparseSimplex`] through an [`Rc`] and clone
//! it on use; any numerical trouble on the warm path falls back to a cold
//! solve of the caller's model under the node's bounds.

use std::rc::Rc;

use crate::model::{Model, Solution, SolveError, VarId};
use crate::simplex::{LpSolution, LpStatus};
use crate::sparse::{self, SparseLp, SparseSimplex};

/// Tuning knobs for [`Model::solve_with`].
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes before giving up.
    pub node_limit: usize,
    /// Absolute integrality tolerance.
    pub int_tol: f64,
    /// Prune nodes whose bound is within this of the incumbent (absolute).
    pub gap_tol: f64,
    /// Objective value of a known feasible solution (in the model's own
    /// optimization direction), used as the initial incumbent bound: any
    /// node whose relaxation cannot beat it by more than `gap_tol` is
    /// pruned immediately. When the search ends without finding a strictly
    /// better integer solution, [`Model::solve_with`] returns
    /// [`SolveError::Cutoff`] and the caller should keep the solution the
    /// cutoff came from.
    pub cutoff: Option<f64>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            node_limit: 200_000,
            int_tol: 1e-6,
            gap_tol: 1e-9,
            cutoff: None,
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
    /// LU basis refactorizations.
    pub refactorizations: usize,
    /// Cutting planes added. The search separates none, so this is always
    /// 0; the field stays so reports that carry it keep their shape.
    pub cuts: usize,
}

#[cfg(test)]
thread_local! {
    /// Test seam: when set, every node below the root skips the warm dual
    /// re-optimize and takes the cold solve, so tests can check the
    /// fallback path against the same oracles as the warm one.
    static COLD_NODES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct Node {
    /// (var, lb, ub) bound overrides along this branch.
    bounds: Vec<(VarId, f64, f64)>,
    /// Parent's optimal basis plus this node's single new bound
    /// `(column, lb, ub)` in model space.
    warm: Option<(Rc<SparseSimplex>, (usize, f64, f64))>,
    depth: usize,
}

/// Per-node LP solve outcome, normalized to model space.
enum Relaxed {
    Optimal(Solution, Option<Rc<SparseSimplex>>),
    Infeasible,
    Unbounded,
    Fatal(SolveError),
}

impl Relaxed {
    /// Wraps a sparse solve of `lp` (in minimization sense) as a
    /// model-space outcome; `minimize_sign` restores the model's own
    /// direction.
    fn from_lp(
        sol: LpSolution,
        lp: &SparseLp,
        warm: Option<Rc<SparseSimplex>>,
        minimize_sign: f64,
    ) -> Self {
        match sol.status {
            LpStatus::Optimal => Relaxed::Optimal(
                Solution {
                    values: sol.values,
                    objective: minimize_sign * sol.objective,
                    stats: BranchBoundStats::default(),
                },
                warm,
            ),
            LpStatus::Infeasible => Relaxed::Infeasible,
            LpStatus::Unbounded => Relaxed::Unbounded,
            LpStatus::IterationLimit => Relaxed::Fatal(lp.iteration_limit(sol.iterations)),
        }
    }
}

/// Solves one non-root node's relaxation: warm dual re-optimize from the
/// parent basis when possible, cold solve of `model` under the node's
/// `effective` bounds otherwise. The cold solve starts from the caller's
/// original rows, so presolve-consumed singleton rows cannot be loosened
/// away.
fn solve_node(
    model: &Model,
    node: &Node,
    effective: &[(VarId, f64, f64)],
    minimize_sign: f64,
    stats: &mut BranchBoundStats,
) -> Relaxed {
    #[cfg(test)]
    let warm = node.warm.as_ref().filter(|_| !COLD_NODES.get());
    #[cfg(not(test))]
    let warm = node.warm.as_ref();
    if let Some((parent, (col, lb, ub))) = warm {
        let mut sim = SparseSimplex::clone(parent);
        if !sim.apply_var_bounds(*col, *lb, *ub) {
            return Relaxed::Infeasible;
        }
        let refactor0 = sim.refactor_count();
        if let Some(sol) = sim.dual_solve() {
            stats.pivots += sol.iterations;
            stats.warm_solves += 1;
            stats.refactorizations += sim.refactor_count() - refactor0;
            return Relaxed::from_lp(sol, parent.lp(), Some(Rc::new(sim)), minimize_sign);
        }
        // Dual solve bailed out: fall through to cold.
    }

    let mut scratch = model.clone();
    for &(v, lb, ub) in effective {
        scratch.set_bounds(v, lb, ub);
    }
    match scratch.solve_lp() {
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
    // every node, and the compiled root LP fixes the space all
    // warm-started bases share.
    let Some(work) = model.presolved() else {
        return (Err(SolveError::Infeasible), stats);
    };
    let root_lp = Rc::new(SparseLp::build(&work));
    let (root_sol, root_warm) = sparse::solve_sparse(&root_lp);
    stats.pivots += root_sol.iterations;
    if let Some(sim) = &root_warm {
        stats.refactorizations += sim.refactor_count();
    }
    let mut root_relax = Some(Relaxed::from_lp(
        root_sol,
        &root_lp,
        root_warm.map(Rc::new),
        minimize_sign,
    ));

    let mut incumbent: Option<Solution> = None;
    let mut stack = vec![Node {
        bounds: Vec::new(),
        warm: None,
        depth: 0,
    }];
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
        // The root is the first node popped; every later one is solved
        // here.
        let relax = match root_relax.take() {
            Some(r) => r,
            None => solve_node(model, &node, &effective, minimize_sign, &mut stats),
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
        // no longer exist in the shared root LP, so dropping them here
        // would let children escape them.
        let (mut cur_lb, mut cur_ub) = work.bounds(v);
        if let Some(&(_, lb, ub)) = effective.iter().find(|&&(ev, _, _)| ev == v) {
            cur_lb = cur_lb.max(lb);
            cur_ub = cur_ub.min(ub);
        }
        let (down_delta, up_delta) = ((v.index(), cur_lb, floor), (v.index(), floor + 1.0, cur_ub));
        let frac = val - floor;
        let child = |bounds: Vec<(VarId, f64, f64)>, delta| Node {
            bounds,
            warm: warm.as_ref().map(|w| (Rc::clone(w), delta)),
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

    /// Runs `f` with every node below the root forced through the cold
    /// solve.
    fn with_cold_nodes<T>(f: impl FnOnce() -> T) -> T {
        COLD_NODES.set(true);
        let out = f();
        COLD_NODES.set(false);
        out
    }

    /// Checks the fixed instances against brute force and returns the
    /// summed `(nodes, warm_solves)` of the searches.
    fn run_cases() -> (usize, usize) {
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
        let (mut nodes, mut warm_solves) = (0, 0);
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
            match (m.solve(), expected) {
                (Ok(sol), Some(best)) => {
                    assert!(
                        (sol.objective - best).abs() < 1e-6,
                        "milp {} vs brute {best}",
                        sol.objective
                    );
                    nodes += sol.stats.nodes;
                    warm_solves += sol.stats.warm_solves;
                }
                (Err(SolveError::Infeasible), None) => {}
                (got, want) => panic!("mismatch: got {got:?}, brute force {want:?}"),
            }
        }
        (nodes, warm_solves)
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        let (_, warm_solves) = run_cases();
        assert!(warm_solves > 0, "no child node was warm-started");
    }

    #[test]
    fn matches_brute_force_without_warm_start() {
        let (nodes, warm_solves) = with_cold_nodes(run_cases);
        assert!(nodes > 3, "no case branched, so no cold node solve ran");
        assert_eq!(warm_solves, 0);
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

    /// Cost table of an ILP-II tile-shaped instance: `k` columns placing
    /// 0..=`cap` features each, at a cost deliberately non-convex in the
    /// count (weighted tiles produce such tables), so the LP relaxation
    /// goes fractional and branching actually happens.
    fn ilp2_costs(k: usize, cap: u32) -> Vec<Vec<f64>> {
        (0..k)
            .map(|col| {
                let alpha = 1.0 + (col % 7) as f64 * 0.31;
                (0..=cap)
                    .map(|n| {
                        let jitter = ((col * 31 + n as usize * 17) % 13) as f64 * 0.23;
                        alpha * (n as f64) * 0.4 + jitter
                    })
                    .collect()
            })
            .collect()
    }

    /// The one-hot ILP-II encoding of a cost table: a binary per (column,
    /// count), a convexity row per column, one budget row.
    fn one_hot(costs: &[Vec<f64>], budget: f64) -> Model {
        let mut m = Model::new(Objective::Minimize);
        let mut budget_terms = Vec::new();
        for table in costs {
            let vars: Vec<_> = table.iter().map(|&c| m.add_binary_var(c)).collect();
            m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
            budget_terms.extend(vars.iter().enumerate().map(|(n, &v)| (v, n as f64)));
        }
        m.add_constraint(budget_terms, Sense::Eq, budget);
        m
    }

    fn ilp2_tile(k: usize, cap: u32, budget: f64) -> Model {
        one_hot(&ilp2_costs(k, cap), budget)
    }

    /// Exact oracle for [`one_hot`] models: a DP over (column, features
    /// used so far) gives the least cost of placing exactly `budget`
    /// features, or `None` when the columns cannot hold them.
    fn budget_dp(costs: &[Vec<f64>], budget: usize) -> Option<f64> {
        let mut best = vec![f64::INFINITY; budget + 1];
        best[0] = 0.0;
        for table in costs {
            let mut next = vec![f64::INFINITY; budget + 1];
            for (used, &base) in best.iter().enumerate() {
                for (n, &c) in table.iter().enumerate().take(budget + 1 - used) {
                    next[used + n] = next[used + n].min(base + c);
                }
            }
            best = next;
        }
        Some(best[budget]).filter(|c| c.is_finite())
    }

    /// Solves the one-hot model of `costs` at `budget` and checks it
    /// against [`budget_dp`]: same optimum, and the incumbent is a
    /// one-hot point that places exactly `budget` features at that cost.
    fn check_against_budget_dp(costs: &[Vec<f64>], budget: usize, context: &str) {
        let result = one_hot(costs, budget as f64).solve();
        let Some(want) = budget_dp(costs, budget) else {
            assert!(
                matches!(result, Err(SolveError::Infeasible)),
                "{context}: DP infeasible, B&B {result:?}"
            );
            return;
        };
        let sol = result.unwrap_or_else(|e| panic!("{context}: {e}"));
        let tol = 1e-6 * (1.0 + want.abs());
        assert!(
            (sol.objective - want).abs() <= tol,
            "{context}: B&B {} vs DP {want}",
            sol.objective
        );
        let (mut placed, mut cost, mut at) = (0, 0.0, 0);
        for table in costs {
            let picked: Vec<usize> = (0..table.len())
                .filter(|&n| sol.values[at + n].round() == 1.0)
                .collect();
            assert_eq!(picked.len(), 1, "{context}: column not one-hot");
            placed += picked[0];
            cost += table[picked[0]];
            at += table.len();
        }
        assert_eq!(placed, budget, "{context}: incumbent misses the budget");
        assert!(
            (cost - want).abs() <= tol,
            "{context}: incumbent costs {cost}, DP {want}"
        );
    }

    #[test]
    fn warm_start_same_optimum_fewer_pivots_on_ilp2_tile() {
        // A budget that does not divide evenly across columns forces real
        // branching, so the warm path gets exercised.
        let m = ilp2_tile(8, 3, 11.0);
        let warm = m
            .solve_with(&MilpOptions::default())
            .expect("warm solvable");
        let cold = with_cold_nodes(|| m.solve()).expect("cold solvable");
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
    fn ilp2_tile_matches_budget_dp_at_every_budget() {
        let costs = ilp2_costs(8, 3);
        for budget in 0..=25 {
            check_against_budget_dp(&costs, budget, &format!("budget {budget}"));
        }
    }

    /// ILP-II-shaped instances at a larger scale than the fixed tile: the
    /// exact shape the fill flow produces, where bound-flip-heavy knapsack
    /// relaxations exercise the sparse engine's candidate list hardest.
    #[test]
    fn random_ilp2_tiles_match_budget_dp() {
        use pilfill_prng::rngs::StdRng;
        use pilfill_prng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xEAE_0003);
        for case in 0..8 {
            let k = rng.gen_range(6usize..14);
            let cap = rng.gen_range(2u32..5);
            let costs: Vec<Vec<f64>> = (0..k)
                .map(|_| {
                    let alpha = rng.gen_range(0.2f64..2.0);
                    (0..=cap)
                        // Non-convex jitter forces genuine branching.
                        .map(|n| alpha * f64::from(n) * 0.4 + rng.gen_range(0.0f64..0.8))
                        .collect()
                })
                .collect();
            let budget = rng.gen_range(1u32..k as u32 * cap);
            check_against_budget_dp(&costs, budget as usize, &format!("case {case}"));
        }
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
