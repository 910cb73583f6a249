//! LP status and solution types shared by the sparse engine
//! ([`crate::sparse`]) and the dense tableau oracle that tests check it
//! against (`dense_reference`, compiled only under `cfg(test)`).

#[cfg(test)]
pub(crate) mod dense_reference;

/// Feasibility/boundedness status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (for minimization).
    Unbounded,
    /// The iteration limit was exceeded (numerical trouble).
    IterationLimit,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
#[must_use = "an LP solve is expensive; dropping the solution discards it"]
pub struct LpSolution {
    /// Solve status; values/objective are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Values of the structural variables. The sparse engine reports them
    /// in model space; the dense oracle reports them relative to each
    /// variable's lower bound.
    pub values: Vec<f64>,
    /// Objective value (minimization sense).
    pub objective: f64,
    /// Simplex pivots performed.
    pub iterations: usize,
}
