//! The Table-1/Table-2 experiment grid runner.

use pilfill_core::flow::{FlowConfig, FlowContext, FlowError, FlowOutcome};
use pilfill_core::methods::{FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_core::WorkerPool;
use pilfill_geom::Coord;
use pilfill_layout::Design;
use std::time::Duration;

/// One method's result within a row.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name.
    pub method: &'static str,
    /// Unweighted total delay increase, seconds.
    pub total_delay: f64,
    /// Weighted total delay increase, seconds.
    pub weighted_delay: f64,
    /// Aggregate per-tile solve CPU time, the median of five runs.
    pub cpu: Duration,
    /// Features placed / shortfall.
    pub placed: u64,
    /// Budgeted features that found no room.
    pub shortfall: u64,
    /// Post-fill minimum window density.
    pub min_density_after: f64,
}

/// One `T/W/r` row of the experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Testcase name.
    pub testcase: String,
    /// Window label (the paper's "32"/"20").
    pub window_label: u32,
    /// Dissection parameter.
    pub r: usize,
    /// Total budgeted features.
    pub budget: u64,
    /// Per-method results: Normal, ILP-I, ILP-II, Greedy.
    pub methods: Vec<MethodResult>,
}

/// Experiment grid configuration.
#[derive(Debug, Clone)]
pub struct Grid {
    /// `(label, window dbu, r)` combinations.
    pub cells: Vec<(u32, Coord, usize)>,
    /// Optimize the weighted objective (Table 2) instead of unweighted
    /// (Table 1).
    pub weighted: bool,
    /// Worker threads for per-tile solving.
    pub threads: usize,
}

impl Grid {
    /// The full Tables-1/2 grid.
    pub fn paper(weighted: bool) -> Self {
        Self {
            cells: crate::testcases::windows_and_r(),
            weighted,
            threads: default_threads(),
        }
    }

    /// A reduced grid for smoke tests: one cell.
    pub fn smoke(weighted: bool) -> Self {
        Self {
            cells: vec![(32, 32_000, 2)],
            weighted,
            threads: default_threads(),
        }
    }
}

/// Number of worker threads: all but one hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(4)
}

/// The four paper methods in table order.
pub fn paper_methods() -> Vec<&'static (dyn FillMethod + Sync)> {
    vec![&NormalFill, &IlpOne, &IlpTwo, &GreedyFill]
}

/// Runs of each method per grid cell; the reported CPU time is their
/// median, so one noisy run does not become the table entry.
const CPU_RUNS: usize = 5;

/// The delay totals of `outcome` as bits, which every rerun must repeat.
fn impact_bits(outcome: &FlowOutcome) -> [u64; 3] {
    let i = &outcome.impact;
    [i.total_delay, i.weighted_delay, i.total_cap].map(f64::to_bits)
}

/// Runs the grid for one testcase, calling `progress` after each method.
/// Each method runs five times on the cell's context.
///
/// # Errors
///
/// Propagates the first [`FlowError`].
///
/// # Panics
///
/// If a rerun places a different number of features or yields different
/// delay totals than the first run (the flow is deterministic).
pub fn run_grid(
    design: &Design,
    grid: &Grid,
    progress: &mut dyn FnMut(&str),
) -> Result<Vec<ExperimentRow>, FlowError> {
    let pool = WorkerPool::new(grid.threads);
    let mut rows = Vec::new();
    for &(label, window, r) in &grid.cells {
        let mut config = FlowConfig::new(window, r)?;
        config.weighted = grid.weighted;
        progress(&format!(
            "{}/{}/{}: building context...",
            design.name, label, r
        ));
        let ctx = FlowContext::build(design, &config)?;
        let mut methods = Vec::new();
        for method in paper_methods() {
            let outcome = ctx.run_pool(&config, method, &pool)?;
            let mut times = vec![outcome.solve_time];
            for _ in 1..CPU_RUNS {
                let rerun = ctx.run_pool(&config, method, &pool)?;
                assert!(
                    rerun.placed_features == outcome.placed_features
                        && impact_bits(&rerun) == impact_bits(&outcome),
                    "{}/{}/{} {}: a rerun differs from the first run",
                    design.name,
                    label,
                    r,
                    outcome.method
                );
                times.push(rerun.solve_time);
            }
            times.sort_unstable();
            let cpu = times[CPU_RUNS / 2];
            progress(&format!(
                "{}/{}/{} {:>7}: tau = {:.3e} s, cpu = {:.2?}",
                design.name, label, r, outcome.method, outcome.impact.total_delay, cpu
            ));
            methods.push(MethodResult {
                method: outcome.method,
                total_delay: outcome.impact.total_delay,
                weighted_delay: outcome.impact.weighted_delay,
                cpu,
                placed: outcome.placed_features,
                shortfall: outcome.shortfall,
                min_density_after: outcome.density_after.min_window_density,
            });
        }
        rows.push(ExperimentRow {
            testcase: design.name.clone(),
            window_label: label,
            r,
            budget: ctx.budget_total(),
            methods,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_layout::synth::{synthesize, SynthConfig};

    #[test]
    fn smoke_grid_runs_all_methods() {
        let design = synthesize(&SynthConfig::small_test(2));
        let grid = Grid {
            cells: vec![(8, 8_000, 2)],
            weighted: false,
            threads: 2,
        };
        let rows = run_grid(&design, &grid, &mut |_| {}).expect("grid");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].methods.len(), 4);
        let names: Vec<_> = rows[0].methods.iter().map(|m| m.method).collect();
        assert_eq!(names, vec!["Normal", "ILP-I", "ILP-II", "Greedy"]);
        // Density quality identical across methods (same budget placed).
        let placed: Vec<_> = rows[0].methods.iter().map(|m| m.placed).collect();
        assert!(placed.windows(2).all(|w| w[0] == w[1]), "{placed:?}");
    }
}
