//! Tracing from outside the program: per-job spans around calls into the
//! workspace crates' public functions, plus counters recorded at the same
//! call sites.
//!
//! A span adds its duration to the running job's total for its name; at
//! the end of a job every total becomes one sample. Per-layer metrics are
//! the medians of those per-job samples.

use crate::report::median;
use pilfill_core::methods::{FillMethod, IlpTwo, MethodError};
use pilfill_core::TileProblem;
use pilfill_prng::rngs::StdRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-job span and counter totals.
#[derive(Debug, Default)]
pub struct Tracer {
    job: BTreeMap<&'static str, f64>,
    jobs: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// Runs `f` inside a span named `name` (a metric name in ms).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, ms_since(t0));
        out
    }

    /// Adds `v` to the running job's total for `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.job.entry(name).or_insert(0.0) += v;
    }

    /// The running job's total for `name` so far.
    pub fn current(&self, name: &str) -> f64 {
        self.job.get(name).copied().unwrap_or(0.0)
    }

    /// Closes the running job: each total becomes one sample.
    pub fn end_job(&mut self) {
        for (name, v) in std::mem::take(&mut self.job) {
            self.jobs.entry(name).or_default().push(v);
        }
    }

    /// Median per job of `name`, 0 when no job recorded it.
    pub fn p50(&self, name: &str) -> f64 {
        self.jobs.get(name).map_or(0.0, |v| median(v))
    }

    /// Jobs that recorded `name`.
    pub fn count(&self, name: &str) -> usize {
        self.jobs.get(name).map_or(0, Vec::len)
    }
}

/// ILP-II through [`IlpTwo::place_with_stats`], accumulating the solver
/// counters of every tile it places. Its name and placements are those of
/// [`IlpTwo`], so outcomes are unchanged.
#[derive(Debug, Default)]
pub struct Ilp2Counted {
    tiles: Cell<u64>,
    root_only: Cell<u64>,
    nodes: Cell<u64>,
    pivots: Cell<u64>,
    refactors: Cell<u64>,
    cuts: Cell<u64>,
}

impl FillMethod for Ilp2Counted {
    fn name(&self) -> &'static str {
        IlpTwo.name()
    }

    fn place(
        &self,
        problem: &TileProblem,
        budget: u32,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, MethodError> {
        let (counts, stats) = IlpTwo.place_with_stats(problem, budget, weighted, rng)?;
        let bump = |c: &Cell<u64>, v: usize| c.set(c.get() + v as u64);
        bump(&self.tiles, 1);
        bump(&self.root_only, usize::from(stats.nodes <= 1));
        bump(&self.nodes, stats.nodes);
        bump(&self.pivots, stats.pivots);
        bump(&self.refactors, stats.refactorizations);
        bump(&self.cuts, stats.cuts);
        Ok(counts)
    }
}

impl Ilp2Counted {
    /// Moves the counters into the running job of `tracer`.
    pub fn drain_into(&self, tracer: &mut Tracer) {
        let take = |c: &Cell<u64>| c.replace(0) as f64;
        let tiles = take(&self.tiles);
        let root_only = take(&self.root_only);
        tracer.add("solver.tiles", tiles);
        tracer.add("solver.root_only", root_only);
        tracer.add("solver.nodes", take(&self.nodes));
        tracer.add("solver.pivots", take(&self.pivots));
        tracer.add("solver.refactors", take(&self.refactors));
        tracer.add("solver.cuts", take(&self.cuts));
    }
}
