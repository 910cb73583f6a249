//! End-to-end and per-layer benchmark of the PIL-Fill workspace.
//!
//! Three workloads, each run in its own process through the public API of
//! the workspace crates:
//!
//! - [`paper_grid`]: the Tables 1+2 grid on one lane (closed loop);
//! - [`signoff`]: parse → streamed ILP-II fill → DRC → GDS of a die larger
//!   than T1 on a fixed two-lane pool (closed loop);
//! - [`serve_eco`]: an in-process fill daemon driven as an ECO engine by an
//!   open-loop generator (warm repeats, one-net edits, cold configs).
//!
//! Untraced runs report the end-to-end metrics. Traced runs spend half the
//! time untraced and half traced, and report the per-layer metrics from
//! spans around public calls (see [`trace`]) plus the tracing overhead.

pub mod paper_grid;
pub mod report;
pub mod serve_eco;
pub mod signoff;
pub mod stages;
pub mod trace;

use report::{median, Report, Samples};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_grid", "signoff_large", "serve_eco"];

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "p50_ms",
    "p90_ms",
    "jobs_per_s",
    "peak_rss_mb",
    "delay_ratio",
    "density_var",
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise (one not in [`layers_of`]) reads 0.
pub const LAYER_METRICS: [(&str, &str); 53] = [
    ("layout.synth_ms", "ms"),
    ("layout.parse_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.scan_ms", "ms"),
    ("core.capacity_ms", "ms"),
    ("core.tiles_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.build_unattributed_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.rebuild_ms", "ms"),
    ("core.tiles", "count"),
    ("core.features", "count"),
    ("core.rebuild_dirty_tiles", "count"),
    ("core.verify_pairs", "count"),
    ("density.map_ms", "ms"),
    ("density.budget_ms", "ms"),
    ("methods.normal_ms", "ms"),
    ("methods.greedy_ms", "ms"),
    ("methods.ilp1_ms", "ms"),
    ("methods.ilp2_ms", "ms"),
    ("solver.nodes", "count"),
    ("solver.pivots", "count"),
    ("solver.refactors", "count"),
    ("solver.cuts", "count"),
    ("solver.root_only_ratio", "ratio"),
    ("exec.streamed_ms", "ms"),
    ("exec.serial_ms", "ms"),
    ("exec.speedup", "x"),
    ("stream.gds_write_ms", "ms"),
    ("stream.gds_bytes", "bytes"),
    ("serve.server_ms", "ms"),
    ("serve.server_warm_ms", "ms"),
    ("serve.server_edit_ms", "ms"),
    ("serve.server_cold_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.edit_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.warm_ratio", "ratio"),
    ("serve.rebuild_ratio", "ratio"),
    ("serve.cold_ratio", "ratio"),
    ("serve.busy_ratio", "ratio"),
    ("serve.hash_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.reply_bytes", "bytes"),
    ("bench.late_ms", "ms"),
    ("bench.setup_s", "s"),
    ("bench.untraced_p50_ms", "ms"),
    ("bench.traced_p50_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.job_ms", "ms"),
    ("bench.job_unattributed_ms", "ms"),
];

/// Layer metrics every workload records.
const COMMON_LAYERS: [&str; 5] = [
    "layout.synth_ms",
    "bench.setup_s",
    "bench.untraced_p50_ms",
    "bench.traced_p50_ms",
    "bench.trace_overhead_ms",
];

/// Layer metrics of a `FlowContext` build and an ILP-II solve, which every
/// workload replays or runs.
const BUILD_LAYERS: [&str; 17] = [
    "core.extract_ms",
    "core.scan_ms",
    "core.capacity_ms",
    "density.map_ms",
    "density.budget_ms",
    "core.tiles_ms",
    "core.build_ms",
    "core.build_unattributed_ms",
    "core.tiles",
    "core.evaluate_ms",
    "methods.ilp2_ms",
    "solver.nodes",
    "solver.pivots",
    "solver.refactors",
    "solver.cuts",
    "solver.root_only_ratio",
    "bench.job_unattributed_ms",
];

/// Layer metrics that may read 0 or less on a healthy run: differences of
/// medians, and counts that a better solver or a healthy daemon drives to 0.
const MAY_BE_ZERO: [&str; 7] = [
    "core.build_unattributed_ms",
    "bench.job_unattributed_ms",
    "bench.trace_overhead_ms",
    "solver.nodes",
    "solver.cuts",
    "solver.root_only_ratio",
    "serve.busy_ratio",
];

/// The layer metrics a traced run of `workload` must record. `serve_eco`
/// has no job-level spans, so its requests have no unattributed remainder.
pub fn layers_of(workload: &str) -> Vec<&'static str> {
    let own: &[&str] = match workload {
        "paper_grid" => &[
            "methods.normal_ms",
            "methods.greedy_ms",
            "methods.ilp1_ms",
            "core.features",
            "bench.job_ms",
        ],
        "signoff_large" => &[
            "layout.parse_ms",
            "exec.streamed_ms",
            "exec.serial_ms",
            "exec.speedup",
            "core.verify_ms",
            "core.verify_pairs",
            "core.features",
            "stream.gds_write_ms",
            "stream.gds_bytes",
            "bench.job_ms",
        ],
        "serve_eco" => &[
            "core.rebuild_ms",
            "core.rebuild_dirty_tiles",
            "serve.server_ms",
            "serve.server_warm_ms",
            "serve.server_edit_ms",
            "serve.server_cold_ms",
            "serve.wait_ms",
            "serve.warm_p50_ms",
            "serve.edit_p50_ms",
            "serve.cold_p50_ms",
            "serve.warm_ratio",
            "serve.rebuild_ratio",
            "serve.cold_ratio",
            "serve.busy_ratio",
            "serve.hash_ms",
            "serve.decode_ms",
            "serve.reply_bytes",
            "bench.late_ms",
        ],
        _ => &[],
    };
    let build = BUILD_LAYERS
        .iter()
        .filter(|&&m| workload != "serve_eco" || m != "bench.job_unattributed_ms");
    COMMON_LAYERS
        .iter()
        .chain(build)
        .chain(own)
        .copied()
        .collect()
}

/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the smoke test.
    pub tiny: bool,
}

impl Opts {
    /// Time of the untraced phase and, on traced runs, of the traced
    /// phase (each half of the run).
    pub fn phases(&self) -> (Duration, Option<Duration>) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total / 2, Some(total / 2))
        } else {
            (total, None)
        }
    }
}

/// The clock of a run's untraced phase, with the run's fresh set-ups
/// spread evenly over it so that one slow spell of the host cannot catch
/// them all: set-up `k` is due once `k / SETUP_REPS` of the phase has been
/// spent on jobs. Time spent in set-ups is not job time.
pub struct RunClock {
    phase: Duration,
    start: Instant,
    in_setup: Duration,
    /// Duration of each set-up so far, in seconds.
    setups_s: Vec<f64>,
}

impl RunClock {
    pub fn new(phase: Duration) -> Self {
        Self {
            phase,
            start: Instant::now(),
            in_setup: Duration::ZERO,
            setups_s: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Time spent on jobs since the start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.in_setup)
    }

    /// Whether the phase still has job time left.
    pub fn running(&self) -> bool {
        self.elapsed() < self.phase
    }

    /// Whether the next set-up is due. Once the phase is over, the set-ups
    /// it did not reach are all due.
    pub fn setup_due(&self) -> bool {
        let k = self.setups_s.len();
        k < SETUP_REPS && self.elapsed() >= self.phase.mul_f64(k as f64 / SETUP_REPS as f64)
    }

    /// Runs and times one set-up.
    pub fn setup<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        self.in_setup += took;
        self.setups_s.push(took.as_secs_f64());
        out
    }

    /// The set-up durations so far, in seconds.
    pub fn setups_s(&self) -> &[f64] {
        &self.setups_s
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// A message when the workload could not run at all (as opposed to an
/// operation failing, which the report counts), or when a traced run did
/// not record a layer metric of its workload.
pub fn run_workload(opts: &Opts) -> Result<Report, String> {
    let mut report = match opts.workload.as_str() {
        "paper_grid" => paper_grid::run(opts).map_err(|e| e.to_string())?,
        "signoff_large" => signoff::run(opts).map_err(|e| e.to_string())?,
        "serve_eco" => serve_eco::run(opts)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if opts.trace {
        for name in layers_of(&opts.workload) {
            let ok = report
                .metrics
                .get(name)
                .is_some_and(|m| m.samples > 0 && (m.value > 0.0 || MAY_BE_ZERO.contains(&name)));
            if !ok {
                return Err(format!("layer metric {name} was not recorded"));
            }
        }
        for (name, unit) in LAYER_METRICS {
            if !report.metrics.contains_key(name) {
                report.set(name, 0.0, unit, 0);
            }
        }
    }
    Ok(report)
}

/// Reports the metrics the tracer recorded, the build time not covered by
/// the replayed build stages (build p50 minus the sum of the stage p50s),
/// the set-up time and the tracing overhead (traced job p50 − untraced
/// job p50).
pub fn report_layers(
    report: &mut Report,
    tr: &Tracer,
    untraced_job_ms: &Samples,
    traced_job_ms: &Samples,
    setups_s: &[f64],
) {
    for (name, unit) in LAYER_METRICS {
        if tr.count(name) > 0 {
            report.set(name, tr.p50(name), unit, tr.count(name));
        }
    }
    let tiles = tr.p50("solver.tiles");
    if tiles > 0.0 {
        report.set(
            "solver.root_only_ratio",
            tr.p50("solver.root_only") / tiles,
            "ratio",
            tr.count("solver.tiles"),
        );
    }
    if tr.count("core.build_ms") > 0 {
        let stages: f64 = stages::BUILD_STAGES.iter().map(|s| tr.p50(s)).sum();
        report.set(
            "core.build_unattributed_ms",
            tr.p50("core.build_ms") - stages,
            "ms",
            tr.count("core.build_ms"),
        );
    }
    report.set("bench.setup_s", median(setups_s), "s", setups_s.len());
    let untraced = untraced_job_ms.pct(50.0);
    let traced = traced_job_ms.pct(50.0);
    report.set(
        "bench.untraced_p50_ms",
        untraced,
        "ms",
        untraced_job_ms.len(),
    );
    report.set("bench.traced_p50_ms", traced, "ms", traced_job_ms.len());
    report.set(
        "bench.trace_overhead_ms",
        traced - untraced,
        "ms",
        traced_job_ms.len(),
    );
}

/// Reports the traced job time not covered by the job's top-level spans
/// `top`: the job p50 minus the sum of their p50s, so that the stage times
/// plus this remainder add up to the job's traced p50.
pub fn report_job_remainder(report: &mut Report, tr: &Tracer, top: &[&str]) {
    let covered: f64 = top.iter().map(|s| tr.p50(s)).sum();
    report.set(
        "bench.job_unattributed_ms",
        tr.p50("bench.job_ms") - covered,
        "ms",
        tr.count("bench.job_ms"),
    );
}
