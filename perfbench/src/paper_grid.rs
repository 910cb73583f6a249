//! `paper_grid`: the paper's own experiment, Tables 1 and 2 — T1 and T2,
//! W ∈ {32k, 20k}, r ∈ {2, 4, 8} — where each row builds a `FlowContext`
//! and runs Normal, ILP-I, ILP-II and Greedy on one lane. One job is one
//! table (12 rows); jobs alternate Table 1 (unweighted) and Table 2
//! (weighted) back to back, so two jobs make one full pass.
//!
//! A job is a table rather than the full pass so that a run holds over a
//! hundred jobs for the p90; the two tables cost the same within a few
//! percent, so job times stay one population.

use crate::report::{median, peak_rss_mb, Report, Samples};
use crate::stages::build_stages;
use crate::trace::{ms_since, Ilp2Counted, Tracer};
use crate::{Opts, RunClock};
use pilfill_core::flow::{FlowConfig, FlowContext, FlowError, FlowOutcome};
use pilfill_core::methods::{FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::Design;
use std::time::Instant;

/// The paper's method order: Normal, ILP-I, ILP-II, Greedy.
const METHODS: [&dyn FillMethod; 4] = [&NormalFill, &IlpOne, &IlpTwo, &GreedyFill];
const METHOD_KEYS: [&str; 4] = [
    "methods.normal_ms",
    "methods.ilp1_ms",
    "methods.ilp2_ms",
    "methods.greedy_ms",
];

/// One row of the grid.
struct Row {
    design: usize,
    config: FlowConfig,
}

/// What one row produced: the optimized-objective delay of each method
/// and ILP-II's post-fill density variation.
#[derive(Debug, Clone, PartialEq)]
struct RowResult {
    delay: [f64; 4],
    ilp2_density_var: f64,
    ilp2_features: u64,
}

struct Inputs {
    designs: Vec<Design>,
    /// Table 1 rows, then Table 2 rows.
    tables: [Vec<Row>; 2],
}

fn synth_configs(opts: &Opts) -> Vec<SynthConfig> {
    if opts.tiny {
        vec![SynthConfig::small_test(1), SynthConfig::small_test(2)]
    } else {
        vec![SynthConfig::t1(), SynthConfig::t2()]
    }
}

fn table(opts: &Opts, weighted: bool) -> Result<Vec<Row>, FlowError> {
    let windows: &[(i64, &[usize])] = if opts.tiny {
        &[(8_000, &[2, 4])]
    } else {
        &[(32_000, &[2, 4, 8]), (20_000, &[2, 4, 8])]
    };
    let mut rows = Vec::new();
    for design in 0..2 {
        for &(window, rs) in windows {
            for &r in rs {
                let mut config = FlowConfig::new(window, r)?;
                config.weighted = weighted;
                // The seed drives Normal fill's random placement.
                config.seed = opts.seed;
                rows.push(Row { design, config });
            }
        }
    }
    Ok(rows)
}

/// The optimized objective of a row: weighted delay on Table 2 rows.
fn objective(outcome: &FlowOutcome, weighted: bool) -> f64 {
    if weighted {
        outcome.impact.weighted_delay
    } else {
        outcome.impact.total_delay
    }
}

fn finish_row(outcomes: &[FlowOutcome], weighted: bool) -> RowResult {
    let delay = std::array::from_fn(|i| objective(&outcomes[i], weighted));
    RowResult {
        delay,
        ilp2_density_var: outcomes[2].density_after.variation,
        ilp2_features: outcomes[2].placed_features,
    }
}

/// One row, untraced: build, then each method's `run` on one lane.
fn run_row(design: &Design, config: &FlowConfig) -> Result<RowResult, FlowError> {
    let ctx = FlowContext::build(design, config)?;
    let outcomes = METHODS
        .iter()
        .map(|m| ctx.run(config, *m))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(finish_row(&outcomes, config.weighted))
}

/// One row, traced: the same work with a span around the build, around
/// each tile solve and around each evaluation.
fn run_row_traced(
    design: &Design,
    config: &FlowConfig,
    tr: &mut Tracer,
    ilp2: &Ilp2Counted,
) -> Result<RowResult, FlowError> {
    let ctx = tr.span("core.build_ms", || FlowContext::build(design, config))?;
    let n = ctx.problems().len();
    tr.add("core.tiles", n as f64);
    let mut outcomes = Vec::with_capacity(4);
    for (k, method) in METHODS.iter().enumerate() {
        let method: &dyn FillMethod = if k == 2 { ilp2 } else { *method };
        let mut per_tile = Vec::with_capacity(n);
        for i in 0..n {
            let (counts, elapsed) = tr
                .span(METHOD_KEYS[k], || ctx.solve_tile(config, method, i))
                .map_err(FlowError::Method)?;
            per_tile.push((i, counts, elapsed));
        }
        outcomes.push(tr.span("core.evaluate_ms", || {
            ctx.finish_run(method.name(), per_tile)
        })?);
    }
    tr.add("core.features", outcomes[2].placed_features as f64);
    Ok(finish_row(&outcomes, config.weighted))
}

fn setup(opts: &Opts, tr: &mut Tracer) -> Result<Inputs, FlowError> {
    let designs: Vec<Design> = tr.span("layout.synth_ms", || {
        synth_configs(opts).iter().map(synthesize).collect()
    });
    let tables = [table(opts, false)?, table(opts, true)?];
    // Warm-up: the first row of each design (rows are design-major).
    for row in tables[0].iter().step_by(tables[0].len() / 2) {
        run_row(&designs[row.design], &row.config)?;
    }
    Ok(Inputs { designs, tables })
}

/// Checks a table: ILP-II may not add more delay than Normal on any row,
/// and every run of the table reproduces its first bit for bit.
fn check_table(results: &[RowResult], first: &mut Option<Vec<RowResult>>, report: &mut Report) {
    for (i, r) in results.iter().enumerate() {
        report.attempted += 1;
        if r.delay[2] > r.delay[0] {
            report.fail(format!(
                "row {i}: ILP-II delay {:e} exceeds Normal {:e}",
                r.delay[2], r.delay[0]
            ));
        } else if first.as_ref().is_some_and(|f| f[i] != *r) {
            report.fail(format!("row {i}: result differs from the first run"));
        }
    }
    if first.is_none() {
        *first = Some(results.to_vec());
    }
}

pub fn run(opts: &Opts) -> Result<Report, FlowError> {
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let (untraced_budget, traced_budget) = opts.phases();
    let mut clock = RunClock::new(untraced_budget);
    let mut inputs = clock.setup(|| setup(opts, &mut tr))?;
    tr.end_job();

    let mut first: [Option<Vec<RowResult>>; 2] = [None, None];
    let mut job_ms = Samples::default();
    let mut row_ms = Samples::default();
    let mut jobs = 0usize;
    // Whole passes only, so that both tables weigh the same.
    while clock.running() || jobs % 2 == 1 {
        if clock.setup_due() {
            inputs = clock.setup(|| setup(opts, &mut tr))?;
            tr.end_job();
        }
        let t = jobs % 2;
        let t_job = Instant::now();
        let mut results = Vec::with_capacity(inputs.tables[t].len());
        for row in &inputs.tables[t] {
            let t_row = Instant::now();
            results.push(run_row(&inputs.designs[row.design], &row.config)?);
            row_ms.push(ms_since(t_row));
        }
        job_ms.push(ms_since(t_job));
        check_table(&results, &mut first[t], &mut report);
        jobs += 1;
    }
    let timed_s = clock.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    while clock.setup_due() {
        inputs = clock.setup(|| setup(opts, &mut tr))?;
        tr.end_job();
    }

    let mut traced_ms = Samples::default();
    if let Some(budget) = traced_budget {
        let ilp2 = Ilp2Counted::default();
        let t_traced = Instant::now();
        let mut traced = 0usize;
        while t_traced.elapsed() < budget || traced % 2 == 1 {
            let t = traced % 2;
            let t_job = Instant::now();
            let mut results = Vec::with_capacity(inputs.tables[t].len());
            for row in &inputs.tables[t] {
                let design = &inputs.designs[row.design];
                results.push(run_row_traced(design, &row.config, &mut tr, &ilp2)?);
            }
            let ms = ms_since(t_job);
            traced_ms.push(ms);
            tr.add("bench.job_ms", ms);
            ilp2.drain_into(&mut tr);
            // Stage replays run after the timed job.
            for row in &inputs.tables[t] {
                build_stages(&inputs.designs[row.design], &row.config, &mut tr)?;
            }
            tr.end_job();
            check_table(&results, &mut first[t], &mut report);
            traced += 1;
        }
    }

    let rows: Vec<RowResult> = first.into_iter().flatten().flatten().collect();
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| (r.delay[2] / r.delay[0]).ln())
        .collect();
    let geomean = (ratios.iter().sum::<f64>() / ratios.len() as f64).exp();
    let density_var = rows.iter().map(|r| r.ilp2_density_var).sum::<f64>() / rows.len() as f64;
    report.note(format!(
        "paper_grid: {jobs} tables untraced; table ms {}; row ms {}",
        job_ms.summary(),
        row_ms.summary()
    ));

    if opts.trace {
        crate::report_layers(&mut report, &tr, &job_ms, &traced_ms, clock.setups_s());
        let top = ["core.build_ms", "core.evaluate_ms"]
            .into_iter()
            .chain(METHOD_KEYS)
            .collect::<Vec<_>>();
        crate::report_job_remainder(&mut report, &tr, &top);
    } else {
        let setups = clock.setups_s();
        report.set("setup_s", median(setups), "s", setups.len());
        report.set("p50_ms", job_ms.pct(50.0), "ms", jobs);
        report.set("p90_ms", job_ms.pct(90.0), "ms", jobs);
        report.set("jobs_per_s", jobs as f64 / timed_s, "1/s", jobs);
        report.set("peak_rss_mb", peak_rss, "MiB", 1);
        report.set("delay_ratio", geomean, "ratio", rows.len());
        report.set("density_var", density_var, "ratio", rows.len());
    }
    Ok(report)
}
