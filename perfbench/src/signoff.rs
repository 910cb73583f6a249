//! `signoff_large`: one-shot signoff of a die larger than T1. One job
//! parses the design text, runs the streamed ILP-II flow on a two-lane
//! pool, DRC-checks the fill and writes GDS. Closed loop, back to back.

use crate::report::{median, peak_rss_mb, Report, Samples};
use crate::stages::build_stages;
use crate::trace::{ms_since, Ilp2Counted, Tracer};
use crate::{Opts, RunClock};
use pilfill_core::flow::{run_flow_streamed, FlowConfig, FlowContext, FlowError, FlowOutcome};
use pilfill_core::methods::{FillMethod, IlpTwo, NormalFill};
use pilfill_core::{check_fill, WorkerPool};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::Design;
use pilfill_stream::write_gds;
use std::time::Instant;

/// Lanes of the signoff pool: the two cores of the reference host. Fixed,
/// not detected, so that runs on any host do the same work.
pub const LANES: usize = 2;

/// T1 with twice the die side, twice the buses and four times the tree
/// nets, local nets and macros. The design is fixed: a different synthesis
/// seed changes the fill work by up to a factor of 1.7.
pub fn design_config(tiny: bool) -> SynthConfig {
    let mut c = if tiny {
        SynthConfig::small_test(0)
    } else {
        let t1 = SynthConfig::t1();
        SynthConfig {
            die_size: 2 * t1.die_size,
            num_buses: 2 * t1.num_buses,
            num_tree_nets: 4 * t1.num_tree_nets,
            num_local_nets: 4 * t1.num_local_nets,
            num_macros: 4 * t1.num_macros,
            ..t1
        }
    };
    c.name = "SIGNOFF".into();
    c
}

/// W = 32k, r = 2 (256 tiles); the seed drives Normal fill, the baseline
/// of `delay_ratio`.
fn flow_config(seed: u64, tiny: bool) -> Result<FlowConfig, FlowError> {
    let mut config = if tiny {
        FlowConfig::new(8_000, 2)?
    } else {
        FlowConfig::new(32_000, 2)?
    };
    config.seed = seed;
    Ok(config)
}

/// What a job produced, compared bit for bit across jobs.
#[derive(Debug, Clone, PartialEq)]
struct JobOut {
    total_delay: u64,
    features: usize,
    checked: usize,
    violations: usize,
    gds_bytes: usize,
    density_var: f64,
}

fn job_out(outcome: &FlowOutcome, checked: usize, violations: usize, gds: &[u8]) -> JobOut {
    JobOut {
        total_delay: outcome.impact.total_delay.to_bits(),
        features: outcome.features.len(),
        checked,
        violations,
        gds_bytes: gds.len(),
        density_var: outcome.density_after.variation,
    }
}

fn job(text: &str, config: &FlowConfig, pool: &WorkerPool) -> Result<JobOut, FlowError> {
    let design = Design::from_text(text)?;
    let (_ctx, outcome) = run_flow_streamed(&design, config, &IlpTwo, pool)?;
    let drc = check_fill(&design, config.layer, &outcome.features);
    let gds = write_gds(&design, &outcome.features);
    Ok(job_out(&outcome, drc.checked, drc.violations.len(), &gds))
}

/// The same job with a span around each public call, then (outside the
/// job's time) the build replayed stage by stage and the whole flow run
/// serially on one lane for the speed-up. Returns the job's output, its
/// time, and whether the serial run reproduced it.
fn job_traced(
    text: &str,
    config: &FlowConfig,
    pool: &WorkerPool,
    tr: &mut Tracer,
    ilp2: &Ilp2Counted,
) -> Result<(JobOut, f64, bool), FlowError> {
    let t_job = Instant::now();
    let design = tr.span("layout.parse_ms", || Design::from_text(text))?;
    let (ctx, outcome) = tr.span("exec.streamed_ms", || {
        run_flow_streamed(&design, config, &IlpTwo, pool)
    })?;
    let drc = tr.span("core.verify_ms", || {
        check_fill(&design, config.layer, &outcome.features)
    });
    let gds = tr.span("stream.gds_write_ms", || {
        write_gds(&design, &outcome.features)
    });
    drop(ctx);
    let job_ms = ms_since(t_job);
    tr.add("bench.job_ms", job_ms);

    let keepouts = design.segments_on_layer(config.layer).count()
        + design.obstructions_on_layer(config.layer).count();
    tr.add("core.features", outcome.features.len() as f64);
    tr.add(
        "core.verify_pairs",
        (outcome.features.len() * keepouts) as f64,
    );
    tr.add("stream.gds_bytes", gds.len() as f64);

    build_stages(&design, config, tr)?;
    let t_serial = Instant::now();
    let serial_ctx = tr.span("core.build_ms", || FlowContext::build(&design, config))?;
    let n = serial_ctx.problems().len();
    tr.add("core.tiles", n as f64);
    let mut per_tile = Vec::with_capacity(n);
    for i in 0..n {
        let (counts, elapsed) = tr
            .span("methods.ilp2_ms", || serial_ctx.solve_tile(config, ilp2, i))
            .map_err(FlowError::Method)?;
        per_tile.push((i, counts, elapsed));
    }
    let serial = tr.span("core.evaluate_ms", || {
        serial_ctx.finish_run(ilp2.name(), per_tile)
    })?;
    let serial_ms = ms_since(t_serial);
    ilp2.drain_into(tr);
    tr.add("exec.serial_ms", serial_ms);
    // Speed-up of the streamed pool over the same flow on one lane.
    tr.add("exec.speedup", serial_ms / tr.current("exec.streamed_ms"));
    tr.end_job();

    let out = job_out(&outcome, drc.checked, drc.violations.len(), &gds);
    let serial_same = job_out(&serial, out.checked, out.violations, &gds) == out;
    Ok((out, job_ms, serial_same))
}

struct Inputs {
    text: String,
    pool: WorkerPool,
}

fn setup(opts: &Opts, config: &FlowConfig, tr: &mut Tracer) -> Result<Inputs, FlowError> {
    let design = tr.span("layout.synth_ms", || synthesize(&design_config(opts.tiny)));
    let text = design.to_text();
    let pool = WorkerPool::new(LANES);
    job(&text, config, &pool)?;
    Ok(Inputs { text, pool })
}

fn check(out: &JobOut, first: &mut Option<JobOut>, report: &mut Report) {
    report.attempted += 1;
    if out.violations > 0 {
        report.fail(format!("{} DRC violations", out.violations));
    } else if out.checked != out.features {
        report.fail(format!(
            "checked {} of {} features",
            out.checked, out.features
        ));
    } else if first.as_ref().is_some_and(|f| f != out) {
        report.fail("job result differs from the first job".to_string());
    } else if first.is_none() {
        *first = Some(out.clone());
    }
}

pub fn run(opts: &Opts) -> Result<Report, FlowError> {
    let config = flow_config(opts.seed, opts.tiny)?;
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let (untraced_budget, traced_budget) = opts.phases();
    let mut clock = RunClock::new(untraced_budget);
    let mut inputs = clock.setup(|| setup(opts, &config, &mut tr))?;
    tr.end_job();

    let mut first = None;
    let mut job_ms = Samples::default();
    while clock.running() || job_ms.is_empty() {
        if clock.setup_due() {
            inputs = clock.setup(|| setup(opts, &config, &mut tr))?;
            tr.end_job();
        }
        let t0 = Instant::now();
        let out = job(&inputs.text, &config, &inputs.pool)?;
        job_ms.push(ms_since(t0));
        check(&out, &mut first, &mut report);
    }
    let timed_s = clock.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    while clock.setup_due() {
        inputs = clock.setup(|| setup(opts, &config, &mut tr))?;
        tr.end_job();
    }

    let mut traced_ms = Samples::default();
    let ilp2 = Ilp2Counted::default();
    if let Some(budget) = traced_budget {
        let t_traced = Instant::now();
        while t_traced.elapsed() < budget || traced_ms.is_empty() {
            let (out, ms, serial_same) =
                job_traced(&inputs.text, &config, &inputs.pool, &mut tr, &ilp2)?;
            traced_ms.push(ms);
            check(&out, &mut first, &mut report);
            if !serial_same {
                report.fail("one-lane run differs from the streamed run".to_string());
            }
        }
    }

    // Result quality: ILP-II against Normal fill on the same design.
    let first = first.expect("one job ran");
    let design = Design::from_text(&inputs.text)?;
    let ctx = FlowContext::build(&design, &config)?;
    let normal = ctx.run(&config, &NormalFill)?;
    let ilp2_delay = f64::from_bits(first.total_delay);
    report.note(format!(
        "signoff_large: {} nets, {} tiles, {} features; job ms {}",
        design.nets.len(),
        ctx.problems().len(),
        first.features,
        job_ms.summary()
    ));

    if opts.trace {
        crate::report_layers(&mut report, &tr, &job_ms, &traced_ms, clock.setups_s());
        crate::report_job_remainder(
            &mut report,
            &tr,
            &[
                "layout.parse_ms",
                "exec.streamed_ms",
                "core.verify_ms",
                "stream.gds_write_ms",
            ],
        );
    } else {
        let n = job_ms.len();
        let setups = clock.setups_s();
        report.set("setup_s", median(setups), "s", setups.len());
        report.set("p50_ms", job_ms.pct(50.0), "ms", n);
        report.set("p90_ms", job_ms.pct(90.0), "ms", n);
        report.set("jobs_per_s", n as f64 / timed_s, "1/s", n);
        report.set("peak_rss_mb", peak_rss, "MiB", 1);
        report.set(
            "delay_ratio",
            ilp2_delay / normal.impact.total_delay,
            "ratio",
            1,
        );
        report.set("density_var", first.density_var, "ratio", 1);
    }
    Ok(report)
}
