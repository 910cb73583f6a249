//! CLI subcommand implementations. Each command takes parsed [`Args`]
//! and a writer for its report output, so tests can drive them without
//! spawning processes.

use crate::args::{ArgError, Args};
use pilfill_core::flow::{FlowConfig, FlowOutcome};
use pilfill_core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_core::SlackColumnDef;
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_layout::stats::design_stats;
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::{Design, LayerId};
use pilfill_serve::protocol::{design_hash, DesignRef, EditOp, FillParams, Reply, METHOD_NAMES};
use pilfill_serve::{Client, ServeOptions, Server};
use pilfill_stream::write_gds;
use pilfill_viz::{DensityView, LayoutView, Theme};
use std::io::Write;
use std::time::Duration;

/// Any error a command can produce.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown enumeration value (method, preset, definition).
    UnknownChoice {
        /// What was being chosen.
        what: &'static str,
        /// The offending value.
        value: String,
        /// Valid choices.
        choices: &'static str,
    },
    /// File I/O.
    Io(std::io::Error),
    /// Anything from the PIL-Fill stack.
    Tool(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `pilfill help`)")
            }
            CliError::UnknownChoice {
                what,
                value,
                choices,
            } => write!(f, "unknown {what} `{value}` (choices: {choices})"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Tool(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

fn tool_err(e: impl std::fmt::Display) -> CliError {
    CliError::Tool(e.to_string())
}

/// Dispatches a parsed command. Returns the process exit code.
///
/// # Errors
///
/// Any [`CliError`]; the binary prints it and exits non-zero.
pub fn dispatch(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "help" => help(out).map_err(Into::into),
        "synth" => synth(args, out),
        "stats" => stats(args, out),
        "density" => density(args, out),
        "fill" => fill(args, out),
        "serve" => serve(args, out),
        "request" => request(args, out),
        "export" => export(args, out),
        "verify" => verify(args, out),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn help(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "pilfill — performance-impact limited area fill synthesis

USAGE: pilfill <command> [args]

COMMANDS:
  synth    --preset t1|t2|small [--seed N] --out design.pfl [--svg layout.svg]
           synthesize a testcase layout and write the text format
  stats    <design.pfl>
           print design statistics
  density  <design.pfl> [--window DBU] [--r N] [--svg heat.svg]
           fixed r-dissection window density analysis
  fill     <design.pfl> [--window DBU] [--r N] [--method normal|greedy|ilp1|ilp2|dp]
           [--def 1|2|3] [--max-density F] [--weighted]
           [--threads N] (0 = auto-detect available parallelism; default)
           [--gds out.gds] [--svg out.svg] [--csv report.csv]
           run timing-aware fill and report the delay impact
  serve    --listen <host:port|unix:PATH> [--threads N] [--quota N]
           [--max-inflight N] [--cache N] [--design-cache N]
           [--max-conns N]
           run the persistent fill service until a shutdown request
  request  <design.pfl> --connect <host:port|unix:PATH>
           [--window DBU] [--r N] [--method normal|greedy|ilp1|ilp2|dp]
           [--def 1|2|3] [--seed N] [--max-density F] [--weighted] [--lp-budget]
           [--edit dup-sink:NET|widen:NET,SEG,DELTA[+more]] [--by-hash]
           [--repeat K] [--dump blob.bin] [--timeout-ms N] [--shutdown]
           send a fill request to a running service; with --shutdown and
           no design, just stop the service
  export   <design.pfl> --gds out.gds
           export drawn metal to GDSII (without fill)
  verify   <design.pfl> --gds filled.gds
           DRC-check the fill in a GDSII stream against the design rules
  help     show this text"
    )
}

fn load_design(path: &str) -> Result<Design, CliError> {
    let text = std::fs::read_to_string(path)?;
    Design::from_text(&text).map_err(tool_err)
}

fn synth(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let preset = args.require("preset")?;
    let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
    let mut cfg = match preset {
        "t1" => SynthConfig::t1(),
        "t2" => SynthConfig::t2(),
        "small" => SynthConfig::small_test(seed),
        other => {
            return Err(CliError::UnknownChoice {
                what: "preset",
                value: other.to_string(),
                choices: "t1, t2, small",
            })
        }
    };
    if args.get("seed").is_some() {
        cfg.seed = seed;
    }
    let design = synthesize(&cfg);
    let path = args.require("out")?;
    std::fs::write(path, design.to_text())?;
    writeln!(
        out,
        "wrote {path}: {} nets on a {}x{} die",
        design.nets.len(),
        design.die.width(),
        design.die.height()
    )?;
    if let Some(svg_path) = args.get("svg") {
        std::fs::write(svg_path, LayoutView::new(&design).render(&Theme::default()))?;
        writeln!(out, "wrote {svg_path}")?;
    }
    Ok(())
}

fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let design = load_design(args.positional(0, "design.pfl")?)?;
    let s = design_stats(&design);
    writeln!(out, "design      {}", design.name)?;
    writeln!(
        out,
        "die         {} x {} dbu",
        design.die.width(),
        design.die.height()
    )?;
    writeln!(out, "nets        {}", s.nets)?;
    writeln!(out, "segments    {}", s.segments)?;
    writeln!(
        out,
        "sinks       {} (mean {:.2}/net)",
        s.sinks, s.mean_sinks
    )?;
    writeln!(out, "wirelength  {} dbu", s.wirelength)?;
    for (name, density) in &s.layer_density {
        writeln!(out, "density     {name}: {density:.4}")?;
    }
    Ok(())
}

fn dissection_args(args: &Args) -> Result<(i64, usize), CliError> {
    let window = args.get_parsed("window", 16_000i64, "a window size in dbu")?;
    let r = args.get_parsed("r", 2usize, "a dissection parameter")?;
    Ok((window, r))
}

fn density(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let design = load_design(args.positional(0, "design.pfl")?)?;
    let (window, r) = dissection_args(args)?;
    let dissection = FixedDissection::new(design.die, window, r).map_err(tool_err)?;
    let map = DensityMap::compute(&design, LayerId(0), &dissection);
    let a = map.analyze();
    writeln!(
        out,
        "dissection  window {window} dbu, r = {r}: {} tiles of {} dbu",
        dissection.num_tiles(),
        dissection.tile_size()
    )?;
    writeln!(out, "window density  min {:.4}", a.min_window_density)?;
    writeln!(out, "                max {:.4}", a.max_window_density)?;
    writeln!(out, "                mean {:.4}", a.mean_window_density)?;
    writeln!(out, "                variation {:.4}", a.variation)?;
    if let Some(svg_path) = args.get("svg") {
        std::fs::write(svg_path, DensityView::new(&map).render(640.0))?;
        writeln!(out, "wrote {svg_path}")?;
    }
    Ok(())
}

fn parse_method(name: &str) -> Result<&'static (dyn FillMethod + Sync), CliError> {
    Ok(match name {
        "normal" => &NormalFill,
        "greedy" => &GreedyFill,
        "ilp1" => &IlpOne,
        "ilp2" => &IlpTwo,
        "dp" => &DpExact,
        other => {
            return Err(CliError::UnknownChoice {
                what: "method",
                value: other.to_string(),
                choices: "normal, greedy, ilp1, ilp2, dp",
            })
        }
    })
}

fn parse_def(v: &str) -> Result<SlackColumnDef, CliError> {
    Ok(match v {
        "1" => SlackColumnDef::One,
        "2" => SlackColumnDef::Two,
        "3" => SlackColumnDef::Three,
        other => {
            return Err(CliError::UnknownChoice {
                what: "slack-column definition",
                value: other.to_string(),
                choices: "1, 2, 3",
            })
        }
    })
}

/// Builds the [`FlowConfig`] described by the shared fill-flow options
/// (`--window`, `--r`, `--def`, `--seed`, `--max-density`, `--weighted`,
/// `--lp-budget`, `--layer`) — the same vocabulary for `fill` and
/// `request`, so a served request is specified exactly like a one-shot
/// run.
fn flow_config(args: &Args, design: &Design) -> Result<FlowConfig, CliError> {
    let (window, r) = dissection_args(args)?;
    let mut config = FlowConfig::new(window, r).map_err(tool_err)?;
    config.weighted = args.flag("weighted");
    config.lp_budget = args.flag("lp-budget");
    config.max_density =
        args.get_parsed("max-density", config.max_density, "a density in [0,1]")?;
    config.seed = args.get_parsed("seed", config.seed, "an integer seed")?;
    if let Some(def) = args.get("def") {
        config.def = parse_def(def)?;
    }
    if let Some(layer) = args.get("layer") {
        config.layer = design
            .layer_by_name(layer)
            .ok_or_else(|| CliError::Tool(format!("no layer named `{layer}`")))?;
    }
    Ok(config)
}

fn fill(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let design = load_design(args.positional(0, "design.pfl")?)?;
    let method = parse_method(args.get("method").unwrap_or("ilp2"))?;
    // `--threads 0` (the default) auto-detects the available parallelism;
    // `--threads 1` forces the sequential path.
    let threads = match args.get_parsed("threads", 0usize, "a thread count")? {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    let config = flow_config(args, &design)?;
    let pool = pilfill_core::WorkerPool::new(threads);
    let (_, outcome) =
        pilfill_core::run_flow_streamed(&design, &config, method, &pool).map_err(tool_err)?;
    report_fill(&outcome, out)?;

    if let Some(path) = args.get("gds") {
        std::fs::write(path, write_gds(&design, &outcome.features))?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = args.get("svg") {
        let svg = LayoutView::new(&design)
            .with_fill(&outcome.features)
            .render(&Theme::default());
        std::fs::write(path, svg)?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = args.get("csv") {
        let mut csv = String::from("net,delay_s,cap_f\n");
        for (i, (d, c)) in outcome
            .impact
            .per_net_delay
            .iter()
            .zip(&outcome.impact.per_net_cap)
            .enumerate()
        {
            csv.push_str(&format!("{},{:.6e},{:.6e}\n", design.nets[i].name, d, c));
        }
        std::fs::write(path, csv)?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn report_fill(outcome: &FlowOutcome, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "method           {}", outcome.method)?;
    writeln!(
        out,
        "fill             {} of {} budgeted features placed ({} shortfall)",
        outcome.placed_features, outcome.budget_total, outcome.shortfall
    )?;
    writeln!(
        out,
        "density          min window {:.4} -> {:.4}",
        outcome.density_before.min_window_density, outcome.density_after.min_window_density
    )?;
    writeln!(
        out,
        "delay impact     {:.4} fs total, {:.4} fs weighted",
        outcome.impact.total_delay * 1e15,
        outcome.impact.weighted_delay * 1e15
    )?;
    writeln!(
        out,
        "added coupling   {:.4} aF over {} features ({} in free space)",
        outcome.impact.total_cap * 1e18,
        outcome.placed_features,
        outcome.impact.free_features
    )?;
    writeln!(out, "solve time       {:.2?}", outcome.solve_time)?;
    Ok(())
}

fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let listen = args.require("listen")?;
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        lanes: args.get_parsed("threads", defaults.lanes, "a thread count")?,
        quota: args.get_parsed("quota", defaults.quota, "a batch quota")?,
        max_inflight: args.get_parsed(
            "max-inflight",
            defaults.max_inflight,
            "an in-flight request cap",
        )?,
        ctx_cache_cap: args.get_parsed("cache", defaults.ctx_cache_cap, "a context cache size")?,
        design_cache_cap: args.get_parsed(
            "design-cache",
            defaults.design_cache_cap,
            "a design store size",
        )?,
        max_conns: args.get_parsed("max-conns", defaults.max_conns, "a connection cap")?,
    };
    let server = Server::bind(listen, &opts)?;
    writeln!(out, "listening on {}", server.addr())?;
    out.flush()?;
    server.run()?;
    writeln!(out, "shut down")?;
    Ok(())
}

/// Parses an `--edit` spec: ops joined by `+`, each `dup-sink:NET` or
/// `widen:NET,SEG,DELTA`.
fn parse_edits(spec: &str) -> Result<Vec<EditOp>, CliError> {
    let bad = |op: &str| CliError::UnknownChoice {
        what: "edit op",
        value: op.to_string(),
        choices: "dup-sink:NET, widen:NET,SEG,DELTA (joined with +)",
    };
    spec.split('+')
        .map(|op| {
            if let Some(net) = op.strip_prefix("dup-sink:") {
                let net = net.parse().map_err(|_| bad(op))?;
                Ok(EditOp::DupSink { net })
            } else if let Some(rest) = op.strip_prefix("widen:") {
                let mut fields = rest.splitn(3, ',');
                let mut next = || fields.next().ok_or_else(|| bad(op));
                let net = next()?.parse().map_err(|_| bad(op))?;
                let seg = next()?.parse().map_err(|_| bad(op))?;
                let delta = next()?.parse().map_err(|_| bad(op))?;
                Ok(EditOp::WidenSegment { net, seg, delta })
            } else {
                Err(bad(op))
            }
        })
        .collect()
}

/// Human-readable name of a reply's cache temperature.
fn status_name(status: pilfill_serve::protocol::FillStatus) -> &'static str {
    use pilfill_serve::protocol::FillStatus;
    match status {
        FillStatus::Cold => "cold",
        FillStatus::Warm => "warm",
        FillStatus::RebuildIncr => "rebuild-incr",
        FillStatus::RebuildFull => "rebuild-full",
    }
}

fn request(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = args.require("connect")?;
    let timeout = Duration::from_millis(args.get_parsed(
        "timeout-ms",
        30_000u64,
        "a timeout in milliseconds",
    )?);
    // `request --connect SPEC --shutdown` with no design just stops the
    // service.
    if args.positional.is_empty() && args.flag("shutdown") {
        let mut client = Client::connect_retry(spec, timeout)?;
        return finish_shutdown(&mut client, out);
    }

    let design = load_design(args.positional(0, "design.pfl")?)?;
    let config = flow_config(args, &design)?;
    let method_name = args.get("method").unwrap_or("ilp2");
    let method = METHOD_NAMES
        .iter()
        .position(|m| *m == method_name)
        .ok_or_else(|| CliError::UnknownChoice {
            what: "method",
            value: method_name.to_string(),
            choices: "normal, greedy, ilp1, ilp2, dp",
        })?;
    let params = FillParams::from_config(&config, u8::try_from(method).unwrap_or(u8::MAX));

    let base_hash = design_hash(&design);
    let design_ref = if let Some(edit_spec) = args.get("edit") {
        DesignRef::Edit {
            base: base_hash,
            ops: parse_edits(edit_spec)?,
        }
    } else if args.flag("by-hash") {
        DesignRef::Hash(base_hash)
    } else {
        DesignRef::Inline(design.to_text())
    };

    let repeat = args.get_parsed("repeat", 1usize, "a repeat count")?.max(1);
    let mut client = Client::connect_retry(spec, timeout)?;
    for _ in 0..repeat {
        match client.fill_retry(&design_ref, &params, timeout)? {
            Reply::FillOk {
                status,
                server_ns,
                design_hash,
                blob,
            } => {
                writeln!(
                    out,
                    "fill ok  status {}  design {design_hash}  server {server_ns} ns  blob {} bytes",
                    status_name(status),
                    blob.len()
                )?;
                if let Some(path) = args.get("dump") {
                    std::fs::write(path, &blob)?;
                }
            }
            Reply::Busy { inflight } => {
                return Err(CliError::Tool(format!(
                    "server busy ({inflight} requests in flight); raise --timeout-ms or retry"
                )))
            }
            Reply::Err { code, message } => {
                return Err(CliError::Tool(format!("server error {code}: {message}")))
            }
            other => {
                return Err(CliError::Tool(format!(
                    "unexpected reply to a fill request: {other:?}"
                )))
            }
        }
    }

    if args.flag("shutdown") {
        return finish_shutdown(&mut client, out);
    }
    Ok(())
}

fn finish_shutdown(client: &mut Client, out: &mut dyn Write) -> Result<(), CliError> {
    if client.shutdown()? {
        writeln!(out, "shutdown acknowledged")?;
        Ok(())
    } else {
        Err(CliError::Tool("server refused to shut down".into()))
    }
}

/// Stable kebab-case rule identifier for a DRC violation class, matching
/// the `error[rule]` tags the repo linter uses.
fn drc_rule(v: &pilfill_core::DrcViolation) -> &'static str {
    use pilfill_core::DrcViolation;
    match v {
        DrcViolation::OffDie { .. } => "drc-off-die",
        DrcViolation::BufferToWire { .. } => "drc-buffer-wire",
        DrcViolation::BufferToObstruction { .. } => "drc-buffer-obstruction",
        DrcViolation::FillSpacing { .. } => "drc-fill-spacing",
    }
}

fn verify(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use pilfill_core::check_fill;
    use pilfill_diag::{Diagnostic, RuleCounts, Severity};
    let design = load_design(args.positional(0, "design.pfl")?)?;
    let gds_path = args.require("gds")?;
    let bytes = std::fs::read(gds_path)?;
    let lib = pilfill_stream::read_gds(&bytes).map_err(tool_err)?;
    let features = lib.fill_features();
    let report = check_fill(&design, LayerId(0), &features);
    writeln!(out, "checked {} fill features", report.checked)?;
    if report.is_clean() {
        writeln!(out, "DRC clean")?;
        return Ok(());
    }
    // GDS streams have no line numbers: every diagnostic is file-scope
    // (line 0), anchored to the stream path, tagged with its DRC rule.
    let diagnostics: Vec<Diagnostic> = report
        .violations
        .iter()
        .map(|v| Diagnostic::new(Severity::Error, drc_rule(v), gds_path, 0, v.to_string()))
        .collect();
    const MAX_SHOWN: usize = 20;
    for d in diagnostics.iter().take(MAX_SHOWN) {
        writeln!(out, "{}", d.render_text())?;
    }
    if diagnostics.len() > MAX_SHOWN {
        writeln!(out, "... and {} more", diagnostics.len() - MAX_SHOWN)?;
    }
    let counts = RuleCounts::tally(&diagnostics);
    writeln!(out, "\nviolations by rule:")?;
    write!(out, "{}", counts.render_text())?;
    Err(CliError::Tool(format!(
        "{} DRC violation(s)",
        counts.total()
    )))
}

fn export(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let design = load_design(args.positional(0, "design.pfl")?)?;
    let path = args.require("gds")?;
    std::fs::write(path, write_gds(&design, &[]))?;
    writeln!(out, "wrote {path}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(tokens.iter().copied()).map_err(CliError::Args)?;
        let mut buf = Vec::new();
        dispatch(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pilfill-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_lists_commands() {
        let text = run(&["help"]).expect("help");
        for cmd in ["synth", "stats", "density", "fill", "export"] {
            assert!(text.contains(cmd), "help must mention {cmd}");
        }
    }

    #[test]
    fn unknown_command_fails() {
        assert!(matches!(
            run(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn synth_stats_density_fill_export_pipeline() {
        let design_path = tmp("pipe.pfl");
        let out = run(&[
            "synth",
            "--preset",
            "small",
            "--seed",
            "5",
            "--out",
            &design_path,
        ])
        .expect("synth");
        assert!(out.contains("wrote"));

        let out = run(&["stats", &design_path]).expect("stats");
        assert!(out.contains("nets"));
        assert!(out.contains("wirelength"));

        let out = run(&["density", &design_path, "--window", "8000", "--r", "2"]).expect("density");
        assert!(out.contains("variation"));

        let gds_path = tmp("pipe.gds");
        let svg_path = tmp("pipe.svg");
        let csv_path = tmp("pipe.csv");
        let out = run(&[
            "fill",
            &design_path,
            "--window",
            "8000",
            "--r",
            "2",
            "--method",
            "greedy",
            "--gds",
            &gds_path,
            "--svg",
            &svg_path,
            "--csv",
            &csv_path,
        ])
        .expect("fill");
        assert!(out.contains("delay impact"));
        let gds = std::fs::read(&gds_path).expect("gds written");
        assert!(pilfill_stream::read_gds(&gds).is_ok());
        assert!(std::fs::read_to_string(&svg_path)
            .expect("svg written")
            .starts_with("<svg"));
        assert!(std::fs::read_to_string(&csv_path)
            .expect("csv written")
            .starts_with("net,"));

        let export_path = tmp("pipe-export.gds");
        let out = run(&["export", &design_path, "--gds", &export_path]).expect("export");
        assert!(out.contains("wrote"));
    }

    #[test]
    fn verify_passes_on_flow_output_and_fails_on_corrupt_fill() {
        let design_path = tmp("verify.pfl");
        run(&[
            "synth",
            "--preset",
            "small",
            "--seed",
            "8",
            "--out",
            &design_path,
        ])
        .expect("synth");
        let gds_path = tmp("verify.gds");
        run(&[
            "fill",
            &design_path,
            "--window",
            "8000",
            "--r",
            "2",
            "--method",
            "greedy",
            "--gds",
            &gds_path,
        ])
        .expect("fill");
        let out = run(&["verify", &design_path, "--gds", &gds_path]).expect("verify");
        assert!(out.contains("DRC clean"));

        // Corrupt: re-export with a feature on top of a wire.
        let design = load_design(&design_path).expect("load");
        let wire = design.nets[0].segments[0].rect();
        let bad = vec![pilfill_core::FillFeature {
            x: wire.left,
            y: wire.bottom,
        }];
        std::fs::write(tmp("bad.gds"), pilfill_stream::write_gds(&design, &bad))
            .expect("write bad gds");
        let args = Args::parse(
            ["verify", &design_path, "--gds", &tmp("bad.gds")]
                .iter()
                .copied(),
        )
        .expect("parse");
        let mut buf = Vec::new();
        let err = dispatch(&args, &mut buf);
        assert!(matches!(err, Err(CliError::Tool(_))));
        // Violations render through the shared diagnostic formatter.
        let text = String::from_utf8(buf).expect("utf8 output");
        assert!(text.contains("error[drc-"), "diag format missing: {text}");
        assert!(
            text.contains("violations by rule:"),
            "summary missing: {text}"
        );
    }

    #[test]
    fn fill_reports_match_at_every_thread_count() {
        let design_path = tmp("threads.pfl");
        run(&[
            "synth",
            "--preset",
            "small",
            "--seed",
            "11",
            "--out",
            &design_path,
        ])
        .expect("synth");
        let base = &["fill", &design_path, "--window", "8000", "--r", "2"];
        // Reports are identical except for the wall-clock solve-time line.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("solve time"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let report = |threads: &str| {
            let argv: Vec<&str> = base.iter().copied().chain(["--threads", threads]).collect();
            strip(&run(&argv).expect("fill"))
        };
        let serial = report("1");
        for threads in ["2", "8"] {
            assert_eq!(report(threads), serial, "--threads {threads}");
        }
    }

    #[test]
    fn fill_rejects_unknown_method() {
        let design_path = tmp("method.pfl");
        run(&["synth", "--preset", "small", "--out", &design_path]).expect("synth");
        assert!(matches!(
            run(&["fill", &design_path, "--method", "magic"]),
            Err(CliError::UnknownChoice { .. })
        ));
    }

    #[test]
    fn synth_rejects_unknown_preset() {
        assert!(matches!(
            run(&["synth", "--preset", "t9", "--out", "/dev/null"]),
            Err(CliError::UnknownChoice { .. })
        ));
    }

    #[test]
    fn stats_missing_file_is_io_error() {
        assert!(matches!(
            run(&["stats", "/nonexistent/file.pfl"]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn serve_and_request_round_trip_over_unix_socket() {
        let design_path = tmp("serve-rt.pfl");
        run(&[
            "synth",
            "--preset",
            "small",
            "--seed",
            "21",
            "--out",
            &design_path,
        ])
        .expect("synth");
        let sock = tmp(&format!("serve-rt-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listen = format!("unix:{sock}");

        let server = std::thread::spawn({
            let listen = listen.clone();
            move || run(&["serve", "--listen", &listen, "--threads", "2"])
        });

        let base: &[&str] = &[
            "request",
            &design_path,
            "--connect",
            &listen,
            "--window",
            "8000",
            "--r",
            "2",
            "--method",
            "greedy",
        ];
        fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
            base.iter().chain(extra.iter()).copied().collect()
        }

        // Cold inline upload, then a warm by-hash repeat: byte-identical
        // outcome blobs.
        let cold_blob = tmp("serve-rt-cold.blob");
        let text = run(&with(base, &["--dump", &cold_blob])).expect("cold request");
        assert!(text.contains("status cold"), "not cold: {text}");
        let warm_blob = tmp("serve-rt-warm.blob");
        let text = run(&with(base, &["--by-hash", "--dump", &warm_blob])).expect("warm request");
        assert!(text.contains("status warm"), "not warm: {text}");
        assert_eq!(
            std::fs::read(&cold_blob).expect("cold blob"),
            std::fs::read(&warm_blob).expect("warm blob"),
            "warm replay must match the cold run byte-for-byte"
        );

        // Repeats reuse one connection and stay warm.
        let text = run(&with(base, &["--by-hash", "--repeat", "2"])).expect("repeat");
        assert_eq!(text.matches("status warm").count(), 2, "repeats: {text}");

        // An edit of the cached base goes through rebuild, not cold build.
        let text = run(&with(base, &["--edit", "dup-sink:0"])).expect("edit request");
        assert!(text.contains("status rebuild-"), "not a rebuild: {text}");

        // A design-less `request --shutdown` stops the service cleanly.
        let text = run(&["request", "--connect", &listen, "--shutdown"]).expect("shutdown");
        assert!(text.contains("shutdown acknowledged"));
        let text = server.join().expect("server thread").expect("serve ok");
        assert!(text.contains("listening on unix:"), "serve output: {text}");
        assert!(text.contains("shut down"), "serve output: {text}");
        assert!(
            std::fs::metadata(&sock).is_err(),
            "socket file must be unlinked on shutdown"
        );
    }

    #[test]
    fn request_rejects_bad_edit_specs_and_methods() {
        let design_path = tmp("serve-bad.pfl");
        run(&["synth", "--preset", "small", "--out", &design_path]).expect("synth");
        let sock = tmp(&format!("serve-bad-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let listen = format!("unix:{sock}");
        let server = std::thread::spawn({
            let listen = listen.clone();
            move || run(&["serve", "--listen", &listen, "--threads", "1"])
        });
        // Argument validation happens before anything hits the wire.
        assert!(matches!(
            run(&[
                "request",
                &design_path,
                "--connect",
                &listen,
                "--edit",
                "explode:3"
            ]),
            Err(CliError::UnknownChoice { .. })
        ));
        assert!(matches!(
            run(&[
                "request",
                &design_path,
                "--connect",
                &listen,
                "--method",
                "magic"
            ]),
            Err(CliError::UnknownChoice { .. })
        ));
        run(&["request", "--connect", &listen, "--shutdown"]).expect("shutdown");
        server.join().expect("server thread").expect("serve ok");
    }
}
