//! `serve_eco`: the fill daemon as an ECO engine. An in-process
//! [`Server`] with one lane serves four T2-size designs (T2 plus three
//! seeded variants), uploaded inline during set-up. Two client threads,
//! one connection each, send on a fixed open-loop schedule; each owns two
//! designs and repeats a ten-request round over them:
//!
//! - seven warm repeats of a design's current state, by hash;
//! - one one-net edit chained onto the current state, alternating
//!   `DupSink` and `WidenSegment` (an incremental rebuild);
//! - two fills of a base design under one of six other (window, r)
//!   configs, which the context LRU has evicted by the time they recur
//!   (cold builds).
//!
//! With 70% warm, 10% edits and 20% cold, the overall p50 lies 20 points
//! inside the warm class and the p90 at the middle of the cold class.
//!
//! The untraced phase runs in nine segments, each served by a daemon set
//! up from fresh state (so that `setup_s` is the median of nine set-ups
//! spread over the run) with its own seeded plan; the traced phase
//! continues on the last daemon.
//!
//! Latency counts from each request's scheduled send time. Every reply
//! blob is checked against the one-shot flow on the same design state.

use crate::report::{median, peak_rss_mb, reset_peak_rss, Report, Samples};
use crate::stages::build_stages;
use crate::trace::{ms_since, Ilp2Counted, Tracer};
use crate::{Opts, RunClock, SETUP_REPS};
use pilfill_core::flow::{run_flow, FlowConfig, FlowContext};
use pilfill_core::methods::{FillMethod, IlpTwo, NormalFill};
use pilfill_core::WorkerPool;
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::{Design, LayerId};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};
use pilfill_serve::protocol::{
    apply_edits, decode_reply, design_hash, edit_hash, encode_outcome_blob, encode_reply,
    DesignKey, DesignRef, EditOp, FillParams, FillStatus, Reply,
};
use pilfill_serve::{Client, ServeOptions, Server};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Worker lanes of the daemon.
pub const LANES: usize = 1;
/// Requests per second over both connections.
pub const RATE: f64 = 50.0;
/// Client threads, one connection each.
pub const CONNECTIONS: usize = 2;
/// A request served later than this after its scheduled send misses.
pub const LATENCY_LIMIT_MS: f64 = 25.0;
/// Contexts the daemon keeps: the four edited contexts stay resident while
/// the cold configs cycle through the rest.
const CTX_CACHE: usize = 10;
/// Widening step of a `WidenSegment` edit, dbu.
const WIDEN: i64 = 40;

/// Request classes, as planned and as the reply's `FillStatus` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Warm,
    Edit,
    Cold,
}

const CLASSES: [Class; 3] = [Class::Warm, Class::Edit, Class::Cold];

/// Two rounds of a client: `(class, which of its two designs)`.
const ROUND: [(Class, usize); 20] = [
    (Class::Warm, 0),
    (Class::Warm, 1),
    (Class::Edit, 0),
    (Class::Warm, 0),
    (Class::Warm, 1),
    (Class::Cold, 0),
    (Class::Warm, 1),
    (Class::Warm, 0),
    (Class::Warm, 1),
    (Class::Cold, 1),
    (Class::Warm, 0),
    (Class::Warm, 1),
    (Class::Edit, 1),
    (Class::Warm, 0),
    (Class::Warm, 1),
    (Class::Cold, 0),
    (Class::Warm, 0),
    (Class::Warm, 1),
    (Class::Warm, 0),
    (Class::Cold, 1),
];

/// The edited contexts' config, then the cold configs. The seed drives
/// Normal fill, the baseline of `delay_ratio`.
fn configs(seed: u64, tiny: bool) -> Vec<FlowConfig> {
    let pairs: &[(i64, usize)] = if tiny {
        &[(8_000, 2), (12_000, 2), (6_000, 2), (8_000, 4)]
    } else {
        &[
            (32_000, 2),
            (24_000, 2),
            (16_000, 2),
            (32_000, 4),
            (40_000, 4),
            (20_000, 2),
            (24_000, 4),
        ]
    };
    pairs
        .iter()
        .map(|&(w, r)| {
            let mut config = FlowConfig::new(w, r).expect("valid window");
            config.seed = seed;
            config
        })
        .collect()
}

/// T2 and three variants with fixed synthesis seeds: reseeding changes a
/// design's fill work and result quality by tens of percent, so the
/// workload seed varies the traffic, not the designs.
fn design_configs(tiny: bool) -> Vec<SynthConfig> {
    (0..4u64)
        .map(|k| {
            let mut c = if tiny {
                SynthConfig::small_test(k)
            } else {
                SynthConfig::t2()
            };
            if k > 0 {
                c.seed = c.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
                c.name = format!("{}-v{k}", c.name);
            }
            c
        })
        .collect()
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    class: Class,
    design: usize,
    /// Edit-chain position of the design state the request fills.
    state: usize,
    config: usize,
    dref: DesignRef,
}

/// Picks the next edit of `design` (mutating it), alternating sink
/// duplication and toggling a target-layer segment's width by `WIDEN`.
fn next_edit(design: &mut Design, original: &Design, k: usize, rng: &mut StdRng) -> EditOp {
    let layer = LayerId(0);
    loop {
        let net = rng.gen_range(0..design.nets.len());
        let n = &design.nets[net];
        if n.sinks.is_empty() {
            continue;
        }
        let op = if k.is_multiple_of(2) {
            EditOp::DupSink { net: net as u32 }
        } else {
            let segs: Vec<usize> = (0..n.segments.len())
                .filter(|&s| n.segments[s].layer == layer)
                .collect();
            if segs.is_empty() {
                continue;
            }
            let seg = segs[rng.gen_range(0..segs.len())];
            let widened = n.segments[seg].width != original.nets[net].segments[seg].width;
            EditOp::WidenSegment {
                net: net as u32,
                seg: seg as u32,
                delta: if widened { -WIDEN } else { WIDEN },
            }
        };
        apply_edits(design, &[op]).expect("edit of an existing net");
        return op;
    }
}

/// The schedules of both clients (`per_client` requests each, client `c`
/// starting at position `round_from[c]` of its round and cycling through
/// `n_cold` cold configs) and the edit chain of every design: the ops
/// applied, in order, to its base.
fn plan(
    designs: &[Design],
    keys: &[DesignKey],
    seed: u64,
    per_client: usize,
    round_from: &[usize],
    n_cold: usize,
) -> (Vec<Vec<Planned>>, Vec<Vec<EditOp>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E27_E000);
    let mut mirrors: Vec<Design> = designs.to_vec();
    let mut chains: Vec<Vec<EditOp>> = vec![Vec::new(); designs.len()];
    let mut current: Vec<DesignKey> = keys.to_vec();
    // Each design starts its cycle through the cold configs at a seeded
    // position.
    let mut cold_turn: Vec<usize> = designs.iter().map(|_| rng.gen_range(0..n_cold)).collect();
    let mut schedules: Vec<Vec<Planned>> = (0..CONNECTIONS)
        .map(|_| Vec::with_capacity(per_client))
        .collect();
    for i in 0..per_client {
        for (c, schedule) in schedules.iter_mut().enumerate() {
            let (class, which) = ROUND[(round_from[c] + i) % ROUND.len()];
            let d = 2 * c + which;
            let planned = match class {
                Class::Warm => Planned {
                    class,
                    design: d,
                    state: chains[d].len(),
                    config: 0,
                    dref: DesignRef::Hash(current[d]),
                },
                Class::Edit => {
                    let k = chains[d].len();
                    let op = next_edit(&mut mirrors[d], &designs[d], k, &mut rng);
                    let dref = DesignRef::Edit {
                        base: current[d],
                        ops: vec![op],
                    };
                    current[d] = edit_hash(current[d], &[op]);
                    chains[d].push(op);
                    Planned {
                        class,
                        design: d,
                        state: k + 1,
                        config: 0,
                        dref,
                    }
                }
                Class::Cold => {
                    cold_turn[d] += 1;
                    Planned {
                        class,
                        design: d,
                        state: 0,
                        config: 1 + cold_turn[d] % n_cold,
                        dref: DesignRef::Hash(keys[d]),
                    }
                }
            };
            schedule.push(planned);
        }
    }
    (schedules, chains)
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
struct Outcome {
    /// The request's place in the plan: segment, client and index.
    segment: usize,
    client: usize,
    index: usize,
    latency_ms: f64,
    late_ms: f64,
    server_ms: f64,
    status: Option<FillStatus>,
    /// `(hash, length)` of the reply blob on a `FillOk`.
    blob: Option<(u64, usize)>,
    error: Option<String>,
    reply_bytes: usize,
    decode_ms: f64,
}

fn blob_id(blob: &[u8]) -> (u64, usize) {
    let mut h = DefaultHasher::new();
    blob.hash(&mut h);
    (h.finish(), blob.len())
}

/// Sends client `c`'s `schedule[from..]` in segment `segment` at
/// `interval` spacing from `start`, until the next due time passes `end`.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    segment: usize,
    c: usize,
    schedule: &[Planned],
    from: usize,
    params: &[FillParams],
    start: Instant,
    interval: Duration,
    end: Instant,
    traced: bool,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for (k, planned) in schedule.iter().enumerate().skip(from) {
        let due = start + interval * u32::try_from(k - from).unwrap_or(u32::MAX);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let reply = client.fill(planned.dref.clone(), params[planned.config].clone());
        let done = Instant::now();
        let mut o = Outcome {
            segment,
            client: c,
            index: k,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent.saturating_duration_since(due)).as_secs_f64() * 1e3,
            server_ms: 0.0,
            status: None,
            blob: None,
            error: None,
            reply_bytes: 0,
            decode_ms: 0.0,
        };
        match reply {
            Ok(reply) => {
                if traced {
                    let bytes = encode_reply(&reply);
                    let t0 = Instant::now();
                    let decoded = decode_reply(&bytes);
                    o.decode_ms = ms_since(t0);
                    o.reply_bytes = bytes.len();
                    if decoded.as_ref().ok() != Some(&reply) {
                        o.error = Some("reply does not round-trip".to_string());
                    }
                }
                match reply {
                    Reply::FillOk {
                        status,
                        server_ns,
                        blob,
                        ..
                    } => {
                        o.status = Some(status);
                        o.server_ms = server_ns as f64 / 1e6;
                        o.blob = Some(blob_id(&blob));
                    }
                    Reply::Busy { inflight } => o.error = Some(format!("busy ({inflight})")),
                    other => o.error = Some(format!("{other:?}")),
                }
            }
            Err(e) => o.error = Some(format!("i/o: {e}")),
        }
        out.push(o);
    }
    out
}

/// A running daemon and its two connected clients.
struct Daemon {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Daemon {
    fn stop(mut self) -> Result<(), String> {
        let acked = self.clients[0]
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self.clients);
        let served = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        served.map_err(|e| format!("daemon {}: {e}", self.addr))?;
        if acked {
            Ok(())
        } else {
            Err("shutdown not acknowledged".to_string())
        }
    }
}

struct Inputs {
    designs: Vec<Design>,
    keys: Vec<DesignKey>,
}

/// Fills `dref` during set-up and returns the design's store key.
fn fill_key(
    client: &mut Client,
    dref: DesignRef,
    params: &FillParams,
) -> Result<DesignKey, String> {
    match client.fill(dref, params.clone()) {
        Ok(Reply::FillOk { design_hash, .. }) => Ok(design_hash),
        Ok(other) => Err(format!("set-up fill: {other:?}")),
        Err(e) => Err(format!("set-up fill: {e}")),
    }
}

/// Set-up from fresh state: synthesize and serialize the designs, bind
/// and start the daemon, connect, upload every design inline (a cold
/// fill under the edited config), and warm each upload once by hash.
/// Set-up `k` of the run binds its own socket.
fn setup(
    opts: &Opts,
    params: &[FillParams],
    k: usize,
    tr: &mut Tracer,
) -> Result<(Inputs, Daemon), String> {
    let designs: Vec<Design> = tr.span("layout.synth_ms", || {
        design_configs(opts.tiny).iter().map(synthesize).collect()
    });
    let texts: Vec<String> = designs.iter().map(Design::to_text).collect();
    let serve_opts = ServeOptions {
        lanes: LANES,
        ctx_cache_cap: CTX_CACHE,
        design_cache_cap: 64,
        ..ServeOptions::default()
    };
    // A unix socket in the working directory: the daemon's framing writes
    // a length prefix and a payload separately, which TCP without
    // TCP_NODELAY stalls for a delayed ACK.
    let spec = format!("unix:.perfbench-serve-{}-{k}.sock", std::process::id());
    let server = Server::bind(&spec, &serve_opts).map_err(|e| format!("bind {spec}: {e}"))?;
    let addr = server.addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(&addr).map_err(|e| format!("connect: {e}"))?);
    }
    // Client `c` owns designs `2c` and `2c + 1`.
    let mut keys = Vec::with_capacity(designs.len());
    for (d, text) in texts.into_iter().enumerate() {
        keys.push(fill_key(
            &mut clients[d / 2],
            DesignRef::Inline(text),
            &params[0],
        )?);
    }
    for (d, &key) in keys.iter().enumerate() {
        fill_key(&mut clients[d / 2], DesignRef::Hash(key), &params[0])?;
    }
    let daemon = Daemon {
        addr,
        thread,
        clients,
    };
    Ok((Inputs { designs, keys }, daemon))
}

fn class_of(status: FillStatus) -> Class {
    match status {
        FillStatus::Warm => Class::Warm,
        FillStatus::RebuildIncr | FillStatus::RebuildFull => Class::Edit,
        FillStatus::Cold => Class::Cold,
    }
}

/// Requests each client has sent so far: where its schedule resumes.
fn sent_per_client(done: &[Outcome]) -> Vec<usize> {
    (0..CONNECTIONS)
        .map(|c| done.iter().filter(|o| o.client == c).count())
        .collect()
}

/// Runs both clients on their schedules of `segment` for `phase`, each
/// starting at `from`.
fn run_phase(
    clients: &mut [Client],
    segment: usize,
    schedules: &[Vec<Planned>],
    from: &[usize],
    params: &[FillParams],
    phase: Duration,
    traced: bool,
) -> (Vec<Outcome>, f64) {
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / RATE);
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + phase;
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let offset = interval * u32::try_from(c).unwrap_or(0) / CONNECTIONS as u32;
                let schedule = &schedules[c];
                let from = from[c];
                s.spawn(move || {
                    let start = start + offset;
                    drive(
                        client, segment, c, schedule, from, params, start, interval, end, traced,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (outcomes, start.elapsed().as_secs_f64())
}

/// The plan of one segment of the run: both clients' schedules and the
/// edit chain of every design.
struct Segment {
    schedules: Vec<Vec<Planned>>,
    chains: Vec<Vec<EditOp>>,
}

/// Where a reply belongs: design, segment (`None` for the base state, the
/// same design in every segment), edit-chain state and config.
type ReplyKey = (usize, Option<usize>, usize, usize);

/// Checks every reply blob against the one-shot ILP-II flow on the same
/// design state and config, counting mismatches as failed. Returns the
/// per-design ILP-II/Normal delay ratio and ILP-II density variation of
/// the base designs under the edited config.
fn verify(
    inputs: &Inputs,
    segments: &[Segment],
    outcomes: &[&Outcome],
    configs: &[FlowConfig],
    report: &mut Report,
) -> Vec<(f64, f64)> {
    // Replies per (design, segment, state, config). The base state
    // (state 0) is the same design in every segment.
    let mut seen: HashMap<ReplyKey, Vec<(u64, usize)>> = HashMap::new();
    for o in outcomes {
        let p = &segments[o.segment].schedules[o.client][o.index];
        if let Some(blob) = o.blob {
            let segment = (p.state > 0).then_some(o.segment);
            seen.entry((p.design, segment, p.state, p.config))
                .or_default()
                .push(blob);
        }
    }
    let results: Vec<(usize, f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..inputs.designs.len())
            .map(|d| {
                let seen = &seen;
                let base = &inputs.designs[d];
                s.spawn(move || {
                    let ilp2 = run_flow(base, &configs[0], &IlpTwo).expect("base flow");
                    let normal = run_flow(base, &configs[0], &NormalFill).expect("base flow");
                    let quality = (
                        ilp2.impact.total_delay / normal.impact.total_delay,
                        ilp2.density_after.variation,
                    );
                    // Replies that differ from the one-shot flow on `design`.
                    let wrong_at = |design: &Design, segment: Option<usize>, state: usize| {
                        let mut wrong = 0usize;
                        for (ci, config) in configs.iter().enumerate() {
                            let Some(blobs) = seen.get(&(d, segment, state, ci)) else {
                                continue;
                            };
                            let want = run_flow(design, config, &IlpTwo)
                                .map(|o| blob_id(&encode_outcome_blob(&o)));
                            wrong += blobs
                                .iter()
                                .filter(|b| want.as_ref().ok() != Some(b))
                                .count();
                        }
                        wrong
                    };
                    let mut wrong = wrong_at(base, None, 0);
                    for (si, segment) in segments.iter().enumerate() {
                        let last = seen
                            .keys()
                            .filter(|k| k.0 == d && k.1 == Some(si))
                            .map(|k| k.2)
                            .max();
                        let mut mirror = base.clone();
                        let ops = &segment.chains[d][..last.unwrap_or(0)];
                        for (i, op) in ops.iter().enumerate() {
                            apply_edits(&mut mirror, &[*op]).expect("edit");
                            wrong += wrong_at(&mirror, Some(si), i + 1);
                        }
                    }
                    (wrong, quality.0, quality.1)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread"))
            .collect()
    });
    for (d, &(wrong, _, _)) in results.iter().enumerate() {
        for _ in 0..wrong {
            report.fail(format!(
                "design {d}: reply blob differs from the one-shot flow"
            ));
        }
    }
    results.iter().map(|&(_, r, v)| (r, v)).collect()
}

/// In-process replays of the daemon's stages for the per-layer metrics:
/// the design hash, the incremental rebuilds of the first edits of one
/// design's chain in every segment, the evaluation of a warm context, and
/// the cold builds stage by stage.
fn probes(
    inputs: &Inputs,
    segments: &[Segment],
    configs: &[FlowConfig],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let flow = |e: pilfill_core::FlowError| e.to_string();
    for (d, design) in inputs.designs.iter().enumerate() {
        let key = tr.span("serve.hash_ms", || design_hash(design));
        tr.end_job();
        if key != inputs.keys[d] {
            report.fail(format!("design {d}: store key differs from design_hash"));
        }
    }

    let pool = WorkerPool::new(LANES);
    let base = &inputs.designs[0];
    let config = &configs[0];
    let mut warm = None;
    for segment in segments {
        let mut ctx = FlowContext::build(base, config).map_err(flow)?.into_owned();
        let mut mirror = base.clone();
        for op in segment.chains[0].iter().take(8) {
            apply_edits(&mut mirror, &[*op])?;
            let (_, dirt) = tr
                .span("core.rebuild_ms", || {
                    ctx.rebuild_owned(&mirror, config, &pool)
                })
                .map_err(flow)?;
            let dirty = match dirt {
                pilfill_core::RebuildDirt::All => ctx.problems().len(),
                pilfill_core::RebuildDirt::Tiles(t) => t.len(),
            };
            tr.add("core.rebuild_dirty_tiles", dirty as f64);
            tr.end_job();
        }
        warm = Some(ctx);
    }
    let ctx = warm.ok_or("no segment")?;

    let n = ctx.problems().len();
    let per_tile = (0..n)
        .map(|i| ctx.solve_tile(config, &IlpTwo, i).map(|(c, t)| (i, c, t)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for _ in 0..16 {
        let tiles = per_tile.clone();
        let _ = tr
            .span("core.evaluate_ms", || ctx.finish_run(IlpTwo.name(), tiles))
            .map_err(flow)?;
        tr.end_job();
    }

    let ilp2 = Ilp2Counted::default();
    for config in &configs[1..] {
        build_stages(base, config, tr).map_err(flow)?;
        let cold = tr
            .span("core.build_ms", || FlowContext::build(base, config))
            .map_err(flow)?;
        tr.add("core.tiles", cold.problems().len() as f64);
        for i in 0..cold.problems().len() {
            tr.span("methods.ilp2_ms", || cold.solve_tile(config, &ilp2, i))
                .map_err(|e| e.to_string())?;
        }
        ilp2.drain_into(tr);
        tr.end_job();
    }
    Ok(())
}

fn by_class(outcomes: &[&Outcome], class: Class, f: impl Fn(&Outcome) -> f64) -> Samples {
    let mut s = Samples::default();
    for o in outcomes {
        if o.status.map(class_of) == Some(class) {
            s.push(f(o));
        }
    }
    s
}

fn all(outcomes: &[&Outcome], f: impl Fn(&Outcome) -> f64) -> Samples {
    let mut s = Samples::default();
    for o in outcomes.iter().filter(|o| o.error.is_none()) {
        s.push(f(o));
    }
    s
}

fn share(outcomes: &[&Outcome], pred: impl Fn(&Outcome) -> bool) -> f64 {
    outcomes.iter().filter(|o| pred(o)).count() as f64 / outcomes.len().max(1) as f64
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let configs = configs(opts.seed, opts.tiny);
    let params: Vec<FillParams> = configs
        .iter()
        .map(|c| FillParams::from_config(c, 3))
        .collect();
    let mut report = Report::default();
    let mut tr = Tracer::default();
    let (untraced, traced) = opts.phases();
    // The untraced phase runs in SETUP_REPS segments, each served by a
    // daemon set up from fresh state and stopped at its end; the traced
    // phase, if any, continues on the last one. The peak RSS is taken over
    // the segments' traffic only.
    let segment_len = untraced / SETUP_REPS as u32;
    let planned_s = (segment_len + traced.unwrap_or_default()).as_secs_f64();
    let per_client = (planned_s * RATE / CONNECTIONS as f64).ceil() as usize + 1;
    let mut clock = RunClock::new(untraced);
    let mut inputs = None;
    let mut segments = Vec::with_capacity(SETUP_REPS);
    let mut first = Vec::new();
    let mut first_s = 0.0;
    let mut second = Vec::new();
    let mut peak_rss = 0.0f64;
    // Requests sent per client: each segment's plan resumes the round
    // there, so that short segments still cycle through every class.
    let mut sent = [0usize; CONNECTIONS];
    for k in 0..SETUP_REPS {
        let (fresh, mut daemon) = clock.setup(|| setup(opts, &params, k, &mut tr))?;
        tr.end_job();
        let (schedules, chains) = plan(
            &fresh.designs,
            &fresh.keys,
            opts.seed.wrapping_add(k as u64),
            per_client,
            &sent,
            configs.len() - 1,
        );
        reset_peak_rss();
        let (outcomes, s) = run_phase(
            &mut daemon.clients,
            k,
            &schedules,
            &[0; CONNECTIONS],
            &params,
            segment_len,
            false,
        );
        peak_rss = peak_rss.max(peak_rss_mb());
        first_s += s;
        for (total, n) in sent.iter_mut().zip(sent_per_client(&outcomes)) {
            *total += n;
        }
        if let (Some(phase), true) = (traced, k + 1 == SETUP_REPS) {
            let from = sent_per_client(&outcomes);
            second = run_phase(
                &mut daemon.clients,
                k,
                &schedules,
                &from,
                &params,
                phase,
                true,
            )
            .0;
        }
        first.extend(outcomes);
        daemon.stop()?;
        segments.push(Segment { schedules, chains });
        inputs = Some(fresh);
    }
    let inputs = inputs.ok_or("no set-up")?;

    let everything: Vec<&Outcome> = first.iter().chain(&second).collect();
    report.attempted = everything.len() as u64;
    for o in &everything {
        if let Some(e) = &o.error {
            report.fail(e.clone());
        }
    }
    let quality = verify(&inputs, &segments, &everything, &configs, &mut report);

    let untraced_all: Vec<&Outcome> = first.iter().collect();
    let latency = all(&untraced_all, |o| o.latency_ms);
    let good = untraced_all
        .iter()
        .filter(|o| o.error.is_none() && o.latency_ms <= LATENCY_LIMIT_MS)
        .count();
    let mut note = format!("serve_eco: latency ms {}", latency.summary());
    for class in CLASSES {
        let planned = untraced_all
            .iter()
            .filter(|o| segments[o.segment].schedules[o.client][o.index].class == class)
            .count();
        let served = by_class(&untraced_all, class, |o| o.latency_ms);
        let _ = write!(note, "; {class:?} {} (planned {planned})", served.summary());
    }
    let late = all(&untraced_all, |o| o.late_ms);
    let _ = write!(note, "; late ms p99={:.3}", late.pct(99.0));
    report.note(note);

    if opts.trace {
        probes(&inputs, &segments, &configs, &mut tr, &mut report)?;
        let traced_all: Vec<&Outcome> = second.iter().collect();
        let traced_latency = all(&traced_all, |o| o.latency_ms);
        crate::report_layers(
            &mut report,
            &tr,
            &latency,
            &traced_latency,
            clock.setups_s(),
        );
        let n = traced_all.len();
        let server = |c| by_class(&traced_all, c, |o| o.server_ms);
        let lat = |c| by_class(&untraced_all, c, |o| o.latency_ms);
        report.set(
            "serve.server_ms",
            all(&traced_all, |o| o.server_ms).pct(50.0),
            "ms",
            n,
        );
        for (class, server_key, latency_key) in [
            (Class::Warm, "serve.server_warm_ms", "serve.warm_p50_ms"),
            (Class::Edit, "serve.server_edit_ms", "serve.edit_p50_ms"),
            (Class::Cold, "serve.server_cold_ms", "serve.cold_p50_ms"),
        ] {
            let s = server(class);
            report.set(server_key, s.pct(50.0), "ms", s.len());
            let l = lat(class);
            report.set(latency_key, l.pct(50.0), "ms", l.len());
        }
        let wait = all(&traced_all, |o| o.latency_ms - o.late_ms - o.server_ms);
        report.set("serve.wait_ms", wait.pct(50.0), "ms", wait.len());
        let status_share =
            |pred: fn(FillStatus) -> bool| share(&traced_all, |o| o.status.is_some_and(pred));
        report.set(
            "serve.warm_ratio",
            status_share(|s| s == FillStatus::Warm),
            "ratio",
            n,
        );
        report.set(
            "serve.rebuild_ratio",
            status_share(|s| matches!(s, FillStatus::RebuildIncr | FillStatus::RebuildFull)),
            "ratio",
            n,
        );
        report.set(
            "serve.cold_ratio",
            status_share(|s| s == FillStatus::Cold),
            "ratio",
            n,
        );
        report.set(
            "serve.busy_ratio",
            share(&traced_all, |o| {
                o.error.as_deref().is_some_and(|e| e.starts_with("busy"))
            }),
            "ratio",
            n,
        );
        let decode = all(&traced_all, |o| o.decode_ms);
        report.set("serve.decode_ms", decode.pct(50.0), "ms", decode.len());
        let bytes = all(&traced_all, |o| o.reply_bytes as f64);
        report.set("serve.reply_bytes", bytes.pct(50.0), "bytes", bytes.len());
        report.set("bench.late_ms", late.pct(99.0), "ms", late.len());
    } else {
        let n = latency.len();
        let setups = clock.setups_s();
        report.set("setup_s", median(setups), "s", setups.len());
        report.set("p50_ms", latency.pct(50.0), "ms", n);
        report.set("p90_ms", latency.pct(90.0), "ms", n);
        report.set("jobs_per_s", good as f64 / first_s, "1/s", good);
        report.set("peak_rss_mb", peak_rss, "MiB", 1);
        let ratios: Vec<f64> = quality.iter().map(|q| q.0.ln()).collect();
        let geomean = (ratios.iter().sum::<f64>() / ratios.len() as f64).exp();
        let var = quality.iter().map(|q| q.1).sum::<f64>() / quality.len() as f64;
        report.set("delay_ratio", geomean, "ratio", quality.len());
        report.set("density_var", var, "ratio", quality.len());
    }
    Ok(report)
}
