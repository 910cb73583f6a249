// Offline experiment harness: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! One-shot machine-readable bench report: times the hot paths of the
//! whole pipeline (density analysis, scan-line extraction, every per-tile
//! fill method, and the end-to-end flow) and writes a `BENCH_*.json`
//! mapping each metric to its median nanoseconds.
//!
//! Run with `cargo run --release -p pilfill-bench --bin bench_json`.
//!
//! Flags:
//!
//! - `--quick`: a small design and minimal sample counts — a CI smoke run
//!   that checks the harness end-to-end in seconds, not a measurement.
//! - `--threads-sweep`: additionally emit `flow/run_parallelN_ilp2_t2`
//!   and `flow/context_build_parallelN_t2` for N in {1, 2, 4, 8}, each on
//!   a persistent [`WorkerPool`] created outside the timed region, plus a
//!   `scaling` object with `.../speedup@N` keys in permille (the N = 1
//!   median over the N-lane median, so 2000 = a clean 2x). Judge those
//!   against `host_parallelism`: lanes beyond the hardware measure
//!   scheduling overhead, not speedup (`scripts/check_scaling.sh`).
//! - `--serve-load`: additionally start an in-process fill service on a
//!   unix socket and drive it with an open-loop multi-client request
//!   stream (send times are scheduled up front, so queueing delay counts
//!   against latency instead of silently thinning the arrival rate —
//!   no coordinated omission). Emits a `serve` object: `serve/rps`,
//!   `serve/p50_ns`, `serve/p99_ns`, `serve/warm_hit_ratio` (permille),
//!   plus `serve/cold_ns` vs `serve/warm_edit_ns` — the cold-build
//!   request against the served latency of an edited design riding the
//!   cached context through `FlowContext::rebuild`.
//! - `--out PATH`: report path (default `BENCH_pr9.json`).
//!
//! `verify/check_fill_t1` times the fill DRC (`check_fill`) of a full
//! ILP-II placement of T1 at W = 32k, r = 2.
//!
//! Besides timings, the report carries a `solver` object of raw effort
//! counters from one ILP-II solve of the representative tile — simplex
//! iterations, LU refactorizations and branch-and-bound nodes — so a
//! regression in solver behavior is visible even when wall time hides it.
//!
//! Built with `--features bench`, the counting global allocator is
//! installed and the report additionally carries `allocs/*` keys: the
//! number of heap allocations one call of the matching flow entry point
//! performs (exact — the harness is single-threaded).
//!
//! The report records `host_parallelism` (what
//! [`std::thread::available_parallelism`] saw) so sweep numbers can be
//! judged against the hardware they ran on: on a single-core host every
//! N > 1 measures scheduling overhead, not speedup.

use pilfill_bench::{alloc_count, Harness, Json};
use pilfill_core::flow::{run_flow_streamed, FlowConfig, FlowContext};
use pilfill_core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_core::{
    check_fill, extract_active_lines, scan_slack_columns, scan_slack_columns_into, ScanScratch,
    TileProblem, WorkerPool,
};
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::{Design, LayerId};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::SeedableRng;

const DEFAULT_OUT: &str = "BENCH_pr9.json";

/// Thread counts covered by `--threads-sweep`.
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

struct Options {
    quick: bool,
    sweep: bool,
    serve_load: bool,
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        sweep: false,
        serve_load: false,
        out: DEFAULT_OUT.to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--threads-sweep" => opts.sweep = true,
            "--serve-load" => opts.serve_load = true,
            "--out" => opts.out = args.next().expect("--out needs a path"),
            other => panic!(
                "unknown flag {other:?} (try --quick, --threads-sweep, --serve-load, --out PATH)"
            ),
        }
    }
    opts
}

/// Picks the tile with the most paired capacity (the hardest instance).
fn representative_tile(design: &Design, cfg: &FlowConfig) -> (TileProblem, u32) {
    let ctx = FlowContext::build(design, cfg).expect("context");
    let problem = ctx
        .problems()
        .iter()
        .max_by_key(|p| {
            p.columns
                .iter()
                .filter(|c| c.distance.is_some())
                .map(|c| c.capacity() as u64)
                .sum::<u64>()
        })
        .expect("at least one tile")
        .clone();
    let budget = pilfill_geom::units::saturating_count(problem.capacity() / 2);
    (problem, budget)
}

/// A copy of `design` with one sink duplicated on a fill-layer net whose
/// footprint spans the fewest tile-grid columns. The edit bumps every
/// downstream line weight (so the net's tiles must be re-solved) without
/// moving geometry — the canonical "one dirty tile, budget reusable"
/// incremental workload.
fn mutated_copy(design: &Design, tile: i64) -> Design {
    let ni = narrowest_net(design, tile);
    let mut copy = design.clone();
    let sink = copy.nets[ni].sinks[0];
    copy.nets[ni].sinks.push(sink);
    copy
}

/// Index of the fill-layer net with sinks whose footprint spans the
/// fewest tile-grid columns — the cheapest net to dirty.
fn narrowest_net(design: &Design, tile: i64) -> usize {
    let layer = LayerId(0);
    design
        .nets
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.sinks.is_empty() && n.segments.iter().any(|s| s.layer == layer))
        .min_by_key(|(_, n)| {
            let xs = n
                .segments
                .iter()
                .filter(|s| s.layer == layer)
                .flat_map(|s| [s.start.x, s.end.x]);
            let lo = xs.clone().min().unwrap_or(0);
            let hi = xs.max().unwrap_or(0);
            hi.div_euclid(tile) - lo.div_euclid(tile)
        })
        .map(|(ni, _)| ni)
        .expect("a net with sinks on the fill layer")
}

/// Open-loop load generation against an in-process fill service on a
/// unix socket.
///
/// Eight client threads each drive one connection: a cold inline upload
/// of a per-client design followed by warm by-hash repeats. Send times
/// are fixed on a global interleaved schedule *before* the run, so a
/// slow reply pushes later sends past their scheduled instants and the
/// lateness is charged to their latency — the open-loop discipline that
/// avoids coordinated omission. Afterwards a sequential probe measures
/// `serve/cold_ns` (fresh design, full build) against
/// `serve/warm_edit_ns` (one-net edit riding the cached context through
/// `FlowContext::rebuild`).
fn serve_load_metrics(quick: bool) -> Vec<(&'static str, u64)> {
    use pilfill_serve::protocol::{design_hash, DesignRef, EditOp, FillParams, FillStatus, Reply};
    use pilfill_serve::{Client, ServeOptions, Server};
    use std::time::{Duration, Instant};

    let sock =
        std::env::temp_dir().join(format!("pilfill-bench-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let spec = format!("unix:{}", sock.display());
    let server = Server::bind(&spec, &ServeOptions::default()).expect("bind serve socket");
    let server_thread = std::thread::spawn(move || server.run());

    const CLIENTS: usize = 8;
    let per_client: usize = if quick { 4 } else { 16 };
    let interval = Duration::from_millis(if quick { 3 } else { 2 });
    // Greedy placement keeps each request small enough that the stream,
    // not one solve, dominates the measurement.
    let mut params = FillParams::new(8_000, 2).expect("params");
    params.method = 1;
    let reply_timeout = Duration::from_secs(60);

    // Scheduled epoch: every client waits for it, so the interleaved
    // send schedule is shared and the rate is fixed up front.
    let start = Instant::now() + Duration::from_millis(50);
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let spec = spec.clone();
        let params = params.clone();
        handles.push(std::thread::spawn(move || {
            let seed = 400 + u64::try_from(c).unwrap_or(0);
            let design = synthesize(&SynthConfig::small_test(seed));
            let text = design.to_text();
            let hash = design_hash(&design);
            let mut client = Client::connect_retry(&spec, Duration::from_secs(5)).expect("connect");
            let mut latencies = Vec::with_capacity(per_client);
            let mut warm = 0u64;
            for i in 0..per_client {
                let slot = u32::try_from(i * CLIENTS + c).unwrap_or(u32::MAX);
                let due = start + interval * slot;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let design_ref = if i == 0 {
                    DesignRef::Inline(text.clone())
                } else {
                    DesignRef::Hash(hash)
                };
                let reply = client
                    .fill_retry(&design_ref, &params, reply_timeout)
                    .expect("fill reply");
                let served = Instant::now();
                match reply {
                    Reply::FillOk { status, .. } => {
                        if status == FillStatus::Warm {
                            warm += 1;
                        }
                    }
                    other => panic!("unexpected load reply: {other:?}"),
                }
                latencies
                    .push(u64::try_from(served.duration_since(due).as_nanos()).unwrap_or(u64::MAX));
            }
            (latencies, warm)
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut warm_hits = 0u64;
    for handle in handles {
        let (lat, warm) = handle.join().expect("load client");
        latencies.extend(lat);
        warm_hits += warm;
    }
    let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    let total = u64::try_from(latencies.len()).unwrap_or(0);
    let rps = total
        .saturating_mul(1_000_000_000)
        .checked_div(elapsed_ns.max(1))
        .unwrap_or(0);
    let warm_permille = warm_hits
        .saturating_mul(1000)
        .checked_div(total.max(1))
        .unwrap_or(0);

    // Cold build vs served warm-edit rebuild, same host, same server.
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let mut client = Client::connect_retry(&spec, Duration::from_secs(5)).expect("connect");
    let rounds: u64 = if quick { 2 } else { 5 };
    // Probe on T1: big enough that context construction dominates a cold
    // request, so the edited repeat — which rides the cached context
    // through `FlowContext::rebuild` and re-solves only the dirtied
    // tiles — shows the cache's real payoff. A per-round config seed
    // forces a fresh context cache key (a genuine cold build) while the
    // paired edit lands on exactly that entry.
    let t1 = synthesize(&SynthConfig::t1());
    let t1_text = t1.to_text();
    let t1_hash = design_hash(&t1);
    let mut probe = FillParams::new(32_000, 2).expect("probe params");
    probe.method = 1;
    let mut cold_ns: Vec<u64> = Vec::new();
    let mut warm_edit_ns: Vec<u64> = Vec::new();
    for k in 0..rounds {
        probe.seed = 7000 + k;
        match client
            .fill_retry(&DesignRef::Inline(t1_text.clone()), &probe, reply_timeout)
            .expect("cold reply")
        {
            Reply::FillOk {
                status: FillStatus::Cold,
                server_ns,
                ..
            } => cold_ns.push(server_ns),
            other => panic!("expected a cold fill, got {other:?}"),
        }
        let edit = DesignRef::Edit {
            base: t1_hash,
            ops: vec![EditOp::DupSink {
                net: u32::try_from(narrowest_net(&t1, 32_000 / 2)).unwrap_or(0),
            }],
        };
        match client
            .fill_retry(&edit, &probe, reply_timeout)
            .expect("edit reply")
        {
            Reply::FillOk {
                status: FillStatus::RebuildIncr | FillStatus::RebuildFull,
                server_ns,
                ..
            } => warm_edit_ns.push(server_ns),
            other => panic!("expected an edit rebuild, got {other:?}"),
        }
    }
    let cold = median(&mut cold_ns);
    let warm_edit = median(&mut warm_edit_ns);
    println!(
        "serve-load: {total} requests, {rps} rps, warm ratio {warm_permille}‰, \
         cold {cold} ns vs warm-edit {warm_edit} ns ({:.1}x)",
        cold.max(1) as f64 / warm_edit.max(1) as f64 // pilfill: allow(as-cast)
    );

    assert!(client.shutdown().expect("shutdown"), "shutdown refused");
    server_thread.join().expect("server thread").expect("serve");

    vec![
        ("serve/rps", rps),
        ("serve/p50_ns", pct(50)),
        ("serve/p99_ns", pct(99)),
        ("serve/warm_hit_ratio", warm_permille),
        ("serve/cold_ns", cold),
        ("serve/warm_edit_ns", warm_edit),
    ]
}

fn main() {
    let opts = parse_args();
    let mut h = Harness::new();
    let (design, cfg, samples) = if opts.quick {
        let d = synthesize(&SynthConfig::small_test(21));
        (d, FlowConfig::new(8_000, 2).expect("config"), 3)
    } else {
        let d = synthesize(&SynthConfig::t2());
        (d, FlowConfig::new(32_000, 2).expect("config"), 7)
    };
    let t2 = &design;

    // Density: map construction and the prefix-sum-backed window analysis.
    let dissection = FixedDissection::new(t2.die, cfg.window, cfg.r).expect("dissection");
    h.bench("density/compute_map_t2", 2 * samples + 1, 1, || {
        DensityMap::compute(t2, LayerId(0), &dissection)
    });
    let map = DensityMap::compute(t2, LayerId(0), &dissection);
    h.bench("density/analyze_t2", 2 * samples + 1, 8, || map.analyze());

    // Scan-line core.
    let lines = extract_active_lines(t2, LayerId(0)).expect("lines");
    h.bench(
        "scanline/extract_active_lines_t2",
        2 * samples + 1,
        1,
        || extract_active_lines(t2, LayerId(0)).expect("lines"),
    );
    h.bench("scanline/scan_slack_columns_t2", 2 * samples + 1, 1, || {
        scan_slack_columns(&lines, t2.die, t2.rules)
    });

    // Flow preparation (context build: extraction + scan + tile problems +
    // budget), sequential baseline.
    h.bench("flow/context_build_t2", samples, 1, || {
        FlowContext::build(t2, &cfg).expect("context")
    });

    // Per-tile method solves on the hardest tile.
    let (tile, budget) = representative_tile(t2, &cfg);
    let methods: Vec<(&str, &dyn FillMethod)> = vec![
        ("normal", &NormalFill),
        ("greedy", &GreedyFill),
        ("ilp1", &IlpOne),
        ("ilp2", &IlpTwo),
        ("dp_exact", &DpExact),
    ];
    for (name, method) in methods {
        h.bench(&format!("tile/{name}"), samples + 2, 1, || {
            let mut rng = StdRng::seed_from_u64(1);
            method
                .place(&tile, budget, false, &mut rng)
                .expect("placement")
        });
    }

    // Solver effort counters (counts, not nanoseconds): one ILP-II solve
    // of the representative tile, reported verbatim. These catch solver
    // regressions — e.g. a pricing change that triples the pivot count —
    // that noisy wall-clock medians can absorb.
    let solver_stats = {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, stats) = IlpTwo
            .place_with_stats(&tile, budget, false, &mut rng)
            .expect("ilp2 stats");
        stats
    };

    // End-to-end flow (context reused, placement + assembly + evaluation).
    let ctx = FlowContext::build(t2, &cfg).expect("context");
    h.bench("flow/run_greedy_t2", samples, 1, || {
        ctx.run(&cfg, &GreedyFill).expect("run")
    });
    h.bench("flow/run_ilp2_t2", samples, 1, || {
        ctx.run(&cfg, &IlpTwo).expect("run")
    });

    // Fused pipeline: one call covers what `context_build` + `run_ilp2`
    // cover separately, so its figure competes with their *sum* — the
    // `_buildsolve` suffix marks it as build+solve so bench_compare.sh
    // diffs never pit it against the solve-only `flow/run_ilp2_t2`.
    let pool = WorkerPool::new(
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    h.bench("flow/run_streamed_buildsolve_ilp2_t2", samples, 1, || {
        run_flow_streamed(t2, &cfg, &IlpTwo, &pool).expect("streamed")
    });

    // The quick run checks its small design instead of T1.
    {
        let (t1, t1_cfg) = if opts.quick {
            (design.clone(), cfg.clone())
        } else {
            let c = FlowConfig::new(32_000, 2).expect("config");
            (synthesize(&SynthConfig::t1()), c)
        };
        let (_, fill) = run_flow_streamed(&t1, &t1_cfg, &IlpTwo, &pool).expect("t1 fill");
        h.bench("verify/check_fill_t1", 2 * samples + 1, 1, || {
            let report = check_fill(&t1, t1_cfg.layer, &fill.features);
            assert!(report.is_clean(), "flow output must pass DRC");
            report
        });
    }

    // Incremental rebuild with exactly one mutated net. Alternating
    // between the pristine design and its mutated copy keeps every timed
    // call a real single-net diff (a same-design rebuild would be a no-op).
    let mutated = mutated_copy(t2, dissection.tile_size());
    {
        let mut rctx = FlowContext::build(t2, &cfg).expect("context");
        let mut flip = false;
        h.bench("flow/rebuild_dirty1_t2", samples, 1, || {
            let target = if flip { t2 } else { &mutated };
            flip = !flip;
            let (stats, _) = rctx.rebuild(target, &cfg, &pool).expect("rebuild");
            assert!(!stats.full, "rebuild must take the incremental path");
            stats
        });
    }

    // Allocation counts (only with `--features bench`): how many heap
    // allocations one call of each flow entry point performs.
    let mut allocs: Vec<(&str, u64)> = Vec::new();
    if alloc_count::enabled() {
        let (_, build_allocs) =
            alloc_count::count(|| FlowContext::build(t2, &cfg).expect("context"));
        allocs.push(("allocs/context_build_t2", build_allocs));
        let (_, streamed_allocs) =
            alloc_count::count(|| run_flow_streamed(t2, &cfg, &IlpTwo, &pool).expect("streamed"));
        allocs.push(("allocs/run_streamed_buildsolve_ilp2_t2", streamed_allocs));
        // Warm-scratch hot paths: after one priming call both must run
        // allocation-free (the scan emits into a retained Vec, the density
        // fold into retained area/prefix buffers).
        let mut scan_scratch = ScanScratch::default();
        let mut cols = Vec::new();
        scan_slack_columns_into(&lines, t2.die, t2.rules, &mut scan_scratch, &mut cols);
        let (_, scan_allocs) = alloc_count::count(|| {
            scan_slack_columns_into(&lines, t2.die, t2.rules, &mut scan_scratch, &mut cols)
        });
        allocs.push(("allocs/scan_slack_columns_t2", scan_allocs));
        let mut warm_map = DensityMap::compute(t2, LayerId(0), &dissection);
        warm_map.recompute(t2, LayerId(0));
        let (_, map_allocs) = alloc_count::count(|| warm_map.recompute(t2, LayerId(0)));
        allocs.push(("allocs/compute_map_t2", map_allocs));
    }

    if opts.sweep {
        // Persistent pools: workers are spawned once per thread count,
        // outside the timed region, so the sweep measures steady-state
        // dispatch rather than thread spawn-up.
        for n in SWEEP_THREADS {
            let pool = WorkerPool::new(n);
            h.bench(
                &format!("flow/context_build_parallel{n}_t2"),
                samples,
                1,
                || FlowContext::build_pool(t2, &cfg, &pool).expect("context"),
            );
            h.bench(&format!("flow/run_parallel{n}_ilp2_t2"), samples, 1, || {
                ctx.run_pool(&cfg, &IlpTwo, &pool).expect("run")
            });
        }
    } else {
        // Legacy single-point parallel keys (the sweep supersedes these).
        let pool = WorkerPool::new(4);
        h.bench("flow/context_build_parallel4_t2", samples, 1, || {
            FlowContext::build_pool(t2, &cfg, &pool).expect("context")
        });
        h.bench("flow/run_parallel4_ilp2_t2", samples, 1, || {
            ctx.run_pool(&cfg, &IlpTwo, &pool).expect("run")
        });
    }

    let mut report = Json::object();
    report.insert("schema", Json::Str("pilfill-bench/median_ns/v1".into()));
    let host = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    report.insert(
        "host_parallelism",
        Json::UInt(u64::try_from(host).unwrap_or(0)),
    );
    let mut metrics = Json::object();
    for m in h.results() {
        metrics.insert(&m.name, Json::UInt(m.median_ns));
    }
    report.insert("median_ns", metrics);
    if opts.sweep {
        // Multicore scaling in permille: the 1-lane median over the N-lane
        // median (2000 = a clean 2x). Derived, so bench_compare.sh can diff
        // speedups directly instead of re-deriving them from raw medians;
        // meaningless across different host_parallelism values.
        let median = |name: &str| {
            h.results()
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.median_ns)
        };
        let mut scaling = Json::object();
        for (label, pattern) in [
            ("run_ilp2_t2", "flow/run_parallel{n}_ilp2_t2"),
            ("context_build_t2", "flow/context_build_parallel{n}_t2"),
        ] {
            let base = median(&pattern.replace("{n}", "1"));
            for n in SWEEP_THREADS.iter().skip(1) {
                let lane = median(&pattern.replace("{n}", &n.to_string()));
                if let (Some(base), Some(lane)) = (base, lane) {
                    if let Some(permille) = (base * 1000).checked_div(lane) {
                        scaling.insert(
                            &format!("scaling/{label}/speedup@{n}"),
                            Json::UInt(permille),
                        );
                    }
                }
            }
        }
        report.insert("scaling", scaling);
    }
    if !allocs.is_empty() {
        let mut counts = Json::object();
        for (name, n) in &allocs {
            counts.insert(name, Json::UInt(*n));
        }
        report.insert("allocs", counts);
    }
    {
        let mut solver = Json::object();
        for (name, n) in [
            ("solver/iters_ilp2_t2", solver_stats.pivots),
            ("solver/refactor_count_t2", solver_stats.refactorizations),
            ("solver/bb_nodes_ilp2_t2", solver_stats.nodes),
        ] {
            solver.insert(name, Json::UInt(u64::try_from(n).unwrap_or(0)));
        }
        report.insert("solver", solver);
    }
    if opts.serve_load {
        let mut serve = Json::object();
        for (name, v) in serve_load_metrics(opts.quick) {
            serve.insert(name, Json::UInt(v));
        }
        report.insert("serve", serve);
    }
    std::fs::write(&opts.out, report.to_pretty_string()).expect("write report");
    println!("wrote {}", opts.out);
}
