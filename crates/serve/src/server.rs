//! The fill server: accept loop, per-connection protocol loop, and the
//! request engine composing the [`FairPool`] scheduler with the design
//! and context caches.
//!
//! ## Serving path of a fill request
//!
//! 1. *Resolve* the design reference — parse an inline design, look a
//!    hash up in the design store, or apply edit ops to a cached base.
//! 2. *Check out* the `(design name, config)` context entry from the
//!    LRU. Hash match → warm; hash mismatch → `rebuild` (incremental or
//!    full); miss → cold `build`. Builds and rebuilds run as exclusive
//!    turns on the fair scheduler.
//! 3. *Solve* only the tiles without cached counts, as fair-share
//!    batches interleaved with other in-flight requests; everything
//!    else replays cached per-tile counts — bit-identical by the
//!    per-tile seeding invariant.
//! 4. *Assemble* the outcome and check the context (plus the solved
//!    counts) back in.
//!
//! Admission control lives in the scheduler: when too many requests are
//! in flight, submissions fail fast and the client sees a `Busy` reply
//! instead of unbounded queueing. Density and verify requests run as
//! exclusive scheduler turns, so they are governed by the same
//! `max_inflight` bound as fills — no request type bypasses admission.
//! The accept loop itself is bounded too: beyond `max_conns` live
//! connections, new ones are turned away with an immediate `Busy`
//! reply, and finished connection threads are reaped every accept pass.
//! A per-connection watcher thread peeks
//! the socket and raises an abort flag when the client disconnects, so
//! a dead client's tile batches stop at the next batch boundary instead
//! of running (and blocking the pool) to completion.

use crate::cache::{CtxCache, CtxEntry, DesignStore, SolvedTiles};
use crate::net::{Listener, Stream};
use crate::protocol::{
    apply_edits, decode_request, design_hash, edit_hash, encode_outcome_blob, encode_reply,
    write_frame, DesignKey, DesignRef, FillParams, FillStatus, FrameProgress, FrameReader, Reply,
    Request, ERR_ABORTED, ERR_DESIGN, ERR_FLOW, ERR_PROTOCOL, ERR_UNKNOWN_DESIGN,
};
use pilfill_core::flow::{FlowConfig, FlowContext, RebuildDirt};
use pilfill_core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_core::{check_fill, FillFeature};
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_exec::{FairError, FairOptions, FairPool};
use pilfill_layout::{Design, LayerId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Placement methods by wire index (see
/// [`crate::protocol::METHOD_NAMES`]).
const METHODS: [&(dyn FillMethod + Sync); 5] =
    [&NormalFill, &GreedyFill, &IlpOne, &IlpTwo, &DpExact];

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker lanes for tile solving (0 = host parallelism).
    pub lanes: usize,
    /// Tile batches a request may claim per scheduling turn.
    pub quota: usize,
    /// Admission cap: scheduler submissions in flight before `Busy`.
    pub max_inflight: usize,
    /// Contexts kept warm in the LRU.
    pub ctx_cache_cap: usize,
    /// Parsed designs kept in the store.
    pub design_cache_cap: usize,
    /// Concurrent connections served before new ones are turned away
    /// with a `Busy` reply (each connection costs two threads).
    pub max_conns: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lanes: 0,
            quota: 4,
            max_inflight: 32,
            ctx_cache_cap: 8,
            design_cache_cap: 16,
            max_conns: 256,
        }
    }
}

/// Rides out lock poisoning: a panicking request thread must not take
/// the whole server down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The request engine: fair scheduler + caches, shared by every
/// connection thread.
pub(crate) struct Engine {
    fair: FairPool,
    designs: Mutex<DesignStore>,
    ctxs: Mutex<CtxCache>,
}

impl Engine {
    pub(crate) fn new(opts: &ServeOptions) -> Engine {
        let lanes = match opts.lanes {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        Engine {
            fair: FairPool::with_options(
                FairOptions::new(lanes)
                    .quota(opts.quota)
                    .max_inflight(opts.max_inflight),
            ),
            designs: Mutex::new(DesignStore::new(opts.design_cache_cap)),
            ctxs: Mutex::new(CtxCache::new(opts.ctx_cache_cap)),
        }
    }

    /// Handles one decoded request. Never panics outward: the caller
    /// wraps this in `catch_unwind` and answers `Err` on a panic.
    pub(crate) fn handle(&self, req: &Request, abort: &AtomicBool) -> Reply {
        match req {
            Request::Fill { design, params } => self.fill(design, params, abort),
            Request::Density {
                design,
                layer,
                window,
                r,
            } => self.density(design, *layer, *window, *r),
            Request::Verify {
                design,
                layer,
                features,
            } => self.verify(design, *layer, features),
            // The connection loop intercepts shutdowns; answering one
            // here would claim an authority the engine doesn't have.
            Request::Shutdown => Reply::Err {
                code: ERR_PROTOCOL,
                message: "shutdown must be handled by the connection loop".to_string(),
            },
        }
    }

    /// Resolves a design reference to `(store key, design)`.
    fn resolve(&self, dref: &DesignRef) -> Result<(DesignKey, Arc<Design>), Reply> {
        match dref {
            DesignRef::Inline(text) => {
                let design = Design::from_text(text).map_err(|e| Reply::Err {
                    code: ERR_DESIGN,
                    message: e.to_string(),
                })?;
                let hash = design_hash(&design);
                let design = Arc::new(design);
                lock(&self.designs).put(hash, Arc::clone(&design));
                Ok((hash, design))
            }
            DesignRef::Hash(hash) => match lock(&self.designs).get(*hash) {
                Some(design) => Ok((*hash, design)),
                None => Err(Reply::Err {
                    code: ERR_UNKNOWN_DESIGN,
                    message: format!("design {hash} not in store"),
                }),
            },
            DesignRef::Edit { base, ops } => {
                let hash = edit_hash(*base, ops);
                let mut designs = lock(&self.designs);
                if let Some(design) = designs.get(hash) {
                    return Ok((hash, design));
                }
                let base_design = designs.get(*base).ok_or_else(|| Reply::Err {
                    code: ERR_UNKNOWN_DESIGN,
                    message: format!("edit base {base} not in store"),
                })?;
                let mut design = (*base_design).clone();
                apply_edits(&mut design, ops).map_err(|message| Reply::Err {
                    code: ERR_DESIGN,
                    message,
                })?;
                let design = Arc::new(design);
                designs.put(hash, Arc::clone(&design));
                Ok((hash, design))
            }
        }
    }

    fn fill(&self, dref: &DesignRef, params: &FillParams, abort: &AtomicBool) -> Reply {
        let start = Instant::now();
        let config = match params.to_config() {
            Ok(c) => c,
            Err(message) => {
                return Reply::Err {
                    code: ERR_PROTOCOL,
                    message,
                }
            }
        };
        let method = METHODS[usize::from(params.method)]; // validated by to_config
        let (hash, design) = match self.resolve(dref) {
            Ok(r) => r,
            Err(reply) => return reply,
        };

        // Warm / rebuild / cold: get a context reflecting `design`.
        let checked_out = lock(&self.ctxs).checkout(&design.name, &config);
        let (mut entry, status) = match checked_out {
            Some(entry) if entry.design_hash == hash => (entry, FillStatus::Warm),
            Some(entry) => match self.rebuild_entry(entry, hash, &design, &config) {
                Ok(pair) => pair,
                Err(reply) => return reply,
            },
            None => match self.build_entry(hash, &design, &config) {
                Ok(entry) => (entry, FillStatus::Cold),
                Err(reply) => return reply,
            },
        };

        // Solve what the cache doesn't cover, fairly interleaved.
        let n = entry.ctx.problems().len();
        let mut solved = match entry.solved.take() {
            Some(s) if s.method == params.method && s.counts.len() == n => s,
            _ => SolvedTiles {
                method: params.method,
                counts: {
                    let mut v: Vec<Option<Vec<u32>>> = Vec::new();
                    v.resize_with(n, || None);
                    v
                },
            },
        };
        let needed: Vec<usize> = (0..n).filter(|&i| solved.counts[i].is_none()).collect();
        if !needed.is_empty() {
            let mut slots: Vec<Option<Result<Vec<u32>, String>>> = Vec::new();
            slots.resize_with(needed.len(), || None);
            let ctx = &entry.ctx;
            let run = self.fair.run_slots(
                &mut slots,
                |k, slot| {
                    *slot = Some(
                        ctx.solve_tile(&config, method, needed[k])
                            .map(|(counts, _)| counts)
                            .map_err(|e| e.to_string()),
                    );
                },
                Some(abort),
            );
            // Whatever finished is kept — an aborted request still warms
            // the cache for its successors.
            let mut failure: Option<String> = None;
            for (k, slot) in slots.into_iter().enumerate() {
                match slot {
                    Some(Ok(counts)) => solved.counts[needed[k]] = Some(counts),
                    Some(Err(e)) => failure = Some(e),
                    None => {}
                }
            }
            entry.solved = Some(solved);
            match run {
                Ok(_) if failure.is_none() => {}
                Ok(_) => {
                    self.checkin(entry);
                    return Reply::Err {
                        code: ERR_FLOW,
                        // failure is Some in this arm. pilfill: allow(unwrap)
                        message: failure.expect("solve failure recorded"),
                    };
                }
                Err(FairError::Busy { inflight }) => {
                    self.checkin(entry);
                    return Reply::Busy {
                        inflight: u32::try_from(inflight).unwrap_or(u32::MAX),
                    };
                }
                Err(FairError::Aborted) => {
                    self.checkin(entry);
                    return Reply::Err {
                        code: ERR_ABORTED,
                        message: "request aborted (client disconnected)".to_string(),
                    };
                }
            }
        } else {
            entry.solved = Some(solved);
        }

        // Assemble from the (now complete) per-tile counts. Cached solve
        // times are not replayed — the blob excludes timing, so replay
        // stays byte-identical to a fresh solve.
        let per_tile: Vec<(usize, Vec<u32>, Duration)> = {
            // Every index in 0..n is Some: `needed` covered the gaps and
            // the error paths returned above. pilfill: allow(unwrap)
            let solved = entry.solved.as_ref().expect("solved cached above");
            (0..n)
                .map(|i| {
                    // pilfill: allow(unwrap)
                    let counts = solved.counts[i].clone().expect("tile solved");
                    (i, counts, Duration::ZERO)
                })
                .collect()
        };
        let outcome = match entry.ctx.finish_run(method.name(), per_tile) {
            Ok(o) => o,
            Err(e) => {
                self.checkin(entry);
                return Reply::Err {
                    code: ERR_FLOW,
                    message: e.to_string(),
                };
            }
        };
        self.checkin(entry);
        let blob = encode_outcome_blob(&outcome);
        Reply::FillOk {
            status,
            server_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            design_hash: hash,
            blob,
        }
    }

    /// Rebuilds a checked-out entry for an edited design, invalidating
    /// exactly the cached tiles the rebuild dirtied.
    fn rebuild_entry(
        &self,
        mut entry: CtxEntry,
        hash: DesignKey,
        design: &Design,
        config: &FlowConfig,
    ) -> Result<(CtxEntry, FillStatus), Reply> {
        let rebuilt = self
            .fair
            .with_pool(|pool| entry.ctx.rebuild_owned(design, config, pool));
        match rebuilt {
            Ok(Ok((stats, dirt))) => {
                entry.design_hash = hash;
                match dirt {
                    RebuildDirt::All => entry.solved = None,
                    RebuildDirt::Tiles(dirty) => {
                        if let Some(s) = &mut entry.solved {
                            for &t in &dirty {
                                if let Some(slot) = s.counts.get_mut(t) {
                                    *slot = None;
                                }
                            }
                        }
                    }
                }
                let status = if stats.full {
                    FillStatus::RebuildFull
                } else {
                    FillStatus::RebuildIncr
                };
                Ok((entry, status))
            }
            Ok(Err(e)) => {
                // A failed rebuild leaves the context on its previous
                // design (the incremental path fails before mutating;
                // the full path fails before replacing) — safe to keep.
                self.checkin(entry);
                Err(Reply::Err {
                    code: ERR_FLOW,
                    message: e.to_string(),
                })
            }
            Err(fair) => {
                self.checkin(entry);
                Err(busy_or_aborted(&fair))
            }
        }
    }

    /// Cold-builds a fresh entry as an exclusive scheduler turn.
    fn build_entry(
        &self,
        hash: DesignKey,
        design: &Design,
        config: &FlowConfig,
    ) -> Result<CtxEntry, Reply> {
        let built = self
            .fair
            .with_pool(|pool| FlowContext::build_pool(design, config, pool));
        match built {
            Ok(Ok(ctx)) => Ok(CtxEntry {
                name: design.name.clone(),
                config: config.clone(),
                design_hash: hash,
                ctx: ctx.into_owned(),
                solved: None,
            }),
            Ok(Err(e)) => Err(Reply::Err {
                code: ERR_FLOW,
                message: e.to_string(),
            }),
            Err(fair) => Err(busy_or_aborted(&fair)),
        }
    }

    fn checkin(&self, entry: CtxEntry) {
        lock(&self.ctxs).checkin(entry);
    }

    fn density(&self, dref: &DesignRef, layer: u32, window: i64, r: u64) -> Reply {
        let (hash, design) = match self.resolve(dref) {
            Ok(r) => r,
            Err(reply) => return reply,
        };
        let r = match usize::try_from(r) {
            Ok(r) => r,
            Err(_) => {
                return Reply::Err {
                    code: ERR_PROTOCOL,
                    message: format!("r {r} out of range"),
                }
            }
        };
        let dissection = match FixedDissection::new(design.die, window, r) {
            Ok(d) => d,
            Err(e) => {
                return Reply::Err {
                    code: ERR_FLOW,
                    message: e.to_string(),
                }
            }
        };
        let layer = LayerId(usize::try_from(layer).unwrap_or(usize::MAX));
        // One exclusive scheduler turn: density analysis counts against
        // `max_inflight` and yields `Busy` under load, like any other
        // request — admission control must not have a side door.
        let computed = self
            .fair
            .with_pool(|_| DensityMap::compute(&design, layer, &dissection).analyze());
        let analysis = match computed {
            Ok(a) => a,
            Err(fair) => return busy_or_aborted(&fair),
        };
        Reply::DensityOk {
            design_hash: hash,
            analysis: (
                analysis.min_window_density,
                analysis.max_window_density,
                analysis.variation,
                analysis.mean_window_density,
            ),
        }
    }

    fn verify(&self, dref: &DesignRef, layer: u32, features: &[(i64, i64)]) -> Reply {
        let (hash, design) = match self.resolve(dref) {
            Ok(r) => r,
            Err(reply) => return reply,
        };
        let features: Vec<FillFeature> = features
            .iter()
            .map(|&(x, y)| FillFeature { x, y })
            .collect();
        let layer = LayerId(usize::try_from(layer).unwrap_or(usize::MAX));
        // Same admission discipline as density: the DRC sweep takes an
        // exclusive scheduler turn instead of free-riding on the
        // connection thread.
        let report = match self
            .fair
            .with_pool(|_| check_fill(&design, layer, &features))
        {
            Ok(r) => r,
            Err(fair) => return busy_or_aborted(&fair),
        };
        Reply::VerifyOk {
            design_hash: hash,
            checked: u64::try_from(report.checked).unwrap_or(u64::MAX),
            violations: report.violations.iter().map(|v| v.to_string()).collect(),
        }
    }
}

fn busy_or_aborted(e: &FairError) -> Reply {
    match *e {
        FairError::Busy { inflight } => Reply::Busy {
            inflight: u32::try_from(inflight).unwrap_or(u32::MAX),
        },
        FairError::Aborted => Reply::Err {
            code: ERR_ABORTED,
            message: "request aborted (client disconnected)".to_string(),
        },
    }
}

/// A bound fill server. [`Server::run`] blocks until a client sends a
/// shutdown request.
pub struct Server {
    listener: Listener,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    addr: String,
    max_conns: usize,
}

impl Server {
    /// Binds to `spec` (`unix:PATH`, a socket path, or TCP `host:port`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(spec: &str, opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = Listener::bind(spec)?;
        let addr = listener.addr();
        Ok(Server {
            listener,
            engine: Arc::new(Engine::new(opts)),
            shutdown: Arc::new(AtomicBool::new(false)),
            addr,
            max_conns: opts.max_conns.max(1),
        })
    }

    /// The spec clients should connect to (resolves TCP port 0 to the
    /// actual port; unix paths come back as `unix:PATH`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Serves until a shutdown request arrives, then joins every
    /// connection thread and removes the unix socket file (if any).
    ///
    /// The loop blocks in `accept`, so a connection is picked up as soon
    /// as it arrives; the connection that takes a shutdown request wakes
    /// the loop with a connection of its own.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than an interrupted call.
    pub fn run(self) -> std::io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let addr: Arc<str> = Arc::from(self.addr.as_str());
        let result = loop {
            match self.listener.accept() {
                Ok(mut stream) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break Ok(());
                    }
                    // Reap finished connection threads on every accept: a
                    // long-lived daemon churning through short-lived
                    // connections must not accumulate handles (and their
                    // thread resources) until shutdown.
                    conns.retain(|conn| !conn.is_finished());
                    if conns.len() >= self.max_conns {
                        // Same pushback contract as scheduler admission:
                        // an immediate Busy reply, then the connection is
                        // turned away — never an unbounded thread herd.
                        let inflight = u32::try_from(conns.len()).unwrap_or(u32::MAX);
                        let _ = write_frame(&mut stream, &encode_reply(&Reply::Busy { inflight }));
                        continue;
                    }
                    let engine = Arc::clone(&self.engine);
                    let shutdown = Arc::clone(&self.shutdown);
                    let addr = Arc::clone(&addr);
                    conns.push(std::thread::spawn(move || {
                        serve_conn(stream, &engine, &shutdown, &addr);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        // Connection threads poll the shutdown flag between frames (and
        // their reads time out), so they all exit promptly.
        for conn in conns {
            let _ = conn.join();
        }
        if let Some(path) = self.listener.unix_path() {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Read timeout of the per-connection frame loop: long enough to make
/// polling cheap, short enough that shutdown is prompt.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Serves one connection until EOF, an abort or a shutdown; `addr` is the
/// server's own address, connected to once to wake its accept loop after
/// a shutdown request.
fn serve_conn(mut stream: Stream, engine: &Engine, shutdown: &Arc<AtomicBool>, addr: &str) {
    let _ = stream.set_read_timeout(Some(CONN_READ_TIMEOUT));
    // The watcher peeks a clone of the socket while a request is being
    // handled; EOF there means the client is gone, and the abort flag
    // stops the request's remaining tile batches.
    let abort = Arc::new(AtomicBool::new(false));
    let conn_done = Arc::new(AtomicBool::new(false));
    let watcher = stream.try_clone().ok().map(|peer| {
        let abort = Arc::clone(&abort);
        let done = Arc::clone(&conn_done);
        std::thread::spawn(move || watch_disconnect(&peer, &abort, &done))
    });

    // One resumable reader for the connection's whole lifetime: a read
    // timeout mid-frame keeps the partial bytes buffered, so the next
    // poll tick resumes the same frame instead of re-parsing payload
    // bytes as a length prefix (which would desync every later reply).
    let mut frames = FrameReader::new();
    loop {
        if shutdown.load(Ordering::Acquire) || abort.load(Ordering::Acquire) {
            break;
        }
        let payload = match frames.poll(&mut stream) {
            Ok(FrameProgress::Frame(payload)) => payload,
            // Idle and mid-frame ticks both loop back to the flag
            // checks; only the reader knows where the frame left off.
            Ok(FrameProgress::Idle | FrameProgress::Pending) => continue,
            Ok(FrameProgress::Eof) => break, // clean EOF
            Err(_) => break,
        };
        let reply = match decode_request(&payload) {
            Ok(Request::Shutdown) => {
                shutdown.store(true, Ordering::Release);
                crate::net::wake(addr);
                Reply::ShutdownOk
            }
            Ok(req) => {
                // A panic in a tile solve is re-raised in this thread by
                // the scheduler; turn it into an error reply instead of
                // silently dropping the connection.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.handle(&req, &abort)
                }));
                outcome.unwrap_or_else(|_| Reply::Err {
                    code: ERR_FLOW,
                    message: "request handler panicked".to_string(),
                })
            }
            Err(e) => Reply::Err {
                code: ERR_PROTOCOL,
                message: e.to_string(),
            },
        };
        let is_shutdown = matches!(reply, Reply::ShutdownOk);
        if write_frame(&mut stream, &encode_reply(&reply)).is_err() {
            break;
        }
        if is_shutdown {
            break;
        }
    }

    conn_done.store(true, Ordering::Release);
    if let Some(watcher) = watcher {
        let _ = watcher.join();
    }
}

/// Polls a cloned socket for peer EOF while its connection thread works.
/// `peek` never consumes, so running concurrently with the frame loop's
/// reads is safe; pipelined request bytes just show up as `Ok(n > 0)`.
fn watch_disconnect(peer: &Stream, abort: &Arc<AtomicBool>, done: &Arc<AtomicBool>) {
    let mut buf = [0u8; 1];
    while !done.load(Ordering::Acquire) {
        match peer.peek(&mut buf) {
            Ok(0) => {
                abort.store(true, Ordering::Release);
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                abort.store(true, Ordering::Release);
                break;
            }
        }
    }
}

/// Lists the methods table in sync with the wire names — a compile-time
/// cross-check lives in the tests below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::METHOD_NAMES;
    use pilfill_layout::synth::{synthesize, SynthConfig};

    #[test]
    fn method_table_matches_wire_names() {
        assert_eq!(METHODS.len(), METHOD_NAMES.len());
        // Wire name "ilp2" must select the method whose display name the
        // blob carries as "ILP-II" — same table order as the CLI.
        assert_eq!(METHODS[3].name(), "ILP-II");
        assert_eq!(METHODS[0].name(), "Normal");
    }

    /// Density and verify must share the fill path's admission control:
    /// with the single `max_inflight` slot occupied, both get `Busy`
    /// instead of running unbounded on the connection thread.
    #[test]
    fn density_and_verify_go_through_admission_control() {
        let opts = ServeOptions {
            lanes: 1,
            max_inflight: 1,
            ..ServeOptions::default()
        };
        let engine = Engine::new(&opts);
        let design = synthesize(&SynthConfig::small_test(3));
        let dref = DesignRef::Inline(design.to_text());

        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Occupy the only admission slot with a blocked exclusive
            // turn; nothing else may be admitted until it is released.
            s.spawn(|| {
                engine
                    .fair
                    .with_pool(move |_| {
                        entered_tx.send(()).expect("signal entry");
                        release_rx.recv().expect("await release");
                    })
                    .expect("exclusive turn");
            });
            entered_rx.recv().expect("occupant running");
            assert!(
                matches!(engine.density(&dref, 0, 8_000, 2), Reply::Busy { .. }),
                "density must be rejected while the scheduler is full"
            );
            assert!(
                matches!(engine.verify(&dref, 0, &[]), Reply::Busy { .. }),
                "verify must be rejected while the scheduler is full"
            );
            release_tx.send(()).expect("release occupant");
        });

        // With the slot free the same requests are served.
        assert!(matches!(
            engine.density(&dref, 0, 8_000, 2),
            Reply::DensityOk { .. }
        ));
        assert!(matches!(
            engine.verify(&dref, 0, &[]),
            Reply::VerifyOk { .. }
        ));
    }
}
