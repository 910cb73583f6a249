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
//! 3. *Replay* the entry's cached reply blob when it holds one for this
//!    method: its store is complete and nothing changed since the blob
//!    was encoded, so the request skips steps 4 and 5.
//! 4. *Solve* only the tiles the entry's [`TileCounts`] store lacks, as
//!    fair-share batches interleaved with other in-flight requests,
//!    straight into the store's spans; every other tile keeps its cached
//!    counts — bit-identical by the per-tile seeding invariant.
//! 5. *Assemble* the outcome from the complete store and encode its blob
//!    once, kept beside the store for later replays.
//! 6. *Check* the context (with its store and blob) back in, and send
//!    the reply: the length prefix, the `FillOk` head and the shared
//!    blob go to the socket in one vectored write, so no request copies
//!    the blob.
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

use crate::cache::{CtxCache, CtxEntry, DesignStore, Solved};
use crate::net::{Listener, Stream};
use crate::protocol::{
    apply_edits, decode_request, design_hash, edit_hash, encode_outcome_blob, encode_reply,
    fill_ok_head, write_frame, write_frame_parts, DesignKey, DesignRef, FillParams, FillStatus,
    FrameProgress, FrameReader, Reply, Request, ERR_ABORTED, ERR_DESIGN, ERR_FLOW, ERR_PROTOCOL,
    ERR_UNKNOWN_DESIGN,
};
use pilfill_core::flow::{FlowConfig, FlowContext, TileCounts};
use pilfill_core::methods::{DpExact, FillMethod, GreedyFill, IlpOne, IlpTwo, NormalFill};
use pilfill_core::{check_fill, FillFeature};
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_exec::{FairError, FairOptions, FairPool};
use pilfill_layout::{Design, LayerId};
use std::io::Write;
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

/// The engine's answer to one request. A fill's blob is shared with the
/// context cache, so a replayed reply copies nothing; every other reply
/// is a plain [`Reply`]. On the wire both are a [`Reply`] frame.
#[derive(Debug)]
pub(crate) enum Answer {
    /// A [`Reply::FillOk`] whose blob is shared; the fields are its.
    Fill {
        status: FillStatus,
        server_ns: u64,
        design_hash: DesignKey,
        blob: Arc<Vec<u8>>,
    },
    /// Any other reply.
    Reply(Reply),
}

impl From<Reply> for Answer {
    fn from(reply: Reply) -> Self {
        Answer::Reply(reply)
    }
}

/// The reply an answer stands for; the blob is copied only when the
/// cache still shares it.
#[cfg(test)]
impl From<Answer> for Reply {
    fn from(answer: Answer) -> Self {
        match answer {
            Answer::Fill {
                status,
                server_ns,
                design_hash,
                blob,
            } => Reply::FillOk {
                status,
                server_ns,
                design_hash,
                blob: Arc::unwrap_or_clone(blob),
            },
            Answer::Reply(reply) => reply,
        }
    }
}

impl Answer {
    /// Writes the answer as one frame, the bytes [`write_frame`] of
    /// [`encode_reply`] would write; a fill's head and blob go out in one
    /// vectored write, straight from the shared blob.
    fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        match self {
            Answer::Fill {
                status,
                server_ns,
                design_hash,
                blob,
            } => {
                let head = fill_ok_head(*status, *server_ns, design_hash, blob.len());
                write_frame_parts(w, &head, blob)
            }
            Answer::Reply(reply) => write_frame(w, &encode_reply(reply)),
        }
    }
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
    pub(crate) fn handle(&self, req: &Request, abort: &AtomicBool) -> Answer {
        let reply = match req {
            Request::Fill { design, params } => return self.fill(design, params, abort),
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
        };
        reply.into()
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

    fn fill(&self, dref: &DesignRef, params: &FillParams, abort: &AtomicBool) -> Answer {
        let start = Instant::now();
        let config = match params.to_config() {
            Ok(c) => c,
            Err(message) => {
                return Reply::Err {
                    code: ERR_PROTOCOL,
                    message,
                }
                .into()
            }
        };
        let (hash, design) = match self.resolve(dref) {
            Ok(r) => r,
            Err(reply) => return reply.into(),
        };

        // Warm / rebuild / cold: get a context reflecting `design`.
        let checked_out = lock(&self.ctxs).checkout(&design.name, &config);
        let (mut entry, status) = match checked_out {
            Some(entry) if entry.design_hash == hash => (entry, FillStatus::Warm),
            Some(entry) => match self.rebuild_entry(entry, hash, &design, &config) {
                Ok(pair) => pair,
                Err(reply) => return reply.into(),
            },
            None => match self.build_entry(hash, &design, &config) {
                Ok(entry) => (entry, FillStatus::Cold),
                Err(reply) => return reply.into(),
            },
        };

        // A complete store of this method that nothing has changed since
        // it was encoded replays its blob; anything else solves.
        let cached = entry.solved.as_ref().and_then(|s| s.replay(params.method));
        let blob = match cached {
            Some(blob) => Ok(blob),
            None => self.solve(&mut entry, &config, params.method, abort),
        };
        self.checkin(entry);
        match blob {
            Ok(blob) => Answer::Fill {
                status,
                server_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                design_hash: hash,
                blob,
            },
            Err(reply) => reply.into(),
        }
    }

    /// Solves the tiles `entry`'s store of `method` lacks, fairly
    /// interleaved, straight into the store, then assembles the complete
    /// store and encodes its blob, which the entry keeps for replay.
    /// Whatever finished is kept: an aborted request still warms the
    /// cache for its successors.
    fn solve(
        &self,
        entry: &mut CtxEntry,
        config: &FlowConfig,
        method: u8,
        abort: &AtomicBool,
    ) -> Result<Arc<Vec<u8>>, Reply> {
        let mut store = match entry.solved.take() {
            Some(solved) if solved.method == method => solved.store,
            _ => TileCounts::new(entry.ctx.problems()),
        };
        let fill = METHODS[usize::from(method)]; // validated by to_config
        let ctx = &entry.ctx;
        let mut slots = store.unsolved_slots();
        // A fully cached store does not queue for the scheduler.
        let refused = if slots.is_empty() {
            None
        } else {
            let solve = |_, slot: &mut _| ctx.solve_slot(config, fill, slot);
            self.fair.run_slots(&mut slots, solve, Some(abort)).err()
        };
        let failure = slots.into_iter().find_map(|slot| slot.error);
        let blob = match (refused, failure) {
            (Some(fair), _) => Err(busy_or_aborted(&fair)),
            (None, Some(e)) => Err(Reply::Err {
                code: ERR_FLOW,
                message: e.to_string(),
            }),
            (None, None) => Ok(Arc::new(encode_outcome_blob(
                &ctx.assemble(fill.name(), &store),
            ))),
        };
        entry.solved = Some(Solved {
            method,
            store,
            blob: blob.as_ref().ok().cloned(),
        });
        blob
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
                if let Some(solved) = &mut entry.solved {
                    solved.invalidate(&dirt, entry.ctx.problems());
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
        let answer = match decode_request(&payload) {
            Ok(Request::Shutdown) => {
                shutdown.store(true, Ordering::Release);
                crate::net::wake(addr);
                Reply::ShutdownOk.into()
            }
            Ok(req) => {
                // A panic in a tile solve is re-raised in this thread by
                // the scheduler; turn it into an error reply instead of
                // silently dropping the connection.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.handle(&req, &abort)
                }));
                outcome.unwrap_or_else(|_| {
                    Reply::Err {
                        code: ERR_FLOW,
                        message: "request handler panicked".to_string(),
                    }
                    .into()
                })
            }
            Err(e) => Reply::Err {
                code: ERR_PROTOCOL,
                message: e.to_string(),
            }
            .into(),
        };
        let is_shutdown = matches!(answer, Answer::Reply(Reply::ShutdownOk));
        if answer.write_to(&mut stream).is_err() {
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
    use crate::protocol::{EditOp, FillParams, METHOD_NAMES};
    use pilfill_core::flow::run_flow;
    use pilfill_layout::synth::{synthesize, SynthConfig};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    thread_local! {
        /// Set while the thread's allocations are being counted.
        static COUNTING: Cell<bool> = const { Cell::new(false) };
    }
    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    /// The largest allocation (or reallocation) counted.
    static LARGEST: AtomicUsize = AtomicUsize::new(0);

    /// A [`System`]-backed allocator that counts the `alloc`,
    /// `alloc_zeroed` and `realloc` events of threads inside [`count`]
    /// and notes the largest.
    struct CountingAlloc;

    impl CountingAlloc {
        fn note(size: usize) {
            if COUNTING.get() {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                LARGEST.fetch_max(size, Ordering::Relaxed);
            }
        }
    }

    // SAFETY: every method delegates directly to `System`, which upholds
    // the `GlobalAlloc` contract; the counters touch no allocator state.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::note(layout.size());
            // SAFETY: forwarded verbatim under the caller's contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::note(layout.size());
            // SAFETY: as in `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::note(new_size);
            // SAFETY: `ptr` came from `System` with `layout`, per the
            // caller's `realloc` contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr`/`layout` came from `System` underneath.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Runs `f` and returns its result with the number of allocations
    /// this thread made during it and the size of the largest.
    fn count<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        LARGEST.store(0, Ordering::Relaxed);
        COUNTING.set(true);
        let out = f();
        COUNTING.set(false);
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (out, allocs, LARGEST.load(Ordering::Relaxed))
    }

    /// A `VerifyOk` reply that claims as many violations as its frame
    /// could hold, but holds none, reserves no more than the frame: the
    /// decoder sizes its list by the bytes that arrived, not by the
    /// 24-byte `String`s the claimed count would take.
    #[test]
    fn verify_reply_reservation_is_bounded_by_the_frame() {
        use crate::protocol::{decode_reply, MSG_VERIFY_OK};
        const BODY: usize = 64 * 1024;
        let frame = |count: usize| {
            let mut payload = vec![MSG_VERIFY_OK];
            payload.extend_from_slice(&[0; DesignKey::LEN + 8]);
            payload.extend_from_slice(&u32::try_from(count).expect("count").to_le_bytes());
            // The first violation claims more bytes than the frame holds.
            payload.extend_from_slice(&u32::MAX.to_le_bytes());
            payload.resize(payload.len() - 4 + BODY, 0);
            payload
        };
        let payload = frame(BODY / 4);
        let (reply, allocs, largest) = count(|| decode_reply(&payload));
        let err = reply.expect_err("the first violation is truncated");
        assert!(err.to_string().contains("truncated"), "{err}");
        assert!(
            largest <= payload.len(),
            "a {} B frame reserved a {largest} B block ({allocs} allocations)",
            payload.len()
        );
        let err = decode_reply(&frame(BODY / 4 + 1)).expect_err("one too many");
        assert!(err.to_string().contains("exceeds frame"), "{err}");
    }

    /// The most allocations one warm fill, its reply frame included, may
    /// make whatever its tile count. A replay measures 0: the blob is
    /// shared and the frame's head lives on the stack.
    const WARM_FILL_ALLOCS: u64 = 2;

    /// A warm fill replays the cached blob, so its allocations do not
    /// grow with the number of tiles and none is as large as the blob:
    /// no assemble, no encode, and no copy on the way to the socket
    /// (nothing is solved, so the whole request runs on this thread).
    #[test]
    fn warm_fill_allocations_do_not_grow_with_the_tile_count() {
        let engine = Engine::new(&ServeOptions {
            lanes: 1,
            ..ServeOptions::default()
        });
        let design = synthesize(&SynthConfig::small_test(5));
        let inline = DesignRef::Inline(design.to_text());
        let never = AtomicBool::new(false);
        let mut tiles = Vec::new();
        for r in [2, 8] {
            let params = FillParams::new(8_000, r).expect("valid window");
            let Answer::Fill { design_hash, .. } = engine.fill(&inline, &params, &never) else {
                panic!("cold fill failed");
            };
            let (answer, allocs, largest) = count(|| {
                let answer = engine.fill(&DesignRef::Hash(design_hash), &params, &never);
                answer.write_to(&mut std::io::sink()).expect("write");
                answer
            });
            let Answer::Fill {
                status: FillStatus::Warm,
                blob,
                ..
            } = answer
            else {
                panic!("{answer:?}");
            };
            let config = params.to_config().expect("valid params");
            let entry = lock(&engine.ctxs)
                .checkout(&design.name, &config)
                .expect("cached");
            let n = entry.ctx.problems().len();
            engine.checkin(entry);
            assert!(
                allocs <= WARM_FILL_ALLOCS,
                "a warm fill over {n} tiles made {allocs} allocations"
            );
            assert!(
                largest < blob.len(),
                "a warm fill allocated {largest} bytes for a {} byte blob",
                blob.len()
            );
            tiles.push(n);
        }
        assert!(tiles[1] >= 4 * tiles[0], "tile counts {tiles:?}");
    }

    /// The fill blob the engine replies, asserting the serving status.
    fn served_blob(
        engine: &Engine,
        dref: &DesignRef,
        params: &FillParams,
        want: FillStatus,
    ) -> Vec<u8> {
        let reply = Reply::from(engine.fill(dref, params, &AtomicBool::new(false)));
        let Reply::FillOk { status, blob, .. } = reply else {
            panic!("fill failed: {reply:?}");
        };
        assert_eq!(status, want);
        blob
    }

    /// The one-shot flow's blob for `design` under `params`.
    fn one_shot_blob(design: &Design, params: &FillParams) -> Vec<u8> {
        let config = params.to_config().expect("valid params");
        let method = METHODS[usize::from(params.method)];
        encode_outcome_blob(&run_flow(design, &config, method).expect("one-shot"))
    }

    /// A two-lane engine with `base` served cold and then warm, so its
    /// entry holds a cached blob; returns the engine and the base's key.
    fn engine_with_cached_blob(base: &Design, params: &FillParams) -> (Engine, DesignKey) {
        let engine = Engine::new(&ServeOptions {
            lanes: 2,
            ..ServeOptions::default()
        });
        let inline = DesignRef::Inline(base.to_text());
        served_blob(&engine, &inline, params, FillStatus::Cold);
        let hash = design_hash(base);
        let warm = served_blob(&engine, &DesignRef::Hash(hash), params, FillStatus::Warm);
        assert_eq!(warm, one_shot_blob(base, params));
        (engine, hash)
    }

    /// `op` as an edit of `base` under key `base_hash`, and the design it
    /// yields.
    fn edit(base: &Design, base_hash: DesignKey, op: EditOp) -> (DesignRef, Design) {
        let ops = vec![op];
        let mut edited = base.clone();
        apply_edits(&mut edited, &ops).expect("valid edit");
        (
            DesignRef::Edit {
                base: base_hash,
                ops,
            },
            edited,
        )
    }

    /// After an incremental rebuild, neither the rebuild's reply nor the
    /// next warm hit replays the base design's blob.
    #[test]
    fn no_stale_blob_after_an_incremental_edit() {
        let base = synthesize(&SynthConfig::small_test(5));
        let params = FillParams::new(8_000, 2).expect("valid window");
        let (engine, hash) = engine_with_cached_blob(&base, &params);
        let widen = EditOp::WidenSegment {
            net: 0,
            seg: 0,
            delta: 40,
        };
        let (edit, edited) = edit(&base, hash, widen);
        let want = one_shot_blob(&edited, &params);
        assert_ne!(want, one_shot_blob(&base, &params), "the edit must show");
        let rebuilt = served_blob(&engine, &edit, &params, FillStatus::RebuildIncr);
        assert_eq!(rebuilt, want);
        assert_eq!(served_blob(&engine, &edit, &params, FillStatus::Warm), want);
    }

    /// Same after a full rebuild (a net-count change).
    #[test]
    fn no_stale_blob_after_a_full_rebuild() {
        let base = synthesize(&SynthConfig::small_test(5));
        let params = FillParams::new(8_000, 2).expect("valid window");
        let (engine, _) = engine_with_cached_blob(&base, &params);
        let mut fewer = base.clone();
        fewer.nets.pop();
        let want = one_shot_blob(&fewer, &params);
        assert_ne!(want, one_shot_blob(&base, &params), "the edit must show");
        let inline = DesignRef::Inline(fewer.to_text());
        let rebuilt = served_blob(&engine, &inline, &params, FillStatus::RebuildFull);
        assert_eq!(rebuilt, want);
        let by_hash = DesignRef::Hash(design_hash(&fewer));
        assert_eq!(
            served_blob(&engine, &by_hash, &params, FillStatus::Warm),
            want
        );
    }

    /// Switching methods on one context replays neither method's blob
    /// for the other, in either direction.
    #[test]
    fn no_stale_blob_after_a_method_switch() {
        let base = synthesize(&SynthConfig::small_test(5));
        let mut greedy = FillParams::new(8_000, 2).expect("valid window");
        greedy.method = 1;
        let (engine, hash) = engine_with_cached_blob(&base, &greedy);
        let by_hash = DesignRef::Hash(hash);
        let mut ilp2 = greedy.clone();
        ilp2.method = 3;
        for params in [&ilp2, &ilp2, &greedy, &greedy] {
            let want = one_shot_blob(&base, params);
            assert_eq!(
                served_blob(&engine, &by_hash, params, FillStatus::Warm),
                want
            );
        }
    }

    /// A rebuild whose solve is aborted leaves a partly solved store (a
    /// sink edit dirties only its net's tiles) and no blob: the next warm
    /// hit completes the store and replies the edited design's blob, not
    /// the base's.
    #[test]
    fn no_stale_blob_after_an_aborted_request() {
        let base = synthesize(&SynthConfig::small_test(5));
        let params = FillParams::new(8_000, 2).expect("valid window");
        let (engine, hash) = engine_with_cached_blob(&base, &params);
        let (edit, edited) = edit(&base, hash, EditOp::DupSink { net: 0 });
        assert_ne!(
            one_shot_blob(&edited, &params),
            one_shot_blob(&base, &params),
            "the edit must show"
        );
        let aborted = Reply::from(engine.fill(&edit, &params, &AtomicBool::new(true)));
        assert!(
            matches!(
                aborted,
                Reply::Err {
                    code: ERR_ABORTED,
                    ..
                }
            ),
            "{aborted:?}"
        );
        let config = params.to_config().expect("valid params");
        let mut entry = lock(&engine.ctxs)
            .checkout(&base.name, &config)
            .expect("cached");
        let solved = entry.solved.as_mut().expect("the aborted request's store");
        assert!(
            solved.blob.is_none(),
            "an aborted request must drop the blob"
        );
        let left = solved.store.unsolved_slots().len();
        let n = entry.ctx.problems().len();
        assert!(0 < left && left < n, "{left} of {n} tiles unsolved");
        engine.checkin(entry);
        let want = one_shot_blob(&edited, &params);
        assert_eq!(served_blob(&engine, &edit, &params, FillStatus::Warm), want);
        assert_eq!(served_blob(&engine, &edit, &params, FillStatus::Warm), want);
    }

    /// A writer that takes at most 7 bytes per call, across slices,
    /// receives exactly the bytes of the one-buffer frame.
    #[test]
    fn a_fill_frame_survives_partial_writes() {
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[std::io::IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
                let before = self.0.len();
                for buf in bufs {
                    let room = 7 - (self.0.len() - before);
                    self.0.extend_from_slice(&buf[..buf.len().min(room)]);
                }
                Ok(self.0.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let design = synthesize(&SynthConfig::small_test(5));
        let params = FillParams::new(8_000, 2).expect("valid window");
        let (engine, hash) = engine_with_cached_blob(&design, &params);
        let answer = engine.fill(&DesignRef::Hash(hash), &params, &AtomicBool::new(false));
        assert!(matches!(answer, Answer::Fill { .. }), "{answer:?}");
        let mut trickle = Trickle(Vec::new());
        answer.write_to(&mut trickle).expect("write");
        let mut want = Vec::new();
        write_frame(&mut want, &encode_reply(&Reply::from(answer))).expect("write");
        assert_eq!(trickle.0, want);
    }

    /// An aborted request keeps the tiles that finished before the abort;
    /// the next request solves only the rest, on the pool's lanes and
    /// straight into the store's spans, and replies the one-shot blob.
    #[test]
    fn partly_solved_store_completes_to_the_one_shot_blob() {
        let engine = Engine::new(&ServeOptions {
            lanes: 2,
            ..ServeOptions::default()
        });
        let design = synthesize(&SynthConfig::small_test(5));
        let params = FillParams::new(8_000, 2).expect("valid window");
        let config = params.to_config().expect("valid params");
        let method = METHODS[usize::from(params.method)];
        let want = one_shot_blob(&design, &params);

        // Aborted before its first batch: the context is cached with an
        // unsolved store.
        let inline = DesignRef::Inline(design.to_text());
        let aborted = Reply::from(engine.fill(&inline, &params, &AtomicBool::new(true)));
        assert!(
            matches!(
                aborted,
                Reply::Err {
                    code: ERR_ABORTED,
                    ..
                }
            ),
            "{aborted:?}"
        );
        // Aborted after its first batch, as the engine solves: the
        // batch's tiles stay solved.
        let mut entry = lock(&engine.ctxs)
            .checkout(&design.name, &config)
            .expect("cached");
        let store = &mut entry
            .solved
            .as_mut()
            .expect("the aborted request's store")
            .store;
        let abort = AtomicBool::new(false);
        let mut slots = store.unsolved_slots();
        let n = slots.len();
        let solve = |_, slot: &mut _| {
            entry.ctx.solve_slot(&config, method, slot);
            abort.store(true, Ordering::Relaxed);
        };
        let run = engine.fair.run_slots(&mut slots, solve, Some(&abort));
        assert_eq!(run.err(), Some(FairError::Aborted));
        drop(slots);
        let left = store.unsolved_slots().len();
        assert!(0 < left && left < n, "{left} of {n} tiles unsolved");
        let hash = entry.design_hash;
        engine.checkin(entry);

        let blob = served_blob(&engine, &DesignRef::Hash(hash), &params, FillStatus::Warm);
        assert_eq!(
            blob, want,
            "completed store must assemble the one-shot outcome"
        );
    }

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
