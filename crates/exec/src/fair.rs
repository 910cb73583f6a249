//! Fair-share scheduling of many concurrent requests onto one
//! [`WorkerPool`].
//!
//! The pool itself runs one job at a time: a submitter opens a job, every
//! lane drains its cursor, the submitter closes it. That is the right
//! shape for a single CLI run, but a serving daemon has many requests in
//! flight at once, and feeding them to the pool first-come-first-served
//! lets one T2-sized fill request starve every small density query behind
//! it.
//!
//! [`FairPool`] fixes that with a dispatcher thread and round-robin batch
//! quotas:
//!
//! - **Submitters block, the dispatcher runs.** Each request
//!   ([`FairPool::run`] / [`FairPool::run_slots`] /
//!   [`FairPool::with_pool`]) enqueues a descriptor and parks on a
//!   condvar. A single dispatcher thread owns the [`WorkerPool`] and is
//!   the only thread that ever submits pool jobs, so pool jobs never
//!   contend.
//! - **Round-robin quota slices.** The dispatcher repeatedly pops the
//!   front request, runs at most `quota` of its indices as one pool job,
//!   and re-queues it behind every other waiting request. A request with
//!   4 indices therefore completes within one full rotation even while a
//!   64-index request is in flight — bounded by quota-sized, not
//!   request-sized, head-of-line blocking.
//! - **Admission control.** At most `max_inflight` requests may be in
//!   flight; later submitters get [`FairError::Busy`] immediately instead
//!   of queueing without bound, which is the backpressure signal the
//!   serving layer turns into a `Busy` reply frame.
//! - **Cooperative abort.** A request submitted with an abort flag (the
//!   `abort` argument of [`FairPool::run_slots`]) is cancelled between
//!   batches once the flag is raised — the gate-abort protocol the
//!   streamed flow already uses — so a disconnected client releases its
//!   remaining turns instead of wedging the pool.
//!
//! Determinism is unaffected by any of this: the scheduler only decides
//! *when* index ranges run, never what they compute, and every index
//! still writes its own pre-partitioned slot. Results are bit-identical
//! for every lane count, quota, and request interleaving.
//!
//! The per-batch schedule can be recorded ([`FairOptions::batch_log`],
//! [`FairPool::take_batch_log`]) so tests can assert fairness properties
//! — e.g. that no small request's completion is delayed past a large
//! request's completion.

use crate::sync::thread::JoinHandle;
use crate::sync::{Condvar, Mutex};
use crate::{lock, wait_on, SlotWriter, WorkerPool};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Configuration for a [`FairPool`].
#[derive(Debug, Clone)]
pub struct FairOptions {
    lanes: usize,
    quota: usize,
    max_inflight: usize,
    batch_log: bool,
}

impl FairOptions {
    /// Options for a pool with `lanes` worker lanes, default quota (4
    /// indices per turn), default admission limit (32 requests), and the
    /// batch log disabled.
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: lanes.max(1),
            quota: 4,
            max_inflight: 32,
            batch_log: false,
        }
    }

    /// Sets the per-turn index quota (clamped to at least 1). Smaller
    /// quotas bound head-of-line blocking more tightly at the cost of
    /// more pool wakeups per request.
    pub fn quota(mut self, quota: usize) -> Self {
        self.quota = quota.max(1);
        self
    }

    /// Sets the admission limit: requests beyond this many in flight are
    /// rejected with [`FairError::Busy`] (clamped to at least 1).
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// Enables recording of every scheduled batch for later retrieval
    /// with [`FairPool::take_batch_log`].
    pub fn batch_log(mut self, on: bool) -> Self {
        self.batch_log = on;
        self
    }
}

/// A fair-share front end multiplexing many concurrent requests onto one
/// [`WorkerPool`]. See the module docs for the scheduling policy.
#[derive(Debug)]
pub struct FairPool {
    shared: Arc<FairShared>,
    dispatcher: Option<JoinHandle<()>>,
    /// Degraded mode when the dispatcher thread could not be spawned
    /// (resource exhaustion): requests run directly on the submitting
    /// thread against this pool — correct, just not interleaved.
    fallback: Option<WorkerPool>,
    lanes: usize,
    quota: usize,
    max_inflight: usize,
}

/// Receipt for a completed request: its scheduler id (matching
/// [`BatchRecord::request`]) and how many batch turns it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairRun {
    /// Scheduler-assigned request id.
    pub request: u64,
    /// Number of batch turns the request consumed.
    pub batches: usize,
}

/// Why a request did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairError {
    /// Admission control rejected the request: `inflight` requests were
    /// already in flight.
    Busy {
        /// Requests in flight at rejection time.
        inflight: usize,
    },
    /// The request's abort flag was raised before it finished; some
    /// indices may not have run.
    Aborted,
}

impl std::fmt::Display for FairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FairError::Busy { inflight } => {
                write!(f, "pool busy: {inflight} requests already in flight")
            }
            FairError::Aborted => write!(f, "request aborted before completion"),
        }
    }
}

impl std::error::Error for FairError {}

/// One scheduled batch, as recorded by the batch log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// The request the batch belonged to.
    pub request: u64,
    /// First index of the batch (0 for exclusive units).
    pub start: usize,
    /// Indices in the batch (0 for exclusive units).
    pub len: usize,
    /// Whether this was the request's final batch.
    pub last: bool,
}

#[derive(Debug)]
struct FairShared {
    state: Mutex<FairState>,
    /// The dispatcher parks here when the queue is empty.
    work_cv: Condvar,
    /// Submitters park here until their request is marked done.
    done_cv: Condvar,
}

#[derive(Debug)]
struct FairState {
    /// Round-robin turn order of in-flight request ids.
    queue: VecDeque<u64>,
    /// In-flight requests. Entries are removed by their own submitter
    /// after `done` is observed, so the dispatcher can always re-find a
    /// request it is mid-turn on.
    requests: Vec<(u64, Request)>,
    next_id: u64,
    /// Requests admitted and not yet retired (admission-control counter).
    inflight: usize,
    shutdown: bool,
    /// Batch schedule, when enabled.
    log: Option<Vec<BatchRecord>>,
}

#[derive(Debug)]
struct Request {
    work: Work,
    done: bool,
    aborted: bool,
    panic: Option<Box<dyn std::any::Any + Send>>,
    batches: usize,
}

#[derive(Debug)]
enum Work {
    /// An indexed job sliced into quota-sized turns.
    Indexed { job: IndexedRef, cursor: usize },
    /// A single-turn unit run with exclusive access to the pool.
    Exclusive { job: Option<ExclusiveRef> },
}

/// Type-erased pointer to the submitter's stack-held [`IndexedJob`]. The
/// submitter keeps the job alive until the dispatcher marks the request
/// done and the submitter itself removes the entry, which is what makes
/// handing this pointer to the dispatcher thread sound (the same
/// blocking-submitter argument as the pool's `JobRef`).
#[derive(Debug, Clone, Copy)]
struct IndexedRef(*const IndexedJob<'static>);

// SAFETY: the pointee is only dereferenced while the submitting thread
// blocks in `submit` keeping it alive (see `IndexedRef` docs), and
// `IndexedJob` only hands out `&self` to `Fn + Sync` closures and shared
// atomics.
unsafe impl Send for IndexedRef {}

/// Type-erased pointer to the submitter's stack-held [`ExclusiveJob`];
/// sound for the same blocking-submitter reason as [`IndexedRef`], and
/// additionally unique: the dispatcher takes the reference out of the
/// request before running it, so the `&mut` inside is never aliased.
#[derive(Debug)]
struct ExclusiveRef(*mut ExclusiveJob<'static>);

// SAFETY: see `ExclusiveRef` docs — the pointee outlives the dispatch
// (blocking submitter) and is dereferenced by exactly one thread.
unsafe impl Send for ExclusiveRef {}

struct IndexedJob<'a> {
    /// Total indices in the request.
    n: usize,
    /// The work: called exactly once per index in `0..n`.
    f: &'a (dyn Fn(usize) + Sync),
    /// Cooperative-abort flag, checked between batches.
    abort: Option<&'a AtomicBool>,
}

impl std::fmt::Debug for IndexedJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedJob").field("n", &self.n).finish()
    }
}

struct ExclusiveJob<'a> {
    f: Option<&'a mut (dyn FnMut(&WorkerPool) + Send)>,
}

impl std::fmt::Debug for ExclusiveJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExclusiveJob").finish()
    }
}

/// Index of request `id` in `requests`.
fn pos_of(requests: &[(u64, Request)], id: u64) -> usize {
    requests
        .iter()
        .position(|(rid, _)| *rid == id)
        // A request entry stays in `requests` until its own submitter
        // removes it after observing `done`. pilfill: allow(unwrap)
        .expect("in-flight request entry present")
}

impl FairPool {
    /// Creates a fair pool with `lanes` lanes and default options.
    pub fn new(lanes: usize) -> Self {
        Self::with_options(FairOptions::new(lanes))
    }

    /// Creates a fair pool from explicit [`FairOptions`].
    pub fn with_options(opts: FairOptions) -> Self {
        let shared = Arc::new(FairShared {
            state: Mutex::new(FairState {
                queue: VecDeque::new(),
                requests: Vec::new(),
                next_id: 0,
                inflight: 0,
                shutdown: false,
                log: if opts.batch_log {
                    Some(Vec::new())
                } else {
                    None
                },
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let lanes = opts.lanes;
        let quota = opts.quota;
        let dispatcher_shared = Arc::clone(&shared);
        let spawned = crate::sync::thread::Builder::new()
            .name("pilfill-fair".to_string())
            .spawn(move || {
                // The dispatcher owns the pool: it is the only thread
                // that ever submits pool jobs, so jobs never contend.
                let pool = WorkerPool::new(lanes);
                dispatcher_loop(&dispatcher_shared, &pool, quota);
            });
        let (dispatcher, fallback) = match spawned {
            Ok(handle) => (Some(handle), None),
            Err(_) => (None, Some(WorkerPool::new(lanes))),
        };
        Self {
            shared,
            dispatcher,
            fallback,
            lanes,
            quota,
            max_inflight: opts.max_inflight,
        }
    }

    /// The lane count of the underlying [`WorkerPool`].
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Requests currently in flight (admitted and not yet retired).
    pub fn inflight(&self) -> usize {
        lock(&self.shared.state).inflight
    }

    /// Runs `f(i)` exactly once for every `i` in `0..n`, interleaved
    /// fairly with other in-flight requests. Blocks until the request
    /// completes. Panics raised by `f` are re-raised here.
    pub fn run(&self, n: usize, f: impl Fn(usize) + Sync) -> Result<FairRun, FairError> {
        self.submit_indexed(n, &f, None)
    }

    /// Runs `f(i, &mut out[i])` exactly once for every slot of `out`,
    /// writing results to pre-partitioned disjoint slots — the fair-pool
    /// analogue of [`WorkerPool::for_each_slot`], with an optional abort
    /// flag. Results are bit-identical for every lane count, quota, and
    /// interleaving.
    pub fn run_slots<T: Send>(
        &self,
        out: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
        abort: Option<&AtomicBool>,
    ) -> Result<FairRun, FairError> {
        let slots = SlotWriter::new(out);
        let n = out.len();
        let job = move |i: usize| {
            // SAFETY: the scheduler claims each index exactly once across
            // all batches, so slot `i` is touched by exactly one thread,
            // and `i < out.len()` == the request size keeps it in bounds.
            unsafe { slots.with(i, |slot| f(i, slot)) };
        };
        self.submit_indexed(n, &job, abort)
    }

    /// Runs `f` once with exclusive access to the underlying pool, as a
    /// single scheduling turn. This is how context builds and rebuilds —
    /// which drive the pool through their own `run` calls — take their
    /// slice of the machine without interleaving inside the build.
    pub fn with_pool<R: Send>(
        &self,
        f: impl FnOnce(&WorkerPool) -> R + Send,
    ) -> Result<R, FairError> {
        if let Some(pool) = &self.fallback {
            return Ok(f(pool));
        }
        let mut f = Some(f);
        let mut out: Option<R> = None;
        {
            let mut call = |pool: &WorkerPool| {
                if let Some(f) = f.take() {
                    out = Some(f(pool));
                }
            };
            let mut job = ExclusiveJob { f: Some(&mut call) };
            let job_ref =
                ExclusiveRef(std::ptr::from_mut(&mut job).cast::<ExclusiveJob<'static>>());
            self.submit(Work::Exclusive { job: Some(job_ref) })?;
        }
        // The dispatcher ran the unit to completion without panicking
        // (a panic would have been re-raised above). pilfill: allow(unwrap)
        Ok(out.expect("exclusive unit ran"))
    }

    /// Drains and returns the batch log (empty when logging is off).
    pub fn take_batch_log(&self) -> Vec<BatchRecord> {
        let mut st = lock(&self.shared.state);
        match &mut st.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    fn submit_indexed(
        &self,
        n: usize,
        f: &(dyn Fn(usize) + Sync),
        abort: Option<&AtomicBool>,
    ) -> Result<FairRun, FairError> {
        if let Some(pool) = &self.fallback {
            // Degraded mode: slice inline so abort still takes effect
            // between batches.
            let mut start = 0;
            let mut batches = 0;
            while start < n {
                if abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
                    return Err(FairError::Aborted);
                }
                let end = (start + self.quota).min(n);
                pool.run(end - start, |k| f(start + k));
                batches += 1;
                start = end;
            }
            return Ok(FairRun {
                request: 0,
                batches,
            });
        }
        let job = IndexedJob { n, f, abort };
        let job_ref = IndexedRef(std::ptr::from_ref(&job).cast::<IndexedJob<'static>>());
        if n == 0 {
            let mut st = lock(&self.shared.state);
            if st.inflight >= self.max_inflight {
                return Err(FairError::Busy {
                    inflight: st.inflight,
                });
            }
            let id = st.next_id;
            st.next_id += 1;
            return Ok(FairRun {
                request: id,
                batches: 0,
            });
        }
        self.submit(Work::Indexed {
            job: job_ref,
            cursor: 0,
        })
    }

    /// Admits, enqueues, and blocks on one request; the common tail of
    /// every submission path.
    fn submit(&self, work: Work) -> Result<FairRun, FairError> {
        let mut st = lock(&self.shared.state);
        if st.inflight >= self.max_inflight {
            return Err(FairError::Busy {
                inflight: st.inflight,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.inflight += 1;
        st.requests.push((
            id,
            Request {
                work,
                done: false,
                aborted: false,
                panic: None,
                batches: 0,
            },
        ));
        st.queue.push_back(id);
        self.shared.work_cv.notify_all();
        loop {
            let pos = pos_of(&st.requests, id);
            if st.requests[pos].1.done {
                break;
            }
            st = wait_on(&self.shared.done_cv, st);
        }
        let pos = pos_of(&st.requests, id);
        let (_, req) = st.requests.swap_remove(pos);
        st.inflight -= 1;
        drop(st);
        if let Some(payload) = req.panic {
            resume_unwind(payload);
        }
        if req.aborted {
            return Err(FairError::Aborted);
        }
        Ok(FairRun {
            request: id,
            batches: req.batches,
        })
    }
}

impl Drop for FairPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        if let Some(handle) = self.dispatcher.take() {
            // `&mut self` here means no submitter holds `&self`, so the
            // queue is empty and the dispatcher exits at its loop top.
            let _ = handle.join();
        }
    }
}

/// What the dispatcher decided to do with the front-of-queue request.
enum Turn {
    Slice {
        job: IndexedRef,
        start: usize,
        end: usize,
        last: bool,
    },
    Exclusive(ExclusiveRef),
    Cancel,
}

fn dispatcher_loop(shared: &FairShared, pool: &WorkerPool, quota: usize) {
    let mut st = lock(&shared.state);
    loop {
        if st.shutdown {
            return;
        }
        let Some(id) = st.queue.pop_front() else {
            st = wait_on(&shared.work_cv, st);
            continue;
        };
        let turn = {
            let pos = pos_of(&st.requests, id);
            match &mut st.requests[pos].1.work {
                Work::Indexed { job, cursor } => {
                    // SAFETY: the submitter of request `id` is blocked in
                    // `submit` (its entry is not `done`), keeping the
                    // pointee alive.
                    let j = unsafe { &*job.0 };
                    if j.abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
                        Turn::Cancel
                    } else {
                        let start = *cursor;
                        let end = (start + quota).min(j.n);
                        *cursor = end;
                        Turn::Slice {
                            job: *job,
                            start,
                            end,
                            last: end == j.n,
                        }
                    }
                }
                Work::Exclusive { job } => match job.take() {
                    Some(j) => Turn::Exclusive(j),
                    None => Turn::Cancel,
                },
            }
        };
        match turn {
            Turn::Cancel => {
                let pos = pos_of(&st.requests, id);
                let req = &mut st.requests[pos].1;
                req.done = true;
                req.aborted = true;
                shared.done_cv.notify_all();
            }
            Turn::Slice {
                job,
                start,
                end,
                last,
            } => {
                drop(st);
                // SAFETY: as above — the submitter blocks until `done`,
                // keeping the job alive through this batch.
                let j = unsafe { &*job.0 };
                let f = j.f;
                let len = end - start;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(len, |k| f(start + k));
                }));
                st = lock(&shared.state);
                if let Some(log) = &mut st.log {
                    log.push(BatchRecord {
                        request: id,
                        start,
                        len,
                        last,
                    });
                }
                let pos = pos_of(&st.requests, id);
                let req = &mut st.requests[pos].1;
                req.batches += 1;
                match outcome {
                    Err(payload) => {
                        req.panic = Some(payload);
                        req.done = true;
                        shared.done_cv.notify_all();
                    }
                    Ok(()) if last => {
                        req.done = true;
                        shared.done_cv.notify_all();
                    }
                    Ok(()) => st.queue.push_back(id),
                }
            }
            Turn::Exclusive(job) => {
                drop(st);
                // SAFETY: the submitter blocks until `done`, keeping the
                // pointee alive; the reference was taken out of the
                // request above, so this thread holds the only path to
                // the `&mut` inside.
                let j = unsafe { &mut *job.0 };
                let f = j.f.take();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(f) = f {
                        f(pool);
                    }
                }));
                st = lock(&shared.state);
                if let Some(log) = &mut st.log {
                    log.push(BatchRecord {
                        request: id,
                        start: 0,
                        len: 0,
                        last: true,
                    });
                }
                let pos = pos_of(&st.requests, id);
                let req = &mut st.requests[pos].1;
                req.batches += 1;
                req.done = true;
                if let Err(payload) = outcome {
                    req.panic = Some(payload);
                }
                shared.done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn spin_work(i: usize) -> u64 {
        std::hint::black_box((0..200u64).fold(i as u64, |a, x| a ^ x.wrapping_mul(31)))
    }

    #[test]
    fn run_slots_matches_serial_for_lane_and_quota_mixes() {
        let want: Vec<u64> = (0..199).map(spin_work).collect();
        for lanes in [1usize, 2, 8] {
            for quota in [1usize, 4, 64] {
                let fair = FairPool::with_options(FairOptions::new(lanes).quota(quota));
                let mut out = vec![0u64; 199];
                fair.run_slots(&mut out, |i, slot| *slot = spin_work(i), None)
                    .unwrap();
                assert_eq!(out, want, "lanes={lanes} quota={quota}");
            }
        }
    }

    #[test]
    fn zero_length_request_completes_without_scheduling() {
        let fair = FairPool::new(2);
        let run = fair.run(0, |_| panic!("no index should run")).unwrap();
        assert_eq!(run.batches, 0);
    }

    #[test]
    fn with_pool_returns_the_closure_result() {
        let fair = FairPool::new(2);
        let got = fair.with_pool(|pool| pool.map(5, |i| i * i)).unwrap();
        assert_eq!(got, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn concurrent_requests_interleave_and_all_complete() {
        let fair = FairPool::with_options(FairOptions::new(4).quota(2));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..6usize)
                .map(|t| {
                    let fair = &fair;
                    s.spawn(move || {
                        let mut out = vec![0u64; 50 + t];
                        fair.run_slots(&mut out, |i, slot| *slot = (i as u64) * 3 + t as u64, None)
                            .map(|_| out)
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                let out = h.join().unwrap().unwrap();
                assert_eq!(out.len(), 50 + t);
                for (i, &v) in out.iter().enumerate() {
                    assert_eq!(v, (i as u64) * 3 + t as u64);
                }
            }
        });
    }

    #[test]
    fn abort_flag_cancels_between_batches() {
        let fair = FairPool::with_options(FairOptions::new(1).quota(4));
        let abort = AtomicBool::new(false);
        let hits = AtomicUsize::new(0);
        let mut out = vec![(); 100];
        let got = fair.run_slots(
            &mut out,
            |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
                abort.store(true, Ordering::Relaxed);
            },
            Some(&abort),
        );
        assert_eq!(got, Err(FairError::Aborted));
        // The first batch may finish, but no later batch starts.
        assert!(hits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn admission_control_returns_busy_then_recovers() {
        let fair = FairPool::with_options(FairOptions::new(1).max_inflight(1));
        let hold = AtomicBool::new(true);
        std::thread::scope(|s| {
            let occupant = s.spawn(|| {
                fair.with_pool(|_| {
                    while hold.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            });
            while fair.inflight() < 1 {
                std::thread::yield_now();
            }
            let got = fair.run(8, |_| {});
            assert!(matches!(got, Err(FairError::Busy { inflight: 1 })));
            hold.store(false, Ordering::Relaxed);
            occupant.join().unwrap().unwrap();
        });
        assert!(fair.run(8, |_| {}).is_ok(), "capacity restored");
    }

    #[test]
    fn panics_propagate_and_the_pool_survives() {
        let fair = FairPool::new(2);
        let got = catch_unwind(AssertUnwindSafe(|| {
            let _ = fair.run(40, |i| assert!(i != 7, "boom at 7"));
        }));
        assert!(got.is_err(), "panic must reach the submitter");
        let mut out = vec![0u32; 16];
        fair.run_slots(&mut out, |i, slot| *slot = i as u32 + 1, None)
            .unwrap();
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn with_pool_panic_propagates_and_the_pool_survives() {
        let fair = FairPool::new(2);
        let got = catch_unwind(AssertUnwindSafe(|| {
            let _ = fair.with_pool(|_| panic!("exclusive boom"));
        }));
        assert!(got.is_err());
        assert_eq!(fair.with_pool(|p| p.lanes()).unwrap(), 2);
    }

    #[test]
    fn fairness_small_requests_finish_before_large() {
        // One 64-index request and eight 4-index requests in flight: with
        // quota 4, every small request completes in one turn of the
        // rotation, so none may be delayed past the large request's
        // completion.
        let fair = FairPool::with_options(FairOptions::new(2).quota(4).batch_log(true));
        let hold = AtomicBool::new(true);
        let started = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Occupy the dispatcher until every request is enqueued, so
            // the rotation starts with all nine waiting. The requests are
            // only submitted once the blocker's turn has begun: one
            // dispatched ahead of it could finish early and leave the
            // in-flight count short of ten forever.
            let blocker = s.spawn(|| {
                fair.with_pool(|_| {
                    started.store(true, Ordering::Release);
                    while hold.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            });
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let large = s.spawn(|| {
                fair.run(64, |i| {
                    spin_work(i);
                })
            });
            let smalls: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        fair.run(4, |i| {
                            spin_work(i);
                        })
                    })
                })
                .collect();
            while fair.inflight() < 10 {
                std::thread::yield_now();
            }
            hold.store(false, Ordering::Relaxed);
            let large_run = large.join().unwrap().unwrap();
            let small_runs: Vec<FairRun> = smalls
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect();
            blocker.join().unwrap().unwrap();

            let log = fair.take_batch_log();
            let last_pos = |id: u64| {
                log.iter()
                    .position(|r| r.request == id && r.last)
                    .unwrap_or_else(|| panic!("no final batch for request {id}"))
            };
            assert_eq!(large_run.batches, 16, "64 indices at quota 4");
            let large_done = last_pos(large_run.request);
            for small in &small_runs {
                assert_eq!(small.batches, 1, "4 indices fit one quota turn");
                assert!(
                    last_pos(small.request) < large_done,
                    "small request {} delayed past the large request",
                    small.request
                );
            }
        });
    }

    #[test]
    fn batch_log_is_off_by_default() {
        let fair = FairPool::new(2);
        let _ = fair.run(16, |_| {}).unwrap();
        assert!(fair.take_batch_log().is_empty());
    }
}
