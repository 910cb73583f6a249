//! # pilfill-exec
//!
//! A std-only persistent worker pool with deterministic work claiming.
//!
//! The rest of the workspace used to parallelize with per-call
//! [`std::thread::scope`] and static contiguous chunking. That loses twice
//! on heterogeneous work: thread spawn/join is repaid on every call, and a
//! single expensive item (an ILP-II tile solve is ~700x a Greedy solve)
//! serializes the whole chunk that contains it. This crate fixes both:
//!
//! - **Persistent workers.** [`WorkerPool::new`] spawns its workers once;
//!   every subsequent [`WorkerPool::run`] only wakes them through a
//!   condvar, amortizing spawn cost across calls.
//! - **Deterministic work stealing.** Work items are indices `0..n`.
//!   Idle lanes claim the next batch from a shared atomic cursor with an
//!   adaptive batch size (large while plenty remains, shrinking toward 1
//!   near the end), so no lane is left holding a long static tail.
//!
//! Determinism is by construction rather than by scheduling: the pool
//! never decides *results*, only *who computes which index when*. Callers
//! write each index's result to its own pre-partitioned slot
//! ([`WorkerPool::for_each_slot`] / [`WorkerPool::map`]) and reduce in
//! index order, so the output is bit-identical for every thread count and
//! every interleaving. See DESIGN.md "Parallel execution & determinism".
//!
//! The pool is intentionally minimal: no futures, no channels, no external
//! crates — `std::thread`, two condvars and two atomics.

mod fair;
mod sync;

pub use fair::{BatchRecord, FairError, FairOptions, FairPool, FairRun};

use crate::sync::thread::JoinHandle;
use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

thread_local! {
    /// Set while this thread runs items of a pool job. A submission from
    /// inside an item must run inline: the job it is nested in may
    /// already be closed (its submitter waits for this lane to leave), so
    /// "a job is live" does not detect it, and opening a new job would
    /// wait for this very lane.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running job items until dropped, restoring
/// the previous mark (nested inline jobs keep it set).
struct InJob(bool);

impl InJob {
    fn enter() -> Self {
        InJob(IN_JOB.replace(true))
    }
}

impl Drop for InJob {
    fn drop(&mut self) {
        IN_JOB.set(self.0);
    }
}

/// Batches per lane the adaptive claiming aims for: each lane claims about
/// `remaining / (lanes * CLAIM_RATIO)` indices per grab, so early grabs are
/// big (low cursor contention) and late grabs shrink toward single indices
/// (no long static tail behind one expensive item).
const CLAIM_RATIO: usize = 4;

/// Upper bound on one claimed batch, keeping latency bounded even for very
/// large index spaces.
const MAX_BATCH: usize = 1024;

/// A persistent pool of worker threads executing indexed jobs.
///
/// A pool with `threads` lanes spawns `threads - 1` OS workers; the thread
/// calling [`WorkerPool::run`] is always the remaining lane, so a pool of 1
/// never parks anything and degrades to a plain serial loop.
///
/// # Examples
///
/// ```
/// use pilfill_exec::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
    /// Whether the lanes can run at once (see [`WorkerPool::is_parallel`]),
    /// decided when the pool is created.
    parallel: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Workers park here waiting for a new job epoch.
    work_cv: Condvar,
    /// The submitter parks here waiting for workers to leave the job.
    done_cv: Condvar,
}

#[derive(Debug)]
struct State {
    /// Monotonic job counter; a worker joins a job only once per epoch.
    epoch: u64,
    /// The live job, if any. Cleared by the submitter before it returns.
    job: Option<JobRef>,
    /// Workers currently executing inside the live job.
    active: usize,
    shutdown: bool,
}

/// Type-erased pointer to the submitter's stack-held [`JobCore`]. The
/// submitter keeps the core alive until every worker has checked out
/// (`active == 0`) and no new worker can check in (`job == None`), which is
/// what makes handing this pointer to other threads sound.
#[derive(Debug, Clone, Copy)]
struct JobRef(*const JobCore<'static>);

// SAFETY: the pointee is only dereferenced while the submitting thread
// blocks in `run_erased` keeping it alive (see `JobRef` docs), and
// `JobCore` only hands out `&self` to `Fn + Sync` closures and atomics.
unsafe impl Send for JobRef {}

struct JobCore<'a> {
    /// Next unclaimed index.
    cursor: AtomicUsize,
    /// Total indices in the job.
    n: usize,
    /// Lanes the adaptive batch size is tuned for.
    lanes: usize,
    /// The work itself: called exactly once per index in `0..n`.
    f: &'a (dyn Fn(usize) + Sync),
    /// Set on the first panic; stops all lanes early.
    panicked: AtomicBool,
    /// First panic payload, re-raised on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Streamed jobs only: lanes may not run an index until the producer
    /// has published it past this watermark.
    gate: Option<&'a ReadyGate>,
}

/// Ready watermark for streamed jobs: the producer publishes `ready = k`
/// once items `0..k` are fully written, and consuming lanes park on the
/// condvar when the cursor catches up with the watermark. The store is
/// `Release` and the loads `Acquire`, so a lane that observes `ready > i`
/// also observes every write the producer made to item `i`.
#[derive(Debug, Default)]
struct ReadyGate {
    ready: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ReadyGate {
    /// Publishes items `0..upto` as ready and wakes parked lanes. Taking
    /// the lock around the store closes the check-then-wait race in
    /// [`ReadyGate::wait_past`].
    fn publish(&self, upto: usize) {
        let _guard = lock(&self.lock);
        self.ready.store(upto, Ordering::Release);
        self.cv.notify_all();
    }

    /// Blocks until item `i` is ready (`ready > i`). Returns `false` if the
    /// job aborted (a lane or the producer panicked) before that happened.
    fn wait_past(&self, i: usize, core: &JobCore<'_>) -> bool {
        loop {
            if core.panicked.load(Ordering::Relaxed) {
                return false;
            }
            if self.ready.load(Ordering::Acquire) > i {
                return true;
            }
            let guard = lock(&self.lock);
            if self.ready.load(Ordering::Acquire) > i {
                return true;
            }
            if core.panicked.load(Ordering::Relaxed) {
                return false;
            }
            drop(wait_on(&self.cv, guard));
        }
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` lanes (clamped to at least 1),
    /// spawning `threads - 1` persistent worker threads.
    ///
    /// Thread counts are taken literally — callers wanting hardware-sized
    /// pools should pass [`std::thread::available_parallelism`] themselves.
    pub fn new(threads: usize) -> Self {
        let lanes = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(lanes - 1);
        for i in 1..lanes {
            let shared = Arc::clone(&shared);
            let spawned = crate::sync::thread::Builder::new()
                .name(format!("pilfill-exec-{i}"))
                .spawn(move || worker_loop(&shared));
            // A failed spawn (resource exhaustion) degrades the pool to
            // fewer lanes instead of failing the computation.
            if let Ok(h) = spawned {
                handles.push(h);
            }
        }
        // Asked once per multi-lane pool: the host query reads cgroup
        // files, and 1-lane pools (one per context build) never need it.
        let parallel = lanes > 1 && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        Self {
            shared,
            handles,
            lanes,
            parallel,
        }
    }

    /// The number of lanes (worker threads plus the submitting thread): the
    /// count callers compare against available parallelism when deciding
    /// whether the pooled path is worth its coordination cost.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// `true` when the lanes can genuinely run at once: the pool has
    /// several lanes and the host several CPUs. On one CPU the lanes
    /// cannot overlap and would only add claim/wake overhead, so callers
    /// take their serial path instead. The host is queried once, when the
    /// pool is created.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Runs `f(i)` exactly once for every `i` in `0..n`, on all lanes.
    ///
    /// The submitting thread participates, so a 1-lane pool is a plain
    /// loop. Panics raised by `f` on any lane are re-raised here after all
    /// lanes have stopped. Reentrant submissions (calling `run` from inside
    /// a job) execute inline on the calling lane.
    pub fn run(&self, n: usize, f: impl Fn(usize) + Sync) {
        self.run_erased(n, &f);
    }

    /// Runs `f(i, &mut out[i])` exactly once for every slot of `out`, in
    /// parallel, writing results to pre-partitioned disjoint slots.
    ///
    /// Because each index owns exactly one slot and indices are claimed
    /// exactly once, the result is independent of scheduling: bit-identical
    /// for every lane count.
    pub fn for_each_slot<T: Send>(&self, out: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        let slots = SlotWriter {
            ptr: out.as_mut_ptr(),
            len: out.len(),
        };
        let job = move |i: usize| {
            // SAFETY: `run` claims each index exactly once across all
            // lanes, so slot `i` is touched by exactly one thread, and
            // `slots` stays in bounds (`i < out.len()` == job size).
            unsafe { slots.with(i, |slot| f(i, slot)) };
        };
        self.run_erased(out.len(), &job);
    }

    /// Maps `0..n` through `f` into a `Vec` in index order.
    pub fn map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(n, || None);
        self.for_each_slot(&mut out, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|slot| {
                // Every index 0..n was claimed and wrote its slot; an empty
                // slot is unreachable. pilfill: allow(unwrap)
                slot.expect("pool job wrote every slot")
            })
            .collect()
    }

    /// Streams `n` items through a single producer into a parallel
    /// consumer: `producer(k)` runs on the calling thread in index order,
    /// each finished item is published through a ready watermark, and pool
    /// lanes claim published indices with the same adaptive cursor as
    /// [`WorkerPool::run`] — so consumption of item 0 overlaps production
    /// of item 1, and wall-clock approaches max(produce, consume) instead
    /// of produce + consume.
    ///
    /// Returns the produced items and the consumer results, both in index
    /// order. Because every index owns disjoint slots in both vectors and
    /// the caller folds them in index order, the output is bit-identical
    /// for every lane count. On a 1-lane pool (or a reentrant submission)
    /// this degrades to a fused serial loop: produce item `k`, consume item
    /// `k`, repeat — no threads are woken.
    ///
    /// Panics from the producer or any consumer lane are re-raised on the
    /// calling thread after all lanes have stopped.
    pub fn stream_map<T, R>(
        &self,
        n: usize,
        mut producer: impl FnMut(usize) -> T,
        consumer: impl Fn(usize, &T) -> R + Sync,
    ) -> (Vec<T>, Vec<R>)
    where
        T: Send + Sync,
        R: Send,
    {
        let fused_serial = |producer: &mut dyn FnMut(usize) -> T| {
            let mut items = Vec::with_capacity(n);
            let mut results = Vec::with_capacity(n);
            for i in 0..n {
                let item = producer(i);
                results.push(consumer(i, &item));
                items.push(item);
            }
            (items, results)
        };
        if self.handles.is_empty() || n <= 1 {
            return fused_serial(&mut producer);
        }

        let mut items: Vec<Option<T>> = Vec::new();
        items.resize_with(n, || None);
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(n, || None);
        let gate = ReadyGate::default();
        let item_slots = SlotWriter {
            ptr: items.as_mut_ptr(),
            len: n,
        };
        let result_slots = SlotWriter {
            ptr: results.as_mut_ptr(),
            len: n,
        };
        let consumer_ref = &consumer;
        let job = move |i: usize| {
            // SAFETY: a lane only reaches index `i` after the gate
            // published `ready > i` (Acquire), so the producer's write to
            // slot `i` is complete and visible, and the producer never
            // touches a published slot again. Each index is claimed exactly
            // once, so the result slot is unaliased.
            unsafe {
                item_slots.with(i, |slot| {
                    // Invariant: publish happens only after the write.
                    // pilfill: allow(unwrap)
                    let item = slot.as_ref().expect("gate published an unwritten slot");
                    let r = consumer_ref(i, item);
                    result_slots.with(i, |out| *out = Some(r));
                });
            }
        };
        let core = JobCore {
            cursor: AtomicUsize::new(0),
            n,
            lanes: self.lanes.min(n),
            f: &job,
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            gate: Some(&gate),
        };
        if !self.try_open_job(&core) {
            // Reentrant submission from inside a live job: claiming the
            // shared cursor would deadlock the outer job, so run the fused
            // serial loop on this lane instead.
            drop(core);
            return fused_serial(&mut producer);
        }

        // Produce on this thread while lanes consume behind the watermark.
        let produced = catch_unwind(AssertUnwindSafe(|| {
            for k in 0..n {
                let item = producer(k);
                // SAFETY: slot `k` is unpublished (`ready <= k`), so no
                // lane reads it yet; only this thread writes it.
                unsafe { item_slots.with(k, |slot| *slot = Some(item)) };
                gate.publish(k + 1);
            }
        }));
        match produced {
            Ok(()) => {
                // The submitter joins consumption once production is done.
                claim_loop(&core);
            }
            Err(payload) => {
                core.panicked.store(true, Ordering::Relaxed);
                let mut slot = lock(&core.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                // Wake parked lanes so they observe the abort.
                gate.publish(n);
            }
        }
        self.close_job(&core);

        fn unwrap_all<V>(v: Vec<Option<V>>, what: &str) -> Vec<V> {
            v.into_iter()
                .map(|slot| {
                    // The job completed without panicking, so every slot
                    // was written. pilfill: allow(unwrap)
                    slot.expect(what)
                })
                .collect()
        }
        (
            unwrap_all(items, "streamed job produced every item"),
            unwrap_all(results, "streamed job consumed every item"),
        )
    }

    fn run_erased(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Serial fast path: nothing to coordinate with a single lane (or a
        // single item), and workers are never woken.
        if self.handles.is_empty() || n == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }

        let core = JobCore {
            cursor: AtomicUsize::new(0),
            n,
            lanes: self.lanes.min(n),
            f,
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            gate: None,
        };
        if !self.try_open_job(&core) {
            // Reentrant submission from inside a job: claiming the
            // shared cursor would deadlock the outer job, so run
            // inline on this lane instead.
            for i in 0..n {
                f(i);
            }
            return;
        }

        // The submitter is a lane too.
        claim_loop(&core);
        self.close_job(&core);
    }

    /// Publishes `core` as the live job and wakes the workers. Returns
    /// `false` without publishing if another job is live or the calling
    /// thread is running an item of one (reentrancy).
    fn try_open_job(&self, core: &JobCore<'_>) -> bool {
        if IN_JOB.get() {
            return false;
        }
        let mut st = lock(&self.shared.state);
        if st.job.is_some() {
            return false;
        }
        st.epoch += 1;
        let erased = std::ptr::from_ref(core).cast::<JobCore<'static>>();
        st.job = Some(JobRef(erased));
        self.shared.work_cv.notify_all();
        true
    }

    /// Closes the job (no new worker can join), waits for the ones inside
    /// to leave — only then may `core` drop — and re-raises the first
    /// recorded panic on the calling thread.
    fn close_job(&self, core: &JobCore<'_>) {
        let mut st = lock(&self.shared.state);
        st.job = None;
        while st.active > 0 {
            st = wait_on(&self.shared.done_cv, st);
        }
        drop(st);

        let payload = lock(&core.panic).take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker that panicked already recorded the payload with its
            // job; at shutdown there is nothing left to propagate to.
            let _ = h.join();
        }
    }
}

/// Locks a mutex, riding through poisoning: pool state stays consistent
/// on panic because every transition happens before or after — never
/// during — a job's unwinding.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    let mut st = lock(&shared.state);
    loop {
        if st.shutdown {
            return;
        }
        match st.job {
            Some(job) if st.epoch != seen_epoch => {
                seen_epoch = st.epoch;
                st.active += 1;
                drop(st);
                // SAFETY: `job` was observed under the lock while
                // `state.job` was live and `active` was incremented, so the
                // submitter in `run_erased` cannot release the pointee
                // before this worker decrements `active` again.
                claim_loop(unsafe { &*job.0 });
                st = lock(&shared.state);
                st.active -= 1;
                if st.active == 0 {
                    shared.done_cv.notify_all();
                }
            }
            _ => st = wait_on(&shared.work_cv, st),
        }
    }
}

/// One lane's claim loop: grab an adaptive batch of indices from the
/// cursor, run them, repeat until the cursor is drained or a lane panicked.
/// Streamed jobs additionally clamp each batch to the published watermark
/// and park on the gate while the producer is behind.
fn claim_loop(core: &JobCore<'_>) {
    loop {
        if core.panicked.load(Ordering::Relaxed) {
            return;
        }
        let claimed = core.cursor.load(Ordering::Relaxed);
        if claimed >= core.n {
            return;
        }
        let mut limit = core.n;
        if let Some(gate) = core.gate {
            let ready = gate.ready.load(Ordering::Acquire);
            if ready <= claimed {
                if !gate.wait_past(claimed, core) {
                    return;
                }
                continue;
            }
            limit = ready.min(core.n);
        }
        let remaining = limit - claimed;
        let batch = (remaining / (core.lanes * CLAIM_RATIO)).clamp(1, MAX_BATCH);
        // `fetch_add` hands out disjoint ranges even under contention; a
        // stale `remaining` only mis-sizes the batch, never re-issues an
        // index.
        let begin = core.cursor.fetch_add(batch, Ordering::Relaxed);
        if begin >= core.n {
            return;
        }
        let end = (begin + batch).min(core.n);
        // Racing lanes can push a claim past the watermark; wait for the
        // producer to publish the whole batch before running it.
        if let Some(gate) = core.gate {
            if !gate.wait_past(end - 1, core) {
                return;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _in_job = InJob::enter();
            for i in begin..end {
                (core.f)(i);
            }
        }));
        if let Err(payload) = outcome {
            core.panicked.store(true, Ordering::Relaxed);
            let mut slot = lock(&core.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
            return;
        }
    }
}

/// Raw-slice wrapper letting multiple lanes write disjoint slots of one
/// `&mut [T]`.
#[derive(Debug)]
struct SlotWriter<T> {
    ptr: *mut T,
    len: usize,
}

// Manual impls: the derived ones would add an unwanted `T: Copy` bound —
// the writer is a pointer-and-length pair regardless of `T`.
impl<T> Clone for SlotWriter<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotWriter<T> {}

// SAFETY: only used for disjoint per-index access from pool jobs (each
// index is claimed exactly once), so no two threads alias a slot.
unsafe impl<T: Send> Send for SlotWriter<T> {}
// SAFETY: see `Send`; shared access is index-partitioned, never aliased.
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// Wraps a mutable slice for disjoint per-index writes.
    fn new(out: &mut [T]) -> Self {
        Self {
            ptr: out.as_mut_ptr(),
            len: out.len(),
        }
    }

    /// # Safety
    ///
    /// `i` must be `< len`, and no other thread may access slot `i`
    /// concurrently.
    unsafe fn with(&self, i: usize, f: impl FnOnce(&mut T)) {
        debug_assert!(i < self.len);
        f(&mut *self.ptr.add(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_matches_serial_for_every_lane_count() {
        let expected: Vec<u64> = (0..997u64).map(|i| i * i + 7).collect();
        for threads in 1..=8 {
            let pool = WorkerPool::new(threads);
            let got = pool.map(997, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, expected, "{threads} lanes");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn pool_reuse_gives_identical_results() {
        let pool = WorkerPool::new(3);
        let a = pool.map(257, |i| i.wrapping_mul(0x9E37_79B9));
        let b = pool.map(257, |i| i.wrapping_mul(0x9E37_79B9));
        assert_eq!(a, b);
        // And many consecutive heterogeneous jobs on one pool stay correct.
        for n in [0usize, 1, 2, 31, 64, 1000] {
            let got = pool.map(n, |i| i + n);
            let want: Vec<usize> = (0..n).map(|i| i + n).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn for_each_slot_writes_disjoint_slots() {
        let pool = WorkerPool::new(5);
        let mut out = vec![0u32; 513];
        pool.for_each_slot(&mut out, |i, slot| *slot = i as u32 + 1);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
    }

    #[test]
    fn heterogeneous_work_is_balanced_not_serialized() {
        // One expensive item among many cheap ones: with adaptive claiming
        // the total work still completes and every result is right (the
        // old static-chunk scheme is what this replaces; correctness here,
        // wall-clock in the bench harness).
        let pool = WorkerPool::new(4);
        let got = pool.map(401, |i| {
            if i == 13 {
                (0..50_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31))
            } else {
                i as u64
            }
        });
        assert_eq!(got[0], 0);
        assert_eq!(got[400], 400);
        assert_eq!(
            got[13],
            (0..50_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31))
        );
    }

    #[test]
    fn single_lane_pool_is_a_plain_loop() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.lanes(), 1);
        assert!(!pool.is_parallel(), "one lane never runs in parallel");
        let got = pool.map(10, |i| i * 3);
        assert_eq!(got, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        pool.run(0, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, |i| {
                assert!(i != 42, "boom at 42");
            });
        }));
        assert!(result.is_err(), "panic must reach the submitter");
        // The pool survives a panicked job and runs the next one.
        let got = pool.map(8, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn reentrant_submission_runs_inline() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.run(4, |_| {
            // Submitting from inside a job must not deadlock.
            pool.run(3, |j| {
                total.fetch_add(j as u64 + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (1 + 2 + 3));
    }

    #[test]
    fn multi_lane_pools_record_the_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for lanes in [2usize, 4] {
            assert_eq!(
                WorkerPool::new(lanes).is_parallel(),
                host > 1,
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn submission_from_an_item_that_outlives_its_closed_job_runs_inline() {
        // The submitter's item waits until a worker has claimed the other
        // item, then returns, and the submitter closes the job while the
        // worker's item still sleeps. The worker's nested submission then
        // finds no live job and must still run inline: a new job would
        // wait for the worker itself to leave.
        let (tx, rx) = std::sync::mpsc::channel();
        let scenario = std::thread::spawn(move || {
            let pool = WorkerPool::new(2);
            let submitter = std::thread::current().id();
            for _ in 0..10 {
                let total = AtomicU64::new(0);
                let worker_started = AtomicBool::new(false);
                pool.run(2, |_| {
                    if std::thread::current().id() == submitter {
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(5);
                        while !worker_started.load(Ordering::Acquire)
                            && std::time::Instant::now() < deadline
                        {
                            std::thread::sleep(std::time::Duration::from_micros(100));
                        }
                    } else {
                        worker_started.store(true, Ordering::Release);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    pool.run(3, |j| {
                        total.fetch_add(j as u64 + 1, Ordering::Relaxed);
                    });
                });
                assert_eq!(total.load(Ordering::Relaxed), 2 * (1 + 2 + 3));
            }
            let _ = tx.send(());
        });
        // A deadlocked scenario never reports back; one that panicked
        // drops the sender, and joining it re-raises the panic here.
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("a nested submission deadlocked the pool")
            }
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(payload) = scenario.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    #[test]
    fn dropping_an_idle_pool_joins_workers() {
        let pool = WorkerPool::new(6);
        drop(pool); // must not hang
    }

    #[test]
    fn stream_map_matches_fused_serial_for_every_lane_count() {
        let n = 403usize;
        let want_items: Vec<u64> = (0..n as u64).map(|k| k * 3 + 1).collect();
        let want_results: Vec<u64> = want_items.iter().map(|&v| v * v).collect();
        for threads in 1..=8 {
            let pool = WorkerPool::new(threads);
            let (items, results) =
                pool.stream_map(n, |k| k as u64 * 3 + 1, |_, item: &u64| item * item);
            assert_eq!(items, want_items, "{threads} lanes");
            assert_eq!(results, want_results, "{threads} lanes");
        }
    }

    #[test]
    fn stream_map_production_order_is_sequential() {
        // The producer must be called with 0, 1, 2, ... in order on the
        // submitting thread, regardless of consumer scheduling.
        let pool = WorkerPool::new(4);
        let mut seen = Vec::new();
        let (items, _) = pool.stream_map(
            100,
            |k| {
                seen.push(k);
                k
            },
            |_, &item| item,
        );
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn stream_map_with_slow_producer_still_completes() {
        let pool = WorkerPool::new(4);
        let (_, results) = pool.stream_map(
            24,
            |k| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                k as u32
            },
            |_, &item| item + 1,
        );
        assert_eq!(results, (1..=24).collect::<Vec<u32>>());
    }

    #[test]
    fn stream_map_consumer_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.stream_map(
                64,
                |k| k,
                |_, &item| {
                    assert!(item != 17, "boom at 17");
                    item
                },
            );
        }));
        assert!(result.is_err(), "consumer panic must reach the submitter");
        let got = pool.map(4, |i| i);
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stream_map_producer_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.stream_map(
                64,
                |k| {
                    assert!(k != 9, "producer boom at 9");
                    k
                },
                |_, &item| item,
            );
        }));
        assert!(result.is_err(), "producer panic must reach the submitter");
        let got = pool.map(4, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn stream_map_reentrant_submission_runs_fused_serial() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.run(3, |_| {
            let (items, results) = pool.stream_map(5, |k| k as u64, |_, &item| item * 2);
            assert_eq!(items, vec![0, 1, 2, 3, 4]);
            total.fetch_add(results.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 3 * 20);
    }
}
