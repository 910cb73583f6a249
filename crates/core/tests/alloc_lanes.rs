//! Allocation claims for the tile solves and the streamed pipeline,
//! checked with a test-local allocator that tags every block with the
//! thread that allocated it.
//!
//! - A tile that ILP-I or ILP-II decides in closed form allocates a few
//!   fixed buffers, never a solver model, however many columns it has.
//! - After [`FlowContext::build_pool`] or [`run_flow_streamed`] returns on
//!   two lanes, the blocks a worker lane allocated and that outlived the
//!   work it did (still live, or freed later by the submitting thread)
//!   number at most a few per slab: the submitting thread builds the
//!   slabs and owns the result slots, so a lane keeps only the budget
//!   stage's results and otherwise allocates a tile solve's own
//!   temporaries. On a single-CPU host both take their serial paths and
//!   no lane allocates at all.
//!
//! Everything runs inside one `#[test]`, so no concurrently running test
//! allocates on another thread while a window is open.

use pilfill_core::flow::{run_flow_streamed, FlowConfig, FlowContext};
use pilfill_core::methods::{FillMethod, IlpOne, IlpTwo};
use pilfill_core::WorkerPool;
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::SeedableRng;
use pilfill_solver::BranchBoundStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where a block was allocated.
const OTHER: u8 = 0;
/// On the thread that called [`submitting`].
const SUBMITTER: u8 = 1;
/// On any other thread while [`ARMED`] was set: a worker lane.
const LANE: u8 = 2;

thread_local! {
    static ROLE: Cell<u8> = const { Cell::new(OTHER) };
}

static ARMED: AtomicBool = AtomicBool::new(false);
/// Blocks allocated on the submitting thread.
static SUBMITTER_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Lane blocks not yet freed.
static LANE_LIVE: AtomicU64 = AtomicU64::new(0);
/// Lane blocks freed on the submitting thread.
static LANE_FREED_BY_SUBMITTER: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that prefixes every block with a header
/// holding its tag.
struct TaggingAlloc;

impl TaggingAlloc {
    /// The header size for `layout`: at least the tag byte, and a multiple
    /// of the alignment so the user block stays aligned.
    fn header(layout: Layout) -> usize {
        layout.align().max(16)
    }

    /// The block `System` actually holds for a user `layout`.
    fn outer(layout: Layout) -> Option<Layout> {
        let header = Self::header(layout);
        Layout::from_size_align(layout.size().checked_add(header)?, header).ok()
    }

    fn tag() -> u8 {
        match ROLE.get() {
            SUBMITTER => SUBMITTER,
            _ if ARMED.load(Ordering::Relaxed) => LANE,
            _ => OTHER,
        }
    }

    /// Tags the fresh block at `base` and returns the user pointer.
    ///
    /// # Safety
    ///
    /// `base` is null or a live `System` block of `Self::outer(layout)`.
    unsafe fn finish(base: *mut u8, layout: Layout) -> *mut u8 {
        if base.is_null() {
            return base;
        }
        let tag = Self::tag();
        match tag {
            SUBMITTER => SUBMITTER_ALLOCS.fetch_add(1, Ordering::Relaxed),
            LANE => LANE_LIVE.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        // SAFETY: the outer block is at least `header` bytes larger than
        // the user block, so the tag byte and the offset stay inside it.
        unsafe {
            base.write(tag);
            base.add(Self::header(layout))
        }
    }
}

// SAFETY: every block comes from `System` with a layout that fits the
// user layout after a header of the user alignment, and `dealloc`
// recomputes the same header and layout from the caller's layout.
unsafe impl GlobalAlloc for TaggingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(outer) = Self::outer(layout) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `outer` has a nonzero size (the header), and `finish`
        // gets a block of exactly that layout.
        unsafe { Self::finish(System.alloc(outer), layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some(outer) = Self::outer(layout) else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `alloc`.
        unsafe { Self::finish(System.alloc_zeroed(outer), layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let header = Self::header(layout);
        // SAFETY: `ptr` came from `alloc`/`alloc_zeroed` with this
        // `layout`, so the tagged block starts `header` bytes before it,
        // and `outer` succeeded when it was allocated.
        unsafe {
            let base = ptr.sub(header);
            if base.read() == LANE {
                LANE_LIVE.fetch_sub(1, Ordering::Relaxed);
                if ROLE.get() == SUBMITTER {
                    LANE_FREED_BY_SUBMITTER.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Some(outer) = Self::outer(layout) {
                System.dealloc(base, outer);
            }
        }
    }
}

#[global_allocator]
static GLOBAL: TaggingAlloc = TaggingAlloc;

/// Marks the calling thread as the submitting thread.
fn submitting() {
    ROLE.set(SUBMITTER);
}

/// Runs `f` and returns its result with the blocks it allocated on this
/// (the submitting) thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = SUBMITTER_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, SUBMITTER_ALLOCS.load(Ordering::Relaxed) - before)
}

/// Runs `f` with lane tagging armed and returns its result with the
/// blocks a worker lane allocated during `f` that are still live or were
/// freed by the submitting thread.
fn lane_escapes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let freed_before = LANE_FREED_BY_SUBMITTER.load(Ordering::Relaxed);
    let live_before = LANE_LIVE.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let escaped = (LANE_LIVE.load(Ordering::Relaxed) - live_before)
        + (LANE_FREED_BY_SUBMITTER.load(Ordering::Relaxed) - freed_before);
    (out, escaped)
}

/// The most blocks a closed-form ILP-I solve allocates: the cost order and
/// the counts.
const ILP1_CLOSED_FORM_BLOCKS: u64 = 2;
/// The most blocks a closed-form ILP-II solve allocates: the marginals,
/// their selection copy, and greedy's order and counts.
const ILP2_CLOSED_FORM_BLOCKS: u64 = 4;

#[test]
fn closed_form_solves_and_streamed_lanes_allocate_only_transiently() {
    submitting();
    let design = synthesize(&SynthConfig::t1());
    let config = FlowConfig::new(32_000, 8).expect("config");

    // Closed-form tile solves. An ILP-II tile that reports no search
    // (zero stats) was decided by the root selection, so it must stay
    // within the fixed budget; ILP-I reports nothing, so most of its
    // budgeted tiles must, and those must include tiles with more columns
    // than the budget (a per-column allocation would show).
    let ctx = FlowContext::build(&design, &config).expect("context");
    let (mut tiles, mut ilp1_fixed, mut ilp2_decided) = (0usize, 0usize, 0usize);
    let mut widest_fixed = 0usize;
    for problem in ctx.problems() {
        let cap = u32::try_from(problem.capacity()).expect("tile capacity");
        let budget = ctx.budget_features(problem.cell).min(cap);
        if budget == 0 {
            continue;
        }
        tiles += 1;
        for weighted in [false, true] {
            let mut rng = StdRng::seed_from_u64(1);
            let (one, blocks) = count(|| IlpOne.place(problem, budget, weighted, &mut rng));
            one.expect("ilp1");
            if blocks <= ILP1_CLOSED_FORM_BLOCKS {
                ilp1_fixed += 1;
                widest_fixed = widest_fixed.max(problem.columns.len());
            }
            let (two, blocks) =
                count(|| IlpTwo.place_with_stats(problem, budget, weighted, &mut rng));
            let (_, stats) = two.expect("ilp2");
            if stats == BranchBoundStats::default() {
                ilp2_decided += 1;
                assert!(
                    blocks <= ILP2_CLOSED_FORM_BLOCKS,
                    "ILP-II tile {:?} ({} columns) decided without a search made {blocks} \
                     allocations",
                    problem.cell,
                    problem.columns.len()
                );
            }
        }
    }
    assert!(tiles > 20, "{tiles} budgeted tiles");
    assert!(
        ilp1_fixed * 10 >= 2 * tiles * 8,
        "ILP-I solved {ilp1_fixed} of {} tile solves in at most \
         {ILP1_CLOSED_FORM_BLOCKS} allocations",
        2 * tiles
    );
    assert!(
        widest_fixed as u64 > 4 * ILP1_CLOSED_FORM_BLOCKS,
        "{widest_fixed}"
    );
    assert!(
        ilp2_decided * 10 >= 2 * tiles * 8,
        "{ilp2_decided} of {}",
        2 * tiles
    );

    // Pooled lanes. One grid column of tiles is one slab.
    let slabs = ctx
        .problems()
        .iter()
        .map(|p| p.cell.0 as u64 + 1)
        .max()
        .expect("tiles");
    let tiles = ctx.problems().len();
    drop(ctx);
    let pool = WorkerPool::new(2);
    let (built, escaped) =
        lane_escapes(|| FlowContext::build_pool(&design, &config, &pool).expect("pooled build"));
    assert_eq!(built.problems().len(), tiles);
    assert!(
        escaped <= slabs + 8,
        "build_pool: {escaped} blocks allocated on a worker lane outlived the build \
         ({slabs} slabs, {tiles} tiles)"
    );
    drop(built);
    for method in [&IlpTwo as &(dyn FillMethod + Sync), &IlpOne] {
        let ((ctx, outcome), escaped) = lane_escapes(|| {
            run_flow_streamed(&design, &config, method, &pool).expect("streamed run")
        });
        assert!(outcome.placed_features > 0);
        assert!(
            escaped <= slabs + 8,
            "{}: {escaped} blocks allocated on a worker lane outlived their tile \
             ({slabs} slabs, {} tiles)",
            method.name(),
            ctx.problems().len()
        );
    }
}
