//! Allocation-count claims for the flow's hot paths, checked with a
//! test-local counting allocator.
//!
//! - A tile build allocates per tile, not per column, under every slack
//!   column definition: a [`pilfill_core::TileColumn`] is plain data, so
//!   expanding tens of thousands of global columns costs no allocation
//!   each, and the slab builds size each tile's buffer exactly.
//! - A warm `scan_slack_columns_into` rescan allocates nothing.
//! - A warm `DensityMap::recompute` allocates nothing.
//! - A 1-lane flow run allocates no block larger than its outputs (the
//!   feature list, the count store, the per-net vectors): scoring reads
//!   the counts through the context's column map, with no vector sized
//!   by the die's global column count.
//!
//! Everything runs inside one `#[test]` so no concurrently running test
//! can add allocations to a measured window.

use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::GreedyFill;
use pilfill_core::{
    build_tile_problems, extract_active_lines, scan_slack_columns, scan_slack_columns_into,
    FillFeature, ScanScratch, SlackColumnDef,
};
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::LayerId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts `alloc`, `alloc_zeroed` and
/// `realloc` events (frees are not counted) and keeps the largest block
/// size they asked for.
struct CountingAlloc;

fn record(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is forwarded verbatim under the caller's
        // `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator (i.e. `System`) with
        // `layout`, per the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it performed.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// [`count`], plus the largest block `f` asked for.
fn count_largest<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    LARGEST.store(0, Ordering::Relaxed);
    let (out, allocs) = count(f);
    (out, allocs, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn hot_paths_allocate_per_tile_or_not_at_all() {
    let design = synthesize(&SynthConfig::t2());
    let layer = LayerId(0);
    let dissection = FixedDissection::new(design.die, 32_000, 8).expect("dissection");
    let lines = extract_active_lines(&design, layer).expect("lines");
    let columns = scan_slack_columns(&lines, design.die, design.rules);

    // Tile builds: O(tiles) allocations under every definition. A build
    // is one slab build per grid column: each slab makes its row counts,
    // its tile vector and one exactly sized buffer per non-empty tile,
    // and the merge adds a few fixed ones (slab ranges, slab list, the
    // row-major tile vector), so it stays within tiles + 2·nx + 8. A
    // per-column allocation would put the count above the number of tile
    // columns.
    let grid = dissection.tiles();
    for def in [
        SlackColumnDef::One,
        SlackColumnDef::Two,
        SlackColumnDef::Three,
    ] {
        let (problems, build_allocs) = count(|| {
            build_tile_problems(
                &lines,
                &columns,
                &dissection,
                &design.tech,
                design.rules,
                def,
            )
        });
        let tiles = problems.len() as u64;
        let bound = tiles + 2 * grid.nx() as u64 + 8;
        let tile_columns: u64 = problems.iter().map(|p| p.columns.len() as u64).sum();
        assert!(
            tile_columns > bound,
            "{def:?}: workload too sparse to tell per-column from per-tile: \
             {tile_columns} columns, bound {bound}"
        );
        assert!(
            build_allocs <= bound,
            "{def:?}: tile build made {build_allocs} allocations for {tiles} tiles, \
             bound {bound} ({tile_columns} tile columns)"
        );
    }

    // Warm rescan into retained scratch and output buffers.
    let mut scratch = ScanScratch::default();
    let mut cols = Vec::new();
    scan_slack_columns_into(&lines, design.die, design.rules, &mut scratch, &mut cols);
    let (_, scan_allocs) = count(|| {
        scan_slack_columns_into(&lines, design.die, design.rules, &mut scratch, &mut cols)
    });
    assert_eq!(scan_allocs, 0, "warm scan must not allocate");
    assert_eq!(cols, columns, "the warm rescan reproduces the scan");

    // Warm density recompute into retained area/prefix buffers.
    let mut map = DensityMap::compute(&design, layer, &dissection);
    map.recompute(&design, layer);
    let (_, map_allocs) = count(|| map.recompute(&design, layer));
    assert_eq!(map_allocs, 0, "warm density recompute must not allocate");

    // One 1-lane run on t1 at W = 32k, r = 2. Its largest blocks are its
    // outputs: the feature list, the count store (one u32 per tile
    // column) and the two per-net vectors. Scoring used to locate every
    // feature into a count vector over all 41,283 global columns, a
    // larger block than any of these, on every run.
    let t1 = synthesize(&SynthConfig::t1());
    let config = FlowConfig::new(32_000, 2).expect("config");
    let ctx = FlowContext::build(&t1, &config).expect("context");
    let (outcome, run_allocs, largest) =
        count_largest(|| ctx.run(&config, &GreedyFill).expect("run"));
    let features = outcome.features.capacity() * std::mem::size_of::<FillFeature>();
    let tile_columns: usize = ctx.problems().iter().map(|p| p.columns.len()).sum();
    let store = tile_columns * std::mem::size_of::<u32>();
    let per_net = outcome.impact.per_net_delay.len() * std::mem::size_of::<f64>();
    let outputs = features.max(store).max(per_net) as u64;
    // Scoring through the column map dropped the global count vector:
    // the run made 23 allocations with it and makes 22 without.
    assert!(
        run_allocs <= 23,
        "a 1-lane run made {run_allocs} allocations, more than 23"
    );
    assert!(
        largest <= outputs,
        "a 1-lane run allocated a {largest} B block, larger than its outputs \
         (features {features} B, count store {store} B, per-net {per_net} B)"
    );
}
