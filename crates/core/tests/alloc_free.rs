//! Allocation-count claims for the flow's hot paths, checked with a
//! test-local counting allocator.
//!
//! - A tile build allocates per tile, not per column, under every slack
//!   column definition: a [`pilfill_core::TileColumn`] is plain data, so
//!   expanding tens of thousands of global columns costs no allocation
//!   each, the definition-III slab builds size each tile's buffer
//!   exactly, and the definition-I/II rescans reuse one scan scratch
//!   across a run of tiles.
//! - A warm `scan_slack_columns_into` rescan allocates nothing.
//! - A warm `DensityMap::recompute` allocates nothing.
//!
//! Everything runs inside one `#[test]` so no concurrently running test
//! can add allocations to a measured window.

use pilfill_core::layout::DEF_ONE_TWO_SHARD_TILES;
use pilfill_core::{
    build_tile_problems, extract_active_lines, scan_slack_columns, scan_slack_columns_into,
    ScanScratch, SlackColumnDef,
};
use pilfill_density::{DensityMap, FixedDissection};
use pilfill_layout::synth::{synthesize, SynthConfig};
use pilfill_layout::LayerId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts `alloc`, `alloc_zeroed` and
/// `realloc` events (frees are not counted).
struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded verbatim under the caller's
        // `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn hot_paths_allocate_per_tile_or_not_at_all() {
    let design = synthesize(&SynthConfig::t2());
    let layer = LayerId(0);
    let dissection = FixedDissection::new(design.die, 32_000, 8).expect("dissection");
    let lines = extract_active_lines(&design, layer).expect("lines");
    let columns = scan_slack_columns(&lines, design.die, design.rules);

    // Tile builds: O(tiles) allocations under every definition. A
    // definition-III build is one slab build per grid column: each slab
    // makes its row counts, its tile vector and one exactly sized buffer
    // per non-empty tile, and the merge adds a few fixed ones (slab
    // ranges, pool slots, slab list, the row-major tile vector), so it
    // stays within tiles + 2·nx + 8. Definitions I and II rescan each
    // tile, threading one scan scratch through a run of
    // `DEF_ONE_TWO_SHARD_TILES` tiles: one buffer per non-empty tile plus
    // the scratch growth of each run, under 32 allocations a run. A
    // per-column allocation would put the count above the number of tile
    // columns.
    let grid = dissection.tiles();
    let slabs = 2 * grid.nx() as u64;
    let runs = 32 * grid.len().div_ceil(DEF_ONE_TWO_SHARD_TILES) as u64;
    for (def, per_unit) in [
        (SlackColumnDef::One, runs),
        (SlackColumnDef::Two, runs),
        (SlackColumnDef::Three, slabs),
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
        let bound = tiles + per_unit + 8;
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
}
