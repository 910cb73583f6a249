//! Allocation-count claims for the flow's hot paths, checked with a
//! test-local counting allocator.
//!
//! - A definition-III tile build allocates per tile, not per column: a
//!   [`pilfill_core::TileColumn`] is plain data, so expanding tens of
//!   thousands of global columns costs no allocation each.
//! - A warm `scan_slack_columns_into` rescan allocates nothing.
//! - A warm `DensityMap::recompute` allocates nothing.
//!
//! Everything runs inside one `#[test]` so no concurrently running test
//! can add allocations to a measured window.

use pilfill_core::layout::DEF_THREE_SHARD_COLUMNS;
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

    // Definition-III tile build: O(tiles) allocations. The single-lane
    // build makes one buffer per non-empty tile, one per fixed-size shard
    // of global columns, and a few fixed ones (tile vector, shard list,
    // pool slots, tile counts). A per-column allocation would put the
    // count above the number of tile columns.
    let (problems, build_allocs) = count(|| {
        build_tile_problems(
            &lines,
            &columns,
            &dissection,
            &design.tech,
            design.rules,
            SlackColumnDef::Three,
        )
    });
    let tiles = problems.len() as u64;
    let shards = columns.len().div_ceil(DEF_THREE_SHARD_COLUMNS) as u64;
    let tile_columns: u64 = problems.iter().map(|p| p.columns.len() as u64).sum();
    assert!(
        tile_columns > tiles + shards + 8,
        "workload too sparse to tell per-column from per-tile: \
         {tile_columns} columns, {tiles} tiles, {shards} shards"
    );
    assert!(
        build_allocs <= tiles + shards + 8,
        "tile build made {build_allocs} allocations for {tiles} tiles and \
         {shards} shards ({tile_columns} tile columns)"
    );
    drop(problems);

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
