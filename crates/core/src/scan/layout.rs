//! Data-layout constants of the scanline hot path, collected in one place
//! so the kernel shapes (bitmask word width, slab chunking) are documented
//! and tuned together rather than scattered as magic numbers.

/// Bits per occupancy-bitmask word in the span sweep.
///
/// The scan marks every site column where the active-line set can change
/// (a line starts, or a line expired just before) as one bit in a chunked
/// `u64` mask; maximal runs of zero bits are *spans* whose columns all see
/// the identical active set, extracted with word-level `trailing_zeros`
/// scans instead of per-column interval chasing. `u64` is the widest
/// integer with single-instruction bit scans on every supported target,
/// so one word covers 64 site columns per scan step.
pub const MASK_WORD_BITS: usize = 64;

/// Global slack columns per definition-III slab-row work item.
///
/// The sharded tile-problem build distributes the global column list in
/// fixed-size chunks. The shard size is independent of the worker-pool
/// lane count, so the merged output is the concatenation of the same
/// shards in the same order for every pool — exactly the sequential
/// result. 64 columns keep a shard's working set (columns + cost-table
/// rows) within L1 while still amortizing the claim overhead.
pub const DEF_THREE_SHARD_COLUMNS: usize = 64;

/// Tiles per definition-I/II tile-build work item.
///
/// Definitions I and II rescan each tile on its own. A work item threads
/// one scan scratch and column buffer through a fixed run of tiles in
/// row-major order, so the scratch grows to the run's largest tile once
/// (about 30 allocations) instead of being rebuilt for every tile. Each
/// tile's result depends only on its own rect, so the output is the same
/// for every shard size and lane count. 64 tiles make the scratch cost
/// under half an allocation per tile.
pub const DEF_ONE_TWO_SHARD_TILES: usize = 64;
