//! Data-layout constants of the scanline hot path, collected in one place
//! so the kernel shapes (the bitmask word width) are documented and tuned
//! together rather than scattered as magic numbers.

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
