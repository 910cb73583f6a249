//! The scan-line slack-column algorithm (paper Figure 7).
//!
//! Assuming horizontal routing, the area is divided into vertical *site
//! columns* one fill-site wide. Sweeping the active lines bottom-to-top
//! yields, per site column, the maximal vertical gaps between consecutive
//! lines (or between a line and the area boundary). Each gap is a
//! [`SlackColumn`]: it knows the line below, the line above, and the
//! concrete fill *slots* (y positions) that respect the buffer distance.
//!
//! The sweep runs over a caller-owned [`ScanScratch`] arena: the line
//! events, the struct-of-arrays event mirrors, the occupancy bitmask and
//! the active-set buffers all live in reused storage, and a [`SlackColumn`]
//! is a flat `Copy` value (its slots are an arithmetic progression, not a
//! `Vec`), so a warm re-scan performs zero heap allocation.
//!
//! [`scan_site_columns`] is a *span sweep*. Site columns where the
//! active-line set can change are marked in a chunked `u64` bitmask
//! ([`layout::MASK_WORD_BITS`]); maximal zero runs are spans whose columns
//! all see the identical active set, so the gap structure is built once
//! per span (a template of `Copy` gaps) and stamped per column. The active
//! set itself is a rank-sorted index into separate flat `Coord`/`u32`
//! arrays (struct-of-arrays), maintained with a branch-light retain +
//! two-pointer merge per boundary. The original per-column interval walk
//! shares the event builder and is kept in the tests as the oracle the
//! span sweep is property-tested against (bit-identical output is a hard
//! invariant).

use crate::{ActiveLine, FillFeature};
use pilfill_geom::{units, Coord, Interval, Rect};
use pilfill_layout::FillRules;

pub mod layout;

/// Feasible fill slot bottoms of one slack column, stored as an arithmetic
/// progression `lo, lo + pitch, ..., lo + (count - 1) * pitch` instead of a
/// materialized `Vec<Coord>`. Slots are always evenly spaced by the site
/// pitch, so the progression is lossless, `Copy`, and lets tile splitting
/// take O(1) sub-ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    lo: Coord,
    /// Stride in dbu. Stored narrow (site pitches are a few hundred dbu)
    /// so a [`SlackColumn`] packs into one 64-byte cache line; widened
    /// back to `Coord` for all arithmetic.
    pitch: i32,
    count: u32,
}

impl Slots {
    /// The progression with no slots.
    pub const EMPTY: Slots = Slots {
        lo: 0,
        pitch: 1,
        count: 0,
    };

    /// The progression `lo, lo + pitch, ..., lo + (count - 1) * pitch`.
    ///
    /// # Panics
    ///
    /// Panics if `pitch <= 0` (the empty progression still needs a valid
    /// stride for arithmetic) or if `pitch` overflows the packed `i32`
    /// stride.
    pub fn evenly(lo: Coord, pitch: Coord, count: u32) -> Slots {
        assert!(
            pitch > 0 && pitch <= i64::from(i32::MAX),
            "slot pitch must be positive and fit i32 (got {pitch})"
        );
        Slots {
            lo,
            // Range-checked by the assert above.
            pitch: pitch as i32, // pilfill: allow(as-cast)
            count,
        }
    }

    /// Slots of a gap: start `buffer` above the bottom line (none at the
    /// area boundary), step one site pitch, and stop while a feature still
    /// fits below the top line's buffer.
    pub fn for_gap(
        gap: Interval,
        below_is_line: bool,
        above_is_line: bool,
        rules: FillRules,
    ) -> Slots {
        let lo = gap.lo + if below_is_line { rules.buffer } else { 0 };
        let hi = gap.hi - if above_is_line { rules.buffer } else { 0 };
        let pitch = rules.site_pitch();
        let avail = hi - lo - rules.feature_size;
        if avail < 0 {
            return Slots::EMPTY;
        }
        Slots::evenly(
            lo,
            pitch,
            units::saturating_count((avail / pitch) as u64 + 1),
        )
    }

    /// The stride as a `Coord` (internal widening accessor).
    #[inline]
    fn stride(&self) -> Coord {
        Coord::from(self.pitch)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        // u32 -> usize is widening on every supported target.
        self.count as usize // pilfill: allow(as-cast)
    }

    /// Whether the progression holds no slots.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th slot bottom, if `i < len()`.
    pub fn get(&self, i: usize) -> Option<Coord> {
        (i < self.len()).then(|| self.lo + units::coord(i) * self.stride())
    }

    /// The first slot bottom.
    pub fn first(&self) -> Option<Coord> {
        self.get(0)
    }

    /// The last slot bottom.
    pub fn last(&self) -> Option<Coord> {
        self.len().checked_sub(1).and_then(|k| self.get(k))
    }

    /// Iterates the slot bottoms in ascending order.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = Coord> + ExactSizeIterator + Clone {
        let Slots { lo, pitch, count } = self;
        (0..count).map(move |k| lo + Coord::from(k) * Coord::from(pitch))
    }

    /// The sub-progression `[start, start + len)`, clamped to the slots
    /// that exist.
    pub fn slice(&self, start: usize, len: usize) -> Slots {
        let start = start.min(self.len());
        let len = len.min(self.len() - start);
        Slots {
            lo: self.lo + units::coord(start) * self.stride(),
            pitch: self.pitch,
            count: units::saturating_count(len as u64),
        }
    }

    /// How many slots lie strictly below `y` — the split point used when a
    /// column is partitioned at a tile-row boundary.
    pub fn count_below(&self, y: Coord) -> usize {
        if self.count == 0 || y <= self.lo {
            return 0;
        }
        let pitch = self.stride();
        let k = (y - self.lo + pitch - 1) / pitch;
        units::index(k).min(self.len())
    }
}

impl IntoIterator for &Slots {
    type Item = Coord;
    type IntoIter = std::vec::IntoIter<Coord>;
    fn into_iter(self) -> Self::IntoIter {
        // Convenience for `for s in &col.slots` call sites; hot paths use
        // the allocation-free `iter()`.
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

/// A maximal vertical run of fillable space in one site column.
///
/// The layout is packed to exactly one 64-byte cache line (enforced
/// below): the scan writes tens of thousands of these per sweep and the
/// tile-problem build streams them all back, so the struct size is the
/// dominant memory-traffic term of both hot paths. Line references are
/// `u32` (line counts are bounded far below `u32::MAX`) and the slot
/// stride is an `i32` for the same reason.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackColumn {
    /// Site-column index (0 = leftmost).
    pub site_x: usize,
    /// Left edge of the site column.
    pub x: Coord,
    /// Edge-to-edge vertical gap `[below.top, above.bottom)` (or the area
    /// boundary where no line bounds the gap).
    pub gap: Interval,
    /// Index (into the scanned line slice) of the line below, if any.
    pub below: Option<u32>,
    /// Index of the line above, if any.
    pub above: Option<u32>,
    /// Feasible fill slot bottoms (ascending y), spaced one site pitch
    /// apart, respecting the buffer distance on line-bounded sides.
    pub slots: Slots,
}

// One slack column == one cache line; a silent regrowth (e.g. a field
// widening back to `usize`) would re-inflate every scan and tile pass.
const _: () = assert!(std::mem::size_of::<SlackColumn>() == 64);

impl SlackColumn {
    /// Number of fill features the column can hold (the paper's `C_k`).
    pub fn capacity(&self) -> u32 {
        self.slots.count
    }

    /// The line-to-line distance `d` of the capacitance model, defined only
    /// when both sides are active lines.
    pub fn distance(&self) -> Option<Coord> {
        match (self.below, self.above) {
            (Some(_), Some(_)) => Some(self.gap.len()),
            _ => None,
        }
    }

    /// x of a fill feature placed in this column (centered in the site).
    pub fn feature_x(&self, rules: FillRules) -> Coord {
        self.x + (rules.site_pitch() - rules.feature_size) / 2
    }
}

/// One buffer-expanded, bounds-clipped line in the sweep, restricted to
/// the site columns it covers.
#[derive(Debug, Clone, Copy)]
struct SweepEvent {
    bottom: Coord,
    top: Coord,
    /// First covered site column, relative to the scanned range start.
    lo: u32,
    /// Last covered site column (inclusive), relative to the range start.
    hi: u32,
    /// Index into the scanned line slice.
    line: u32,
}

/// Exact division by a scan-invariant positive pitch via the round-up
/// reciprocal method (Granlund & Montgomery): with `l = ceil(log2 d)` and
/// `m = floor(2^(32+l) / d) + 1`, `floor(m * n / 2^(32+l)) == floor(n / d)`
/// for every `0 <= n < 2^32`. Proof sketch: `m * d = 2^(32+l) + k` with
/// `1 <= k <= d`, so the error term `k * n / (d * 2^(32+l))` is strictly
/// below `1 / d` (because `k * n <= 2^l * (2^32 - 1) < 2^(32+l)`), which
/// can never carry `floor(n / d + err)` past the next integer. The sweep
/// divides once per emitted gap; replacing the hardware divide with a
/// multiply + shift is a measurable win on the scan hot path.
#[derive(Debug, Clone, Copy)]
struct PitchRecip {
    m: u64,
    s: u32,
}

impl PitchRecip {
    fn new(pitch: Coord) -> PitchRecip {
        assert!(pitch > 0, "site pitch must be positive (got {pitch})");
        let l = if pitch == 1 {
            0
        } else {
            64 - ((pitch - 1) as u64).leading_zeros() // pilfill: allow(as-cast)
        };
        let m = ((1u128 << (32 + l)) / pitch as u128) as u64 + 1; // pilfill: allow(as-cast)
        PitchRecip { m, s: 32 + l }
    }

    /// `n / pitch` for `0 <= n < 2^32` (callers guard the range).
    #[inline]
    fn div(self, n: Coord) -> Coord {
        debug_assert!((0..1 << 32).contains(&n));
        ((n as u64 as u128 * u128::from(self.m)) >> self.s) as Coord // pilfill: allow(as-cast)
    }
}

/// Reusable arena for [`scan_slack_columns_into`]: sweep events, their
/// struct-of-arrays mirrors, the boundary/active bitmasks and the
/// starter/ender schedules. A warm scratch makes a re-scan allocation-free.
#[derive(Debug, Default)]
pub struct ScanScratch {
    events: Vec<SweepEvent>,
    // Struct-of-arrays mirrors of the bottom-sorted events (span sweep).
    /// Clipped bottom edges, indexed by event rank.
    soa_bottom: Vec<Coord>,
    /// Clipped top edges, indexed by event rank.
    soa_top: Vec<Coord>,
    /// Scanned-line index, indexed by event rank.
    soa_line: Vec<u32>,
    /// Chunked boundary bitmask over the scanned columns: bit `c` is set
    /// when a line starts at relative column `c`.
    start_mask: Vec<u64>,
    /// Bit `c` set when a line's last covered column is `c - 1`.
    end_mask: Vec<u64>,
    /// Span boundaries (`start_mask | end_mask | bit 0`) decoded to
    /// ascending relative columns.
    spans: Vec<u32>,
    /// Exclusive prefix offsets into `starters`, one per scanned column + 1.
    start_offsets: Vec<u32>,
    /// Event ranks grouped by first covered column, each group rank-sorted.
    starters: Vec<u32>,
    /// Exclusive prefix offsets into `enders`, one per scanned column + 1.
    end_offsets: Vec<u32>,
    /// Event ranks grouped by the column *after* their last, rank-sorted.
    enders: Vec<u32>,
    /// Per-column write cursors shared by both distributions.
    start_cursors: Vec<u32>,
    /// Chunked active-set bitmask over event ranks: bit `r` set while
    /// event `r` covers the current span. Ascending bit order is
    /// ascending rank order — the emission order of the interval walk.
    active_words: Vec<u64>,
}

/// Runs the Figure-7 scan over `bounds`, producing every slack column.
///
/// `lines` must be in the horizontal frame (see
/// [`crate::extract_active_lines`]); only their overlap with `bounds` is
/// considered. Site columns narrower than one site pitch (at the right
/// boundary) are skipped — they cannot hold a feature.
///
/// Convenience wrapper over [`scan_slack_columns_into`] with a fresh
/// scratch; repeated callers should hold their own [`ScanScratch`].
pub fn scan_slack_columns(
    lines: &[ActiveLine],
    bounds: Rect,
    rules: FillRules,
) -> Vec<SlackColumn> {
    let mut scratch = ScanScratch::default();
    let mut out = Vec::new();
    scan_slack_columns_into(lines, bounds, rules, &mut scratch, &mut out);
    out
}

/// [`scan_slack_columns`] over a caller-owned scratch arena and output
/// buffer: `out` is cleared and refilled, and with warm buffers the scan
/// performs no heap allocation.
pub fn scan_slack_columns_into(
    lines: &[ActiveLine],
    bounds: Rect,
    rules: FillRules,
    scratch: &mut ScanScratch,
    out: &mut Vec<SlackColumn>,
) {
    out.clear();
    let n_cols = site_column_count(bounds, rules);
    scan_site_columns(lines, bounds, rules, 0..n_cols, scratch, out);
}

/// Number of full site columns across `bounds`.
pub fn site_column_count(bounds: Rect, rules: FillRules) -> usize {
    units::index(bounds.width() / rules.site_pitch())
}

/// Builds the bottom-sorted sweep events of `lines` over the site columns
/// `lo_site..hi_site` (step 2 of Figure 7), with covered columns stored
/// relative to `lo_site`. Each line is expanded by the buffer distance in
/// x so that no slot can be created within the buffer of a line *end*; the
/// vertical buffer is enforced per-slot instead (`Slots::for_gap`), which
/// keeps the gap's edge-to-edge distance `d` exact for the capacitance
/// model. Equal bottoms stay in line order, matching the historical
/// stable sweep exactly: each line yields at most one event and events
/// are pushed in line order, so the unstable sort's `(bottom, line)` key
/// is duplicate-free and reproduces a stable bottom sort without the
/// merge-buffer allocation.
fn build_events(
    lines: &[ActiveLine],
    bounds: Rect,
    rules: FillRules,
    lo_site: usize,
    hi_site: usize,
    events: &mut Vec<SweepEvent>,
) {
    let pitch = rules.site_pitch();
    events.clear();
    for (i, l) in lines.iter().enumerate() {
        let expanded = Rect::new(
            l.rect.left - rules.buffer,
            l.rect.bottom,
            l.rect.right + rules.buffer,
            l.rect.top,
        );
        let clipped = expanded.intersection(&bounds);
        if clipped.is_empty() {
            continue;
        }
        // Site columns whose [x, x+pitch) overlaps the rect's x span,
        // clamped to the requested range.
        let lo = units::index(((clipped.left - bounds.left) / pitch).max(0)).max(lo_site);
        let hi = units::index((clipped.right - 1 - bounds.left) / pitch).min(hi_site - 1);
        if lo > hi {
            continue;
        }
        // Site indices are bounded by die width / pitch and line indices
        // by the input slice length — both far below u32::MAX.
        events.push(SweepEvent {
            bottom: clipped.bottom,
            top: clipped.top,
            lo: (lo - lo_site) as u32, // pilfill: allow(as-cast)
            hi: (hi - lo_site) as u32, // pilfill: allow(as-cast)
            line: i as u32,            // pilfill: allow(as-cast)
        });
    }
    events.sort_unstable_by_key(|e| (e.bottom, e.line));
}

/// Scans only the site columns in `sites` (absolute indices), *appending*
/// their slack columns to `out` in (site_x, gap.lo) order. This is the
/// partial-rescan entry used by the incremental rebuild cache: columns of
/// clean site ranges are reused, dirty ranges are re-swept.
///
/// This is the production span sweep (see the module docs); its output is
/// bit-identical to the retained interval walk, enforced by seeded
/// property tests.
pub fn scan_site_columns(
    lines: &[ActiveLine],
    bounds: Rect,
    rules: FillRules,
    sites: std::ops::Range<usize>,
    scratch: &mut ScanScratch,
    out: &mut Vec<SlackColumn>,
) {
    let pitch = rules.site_pitch();
    let n_cols = site_column_count(bounds, rules);
    let lo_site = sites.start.min(n_cols);
    let hi_site = sites.end.min(n_cols);
    if lo_site >= hi_site {
        return;
    }
    let n_active = hi_site - lo_site;

    build_events(lines, bounds, rules, lo_site, hi_site, &mut scratch.events);
    let ScanScratch {
        events,
        soa_bottom,
        soa_top,
        soa_line,
        start_mask,
        end_mask,
        spans,
        start_offsets,
        starters,
        end_offsets,
        enders,
        start_cursors,
        active_words,
        ..
    } = scratch;
    const W: usize = layout::MASK_WORD_BITS;

    // Struct-of-arrays mirrors: the emission loop reads bottoms, tops and
    // line indices as independent flat streams instead of chasing whole
    // event structs through the cache.
    soa_bottom.clear();
    soa_top.clear();
    soa_line.clear();
    for e in events.iter() {
        soa_bottom.push(e.bottom);
        soa_top.push(e.top);
        soa_line.push(e.line);
    }

    // Boundary bitmasks: bit `c` of `start_mask` marks a line's first
    // covered column, bit `c` of `end_mask` the column right after a
    // line's last. Maximal runs with neither bit set are spans whose
    // columns all emit identical gaps. u32 -> usize below is widening on
    // every supported target.
    let words = n_active.div_ceil(W);
    start_mask.clear();
    start_mask.resize(words, 0);
    end_mask.clear();
    end_mask.resize(words, 0);
    for e in events.iter() {
        let lo = e.lo as usize; // pilfill: allow(as-cast)
        start_mask[lo / W] |= 1u64 << (lo % W);
        let after = e.hi as usize + 1; // pilfill: allow(as-cast)
        if after < n_active {
            end_mask[after / W] |= 1u64 << (after % W);
        }
    }
    // Word-level bit scan of the union: each boundary costs one
    // `trailing_zeros` plus one clear-lowest-bit, independent of how wide
    // its span is.
    spans.clear();
    for wi in 0..words {
        let mut w = start_mask[wi] | end_mask[wi];
        if wi == 0 {
            w |= 1;
        }
        while w != 0 {
            let bit = w.trailing_zeros() as usize; // pilfill: allow(as-cast)
            spans.push((wi * W + bit) as u32); // pilfill: allow(as-cast)
            w &= w - 1;
        }
    }

    // Counting-sort the events into per-boundary schedules: `starters[b]`
    // holds the ranks whose first column is `b`, `enders[b]` the ranks
    // whose last column is `b - 1`. Distributing in rank (bottom-sort)
    // order keeps each group rank-sorted.
    start_offsets.clear();
    start_offsets.resize(n_active + 1, 0);
    end_offsets.clear();
    end_offsets.resize(n_active + 1, 0);
    for e in events.iter() {
        start_offsets[e.lo as usize + 1] += 1; // pilfill: allow(as-cast)
        let after = e.hi as usize + 1; // pilfill: allow(as-cast)
        if after < n_active {
            end_offsets[after + 1] += 1;
        }
    }
    for i in 0..n_active {
        start_offsets[i + 1] += start_offsets[i];
        end_offsets[i + 1] += end_offsets[i];
    }
    starters.clear();
    starters.resize(events.len(), 0);
    start_cursors.clear();
    start_cursors.extend_from_slice(&start_offsets[..n_active]);
    for (rank, e) in events.iter().enumerate() {
        let cursor = &mut start_cursors[e.lo as usize]; // pilfill: allow(as-cast)
        starters[*cursor as usize] = rank as u32; // pilfill: allow(as-cast)
        *cursor += 1;
    }
    enders.clear();
    enders.resize(units::index(Coord::from(end_offsets[n_active])), 0);
    start_cursors.clear();
    start_cursors.extend_from_slice(&end_offsets[..n_active]);
    for (rank, e) in events.iter().enumerate() {
        let after = e.hi as usize + 1; // pilfill: allow(as-cast)
        if after < n_active {
            let cursor = &mut start_cursors[after];
            enders[*cursor as usize] = rank as u32; // pilfill: allow(as-cast)
            *cursor += 1;
        }
    }

    // The active set as a chunked bitmask over event ranks: entering a
    // boundary costs O(starts + expiries) single-bit flips (amortized two
    // per event over the whole sweep), and walking the set bits in word
    // order replays the events in ascending rank order — exactly the
    // bottom-sorted sequence the per-column interval walk sees.
    active_words.clear();
    active_words.resize(events.len().div_ceil(W), 0);

    let recip = PitchRecip::new(pitch);
    let feature = rules.feature_size;
    let buffer = rules.buffer;
    for (si, &boundary) in spans.iter().enumerate() {
        let b = boundary as usize; // pilfill: allow(as-cast)
        let b_end = spans.get(si + 1).map_or(n_active, |&n| n as usize); // pilfill: allow(as-cast)

        if end_mask[b / W] & (1u64 << (b % W)) != 0 {
            // pilfill: allow(as-cast)
            let (e0, e1) = (end_offsets[b] as usize, end_offsets[b + 1] as usize);
            for &r in &enders[e0..e1] {
                let r = r as usize; // pilfill: allow(as-cast)
                active_words[r / W] &= !(1u64 << (r % W));
            }
        }
        if start_mask[b / W] & (1u64 << (b % W)) != 0 {
            // pilfill: allow(as-cast)
            let (s0, s1) = (start_offsets[b] as usize, start_offsets[b + 1] as usize);
            for &r in &starters[s0..s1] {
                let r = r as usize; // pilfill: allow(as-cast)
                active_words[r / W] |= 1u64 << (r % W);
            }
        }

        // Emit the span's first column directly (step 14 of Figure 7:
        // gaps open at the area bottom or the previous line's top, close
        // at the next line's bottom or the area top; empty gaps are
        // skipped). The slot count uses the exact pitch reciprocal.
        let run_start = out.len();
        let site_x = lo_site + b;
        let x = bounds.left + units::coord(site_x) * pitch;
        let mut open_y = bounds.bottom;
        let mut open_below: Option<u32> = None;
        let mut emit = |gap: Interval, below: Option<u32>, above: Option<u32>| {
            if gap.is_empty() {
                return;
            }
            let slot_lo = gap.lo + if below.is_some() { buffer } else { 0 };
            let slot_hi = gap.hi - if above.is_some() { buffer } else { 0 };
            let avail = slot_hi - slot_lo - feature;
            let slots = if avail < 0 {
                Slots::EMPTY
            } else if avail < 1 << 32 {
                // Same result as `Slots::for_gap`: the reciprocal divide
                // is exact on this range and the count fits u32.
                Slots::evenly(slot_lo, pitch, (recip.div(avail) + 1) as u32) // pilfill: allow(as-cast)
            } else {
                Slots::for_gap(gap, below.is_some(), above.is_some(), rules)
            };
            out.push(SlackColumn {
                site_x,
                x,
                gap,
                below,
                above,
                slots,
            });
        };
        for (wi, &word) in active_words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let r = wi * W + w.trailing_zeros() as usize; // pilfill: allow(as-cast)
                w &= w - 1;
                let below_line = Some(soa_line[r]);
                emit(Interval::new(open_y, soa_bottom[r]), open_below, below_line);
                open_y = open_y.max(soa_top[r]);
                open_below = below_line;
            }
        }
        emit(Interval::new(open_y, bounds.top), open_below, None);

        // Replicate the emitted run for the span's remaining columns: a
        // SlackColumn is `Copy`, so each is a site_x/x patch.
        let run_end = out.len();
        for rel in b + 1..b_end {
            let site_x = lo_site + rel;
            let x = bounds.left + units::coord(site_x) * pitch;
            for k in run_start..run_end {
                let mut col = out[k];
                col.site_x = site_x;
                col.x = x;
                out.push(col);
            }
        }
    }
}

/// Site-column index of a fill feature at `feature`, or `None` when the
/// feature lies outside `bounds`. The far edges are rejected before any
/// subtraction and the offset is taken with checked arithmetic, so a
/// feature at an extreme coordinate (e.g. `i64::MAX` on a die with a
/// negative origin) yields `None` instead of overflowing.
pub(crate) fn feature_site(bounds: Rect, rules: FillRules, feature: FillFeature) -> Option<usize> {
    if !bounds.x_span().contains(feature.x) || !bounds.y_span().contains(feature.y) {
        return None;
    }
    let dx = feature.x.checked_sub(bounds.left)?;
    Some(units::index(dx / rules.site_pitch()))
}

/// Locates the slack column (by index into `columns`) that contains a fill
/// feature placed at `feature` with a cold binary search. Returns `None`
/// for positions outside every column (e.g. inside a line or out of
/// bounds).
///
/// `columns` must be the unmodified result of [`scan_slack_columns`] for
/// the same `bounds` and `rules`. The evaluator locates incrementally
/// instead; this is the oracle its cursor is tested against.
#[cfg(test)]
pub(crate) fn locate_feature(
    columns: &[SlackColumn],
    bounds: Rect,
    rules: FillRules,
    feature: FillFeature,
) -> Option<usize> {
    let site_x = feature_site(bounds, rules, feature)?;
    // Binary search the sorted (site_x, gap.lo) order.
    let start = columns.partition_point(|c| c.site_x < site_x);
    columns[start..]
        .iter()
        .take_while(|c| c.site_x == site_x)
        .position(|c| c.gap.contains(feature.y))
        .map(|offset| start + offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_layout::{NetId, SegmentId, SignalDir};

    /// Randomized bit-identity tests for the span-sweep scanline against the
    /// retained interval-walk reference: same `SlackColumn` output on random
    /// line sets, on random stitched site ranges, and through the tile
    /// problems of all three slack-column definitions. Driven by the in-repo
    /// seeded PRNG so every run explores the same cases.
    mod soa_props {
        use super::{scan_site_columns_reference, scan_slack_columns_reference};
        use crate::{
            build_tile_problems, scan_site_columns, scan_slack_columns, site_column_count,
            ActiveLine, ScanScratch, SlackColumn, SlackColumnDef,
        };
        use pilfill_density::FixedDissection;
        use pilfill_geom::Rect;
        use pilfill_layout::{FillRules, NetId, SegmentId, SignalDir, Tech};
        use pilfill_prng::rngs::StdRng;
        use pilfill_prng::{Rng, SeedableRng};

        fn rules() -> FillRules {
            FillRules {
                feature_size: 300,
                gap: 150,
                buffer: 150,
            }
        }

        fn bounds() -> Rect {
            Rect::new(0, 0, 9_000, 9_000)
        }

        /// Random horizontal, non-overlapping lines inside the bounds; includes
        /// equal-bottom clusters (stable-sort tie-break coverage) and tall lines
        /// spanning many site columns.
        fn rand_lines(rng: &mut StdRng) -> Vec<ActiveLine> {
            let n = rng.gen_range(0usize..24);
            let mut lines: Vec<ActiveLine> = Vec::new();
            for _ in 0..n {
                let xs = rng.gen_range(0i64..18);
                // Bias tracks toward a few values so several lines share a bottom
                // edge and the sweep's tie order is exercised.
                let track = if rng.gen::<bool>() {
                    rng.gen_range(0i64..28)
                } else {
                    rng.gen_range(0i64..4) * 7
                };
                let len = rng.gen_range(1i64..18);
                let height = if rng.gen_range(0u32..8) == 0 {
                    1_200
                } else {
                    280
                };
                let y = 300 + track * 300;
                let rect = Rect::new(xs * 450, y, (xs + len).min(20) * 450, y + height);
                if rect.is_empty() || rect.right > 9_000 || rect.top > 9_000 {
                    continue;
                }
                if lines.iter().any(|l| l.rect.overlaps(&rect)) {
                    continue;
                }
                lines.push(ActiveLine {
                    net: Some(NetId(lines.len())),
                    segment: SegmentId(0),
                    rect,
                    weight: 1 + (lines.len() as u32 % 3),
                    res_per_dbu: 2.5e-4,
                    upstream_res: rng.gen_range(0.0f64..20.0),
                    entry_x: rect.left,
                    signal: SignalDir::Increasing,
                });
            }
            lines
        }

        /// Full-die scans must agree column-for-column (site, x, gap, neighbor
        /// indices, slots — `SlackColumn` is `PartialEq` over all fields).
        #[test]
        fn span_sweep_matches_reference_on_random_line_sets() {
            let mut rng = StdRng::seed_from_u64(0x50A_0001);
            for _ in 0..64 {
                let lines = rand_lines(&mut rng);
                let fast = scan_slack_columns(&lines, bounds(), rules());
                let reference = scan_slack_columns_reference(&lines, bounds(), rules());
                assert_eq!(fast, reference, "lines = {}", lines.len());
            }
        }

        /// Scanning random site sub-ranges and stitching them back together must
        /// reproduce both the reference on the same ranges and the full-die scan:
        /// the sharded tile builders rely on partial scans being exact.
        #[test]
        fn stitched_partial_scans_match_reference_and_full_scan() {
            let mut rng = StdRng::seed_from_u64(0x50A_0002);
            let r = rules();
            let b = bounds();
            let n_cols = site_column_count(b, r);
            let mut scratch = ScanScratch::default();
            let mut ref_scratch = ScanScratch::default();
            for _ in 0..64 {
                let lines = rand_lines(&mut rng);
                let full = scan_slack_columns(&lines, b, r);
                // Cut the site range at 1..4 random interior points.
                let mut cuts: Vec<usize> = (0..rng.gen_range(1usize..5))
                    .map(|_| rng.gen_range(0..=n_cols))
                    .collect();
                cuts.push(0);
                cuts.push(n_cols);
                cuts.sort_unstable();
                let mut stitched: Vec<SlackColumn> = Vec::new();
                for w in cuts.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    let mut fast = Vec::new();
                    let mut reference = Vec::new();
                    scan_site_columns(&lines, b, r, lo..hi, &mut scratch, &mut fast);
                    scan_site_columns_reference(
                        &lines,
                        b,
                        r,
                        lo..hi,
                        &mut ref_scratch,
                        &mut reference,
                    );
                    assert_eq!(fast, reference, "range {lo}..{hi}");
                    stitched.extend_from_slice(&fast);
                }
                assert_eq!(stitched, full, "stitching the cuts loses columns");
            }
        }

        /// The scan feeds the tile builders; the problems built from the span
        /// sweep's columns must equal those built from the reference's columns
        /// under every slack-column definition.
        #[test]
        fn tile_problems_agree_under_all_three_definitions() {
            let mut rng = StdRng::seed_from_u64(0x50A_0003);
            let r = rules();
            let b = bounds();
            let tech = Tech::default_180nm();
            let dissection = FixedDissection::new(b, 4_500, 2).expect("valid dissection");
            for _ in 0..16 {
                let lines = rand_lines(&mut rng);
                let fast = scan_slack_columns(&lines, b, r);
                let reference = scan_slack_columns_reference(&lines, b, r);
                assert_eq!(fast, reference);
                for def in [
                    SlackColumnDef::One,
                    SlackColumnDef::Two,
                    SlackColumnDef::Three,
                ] {
                    let p_fast = build_tile_problems(&lines, &fast, &dissection, &tech, r, def);
                    let p_ref = build_tile_problems(&lines, &reference, &dissection, &tech, r, def);
                    assert_eq!(p_fast.len(), p_ref.len(), "{def:?}");
                    for (a, b) in p_fast.iter().zip(&p_ref) {
                        assert_eq!(a.columns, b.columns, "{def:?}");
                    }
                }
            }
        }

        /// Degenerate inputs: empty line set, a single line, and a line filling
        /// almost the whole die.
        #[test]
        fn span_sweep_matches_reference_on_degenerate_inputs() {
            let r = rules();
            let b = bounds();
            let mk = |rect: Rect| ActiveLine {
                net: Some(NetId(0)),
                segment: SegmentId(0),
                rect,
                weight: 1,
                res_per_dbu: 2.5e-4,
                upstream_res: 1.0,
                entry_x: rect.left,
                signal: SignalDir::Increasing,
            };
            let cases: Vec<Vec<ActiveLine>> = vec![
                vec![],
                vec![mk(Rect::new(450, 300, 900, 580))],
                vec![mk(Rect::new(0, 150, 9_000, 8_850))],
                vec![mk(Rect::new(0, 0, 450, 9_000))],
            ];
            for lines in cases {
                let fast = scan_slack_columns(&lines, b, r);
                let reference = scan_slack_columns_reference(&lines, b, r);
                assert_eq!(fast, reference);
            }
        }
    }

    /// The retained per-column interval walk — the original Figure-7 sweep,
    /// kept as the oracle [`scan_site_columns`] is property-tested against.
    /// Same contract and output, O(columns x events) bucket distribution
    /// instead of span templates.
    fn scan_site_columns_reference(
        lines: &[ActiveLine],
        bounds: Rect,
        rules: FillRules,
        sites: std::ops::Range<usize>,
        scratch: &mut ScanScratch,
        out: &mut Vec<SlackColumn>,
    ) {
        let pitch = rules.site_pitch();
        let n_cols = site_column_count(bounds, rules);
        let lo_site = sites.start.min(n_cols);
        let hi_site = sites.end.min(n_cols);
        if lo_site >= hi_site {
            return;
        }
        let n_active = hi_site - lo_site;

        build_events(lines, bounds, rules, lo_site, hi_site, &mut scratch.events);
        let events = &scratch.events;

        // Counting-sort the events into per-column groups. Distributing in
        // global bottom order keeps each group bottom-sorted with the same
        // tie-breaks, so the per-column sweep below sees exactly the event
        // sequence the historical single-pass sweep saw.
        let mut offsets = vec![0u32; n_active + 1];
        for e in events.iter() {
            for c in e.lo..=e.hi {
                // u32 -> usize is widening on every supported target.
                offsets[c as usize + 1] += 1; // pilfill: allow(as-cast)
            }
        }
        for i in 0..n_active {
            offsets[i + 1] += offsets[i];
        }
        let mut cursors = offsets[..n_active].to_vec();
        let mut bucket = vec![0u32; units::index(Coord::from(offsets[n_active]))];
        // u32 -> usize below is widening; event indices fit u32 because the
        // event count is bounded by the line count.
        for (ei, e) in events.iter().enumerate() {
            for c in e.lo..=e.hi {
                let cursor = &mut cursors[c as usize]; // pilfill: allow(as-cast)
                bucket[*cursor as usize] = ei as u32; // pilfill: allow(as-cast)
                *cursor += 1;
            }
        }

        // Sweep each column independently: gaps open at the area bottom (or
        // the previous line's top) and close at the next line's bottom (step
        // 14: the area top). Emission is naturally sorted by (site_x, gap.lo).
        let emit = |site_x: usize,
                    gap: Interval,
                    below: Option<u32>,
                    above: Option<u32>,
                    out: &mut Vec<SlackColumn>| {
            if gap.is_empty() {
                return;
            }
            out.push(SlackColumn {
                site_x,
                x: bounds.left + units::coord(site_x) * pitch,
                gap,
                below,
                above,
                slots: Slots::for_gap(gap, below.is_some(), above.is_some(), rules),
            });
        };
        for rel in 0..n_active {
            let site_x = lo_site + rel;
            let mut open_y = bounds.bottom;
            let mut open_below: Option<u32> = None;
            // u32 -> usize throughout the sweep is widening on every
            // supported target.
            let group = &bucket[offsets[rel] as usize..offsets[rel + 1] as usize]; // pilfill: allow(as-cast)
            for &ei in group {
                let e = &events[ei as usize]; // pilfill: allow(as-cast)
                let below_line = Some(e.line);
                emit(
                    site_x,
                    Interval::new(open_y, e.bottom),
                    open_below,
                    below_line,
                    out,
                );
                open_y = open_y.max(e.top);
                open_below = below_line;
            }
            emit(
                site_x,
                Interval::new(open_y, bounds.top),
                open_below,
                None,
                out,
            );
        }
    }

    /// [`scan_slack_columns`] routed through the retained interval walk
    /// ([`scan_site_columns_reference`]) — the comparison oracle for property
    /// tests.
    fn scan_slack_columns_reference(
        lines: &[ActiveLine],
        bounds: Rect,
        rules: FillRules,
    ) -> Vec<SlackColumn> {
        let mut scratch = ScanScratch::default();
        let mut out = Vec::new();
        let n_cols = site_column_count(bounds, rules);
        scan_site_columns_reference(lines, bounds, rules, 0..n_cols, &mut scratch, &mut out);
        out
    }

    fn rules() -> FillRules {
        FillRules {
            feature_size: 300,
            gap: 150,
            buffer: 150,
        }
    }

    fn line(rect: Rect) -> ActiveLine {
        ActiveLine {
            net: Some(NetId(0)),
            segment: SegmentId(0),
            rect,
            weight: 1,
            res_per_dbu: 3.5e-4,
            upstream_res: 0.0,
            entry_x: rect.left,
            signal: SignalDir::Increasing,
        }
    }

    /// The pre-progression slot rule, kept as the reference for
    /// [`Slots::for_gap`].
    fn slots_by_loop(gap: Interval, below_is_line: bool, above_is_line: bool) -> Vec<Coord> {
        let r = rules();
        let lo = gap.lo + if below_is_line { r.buffer } else { 0 };
        let hi = gap.hi - if above_is_line { r.buffer } else { 0 };
        let mut slots = Vec::new();
        let mut y = lo;
        while y + r.feature_size <= hi {
            slots.push(y);
            y += r.site_pitch();
        }
        slots
    }

    #[test]
    fn slots_progression_matches_reference_loop() {
        for lo in [-900, 0, 37, 449, 450] {
            for len in 0..2_000 {
                let gap = Interval::new(lo, lo + len);
                for (below, above) in [(false, false), (true, false), (false, true), (true, true)] {
                    let want = slots_by_loop(gap, below, above);
                    let got = Slots::for_gap(gap, below, above, rules());
                    assert_eq!(got.len(), want.len(), "gap {gap} {below}/{above}");
                    assert_eq!(got.iter().collect::<Vec<_>>(), want);
                    assert_eq!(got.first(), want.first().copied());
                    assert_eq!(got.last(), want.last().copied());
                    for (i, &w) in want.iter().enumerate() {
                        assert_eq!(got.get(i), Some(w));
                    }
                    assert_eq!(got.get(want.len()), None);
                }
            }
        }
    }

    #[test]
    fn slots_slice_and_count_below_are_consistent() {
        let gap = Interval::new(1_000, 5_000);
        let slots = Slots::for_gap(gap, true, true, rules());
        let all: Vec<Coord> = slots.iter().collect();
        assert!(slots.len() >= 3, "test wants a few slots");
        for start in 0..=slots.len() {
            for len in 0..=slots.len() + 1 {
                let sub = slots.slice(start, len);
                let want: Vec<Coord> = all[start.min(all.len())..]
                    .iter()
                    .take(len)
                    .copied()
                    .collect();
                assert_eq!(sub.iter().collect::<Vec<_>>(), want, "slice({start},{len})");
            }
        }
        for y in (gap.lo - 500..gap.hi + 500).step_by(77) {
            let want = all.iter().filter(|&&s| s < y).count();
            assert_eq!(slots.count_below(y), want, "count_below({y})");
        }
        // Split at a slot boundary: the two halves partition the slots.
        if let Some(mid) = slots.get(1) {
            let k = slots.count_below(mid);
            assert_eq!(k, 1);
            let below = slots.slice(0, k);
            let above = slots.slice(k, slots.len() - k);
            let mut rejoined: Vec<Coord> = below.iter().collect();
            rejoined.extend(above.iter());
            assert_eq!(rejoined, all);
        }
    }

    #[test]
    fn empty_area_yields_full_height_columns() {
        let bounds = Rect::new(0, 0, 4_500, 3_000);
        let cols = scan_slack_columns(&[], bounds, rules());
        assert_eq!(cols.len(), 10); // 4500 / 450
        for c in &cols {
            assert_eq!(c.gap, Interval::new(0, 3_000));
            assert_eq!(c.below, None);
            assert_eq!(c.above, None);
            // No buffers at boundaries: slots at 0, 450, ..., 2700.
            assert_eq!(c.capacity(), 7);
            assert_eq!(c.distance(), None);
        }
    }

    #[test]
    fn single_line_splits_columns() {
        let bounds = Rect::new(0, 0, 900, 10_000);
        let l = line(Rect::new(0, 4_000, 900, 4_200));
        let cols = scan_slack_columns(&[l], bounds, rules());
        // 2 site columns x 2 gaps each.
        assert_eq!(cols.len(), 4);
        let below_gaps: Vec<_> = cols.iter().filter(|c| c.above == Some(0)).collect();
        let above_gaps: Vec<_> = cols.iter().filter(|c| c.below == Some(0)).collect();
        assert_eq!(below_gaps.len(), 2);
        assert_eq!(above_gaps.len(), 2);
        assert_eq!(below_gaps[0].gap, Interval::new(0, 4_000));
        assert_eq!(above_gaps[0].gap, Interval::new(4_200, 10_000));
        // Buffer applies on the line side only.
        assert_eq!(below_gaps[0].slots.first(), Some(0));
        let last = below_gaps[0].slots.last().expect("has slots");
        assert!(last + 300 <= 4_000 - 150);
    }

    #[test]
    fn gap_between_two_lines_has_distance() {
        let bounds = Rect::new(0, 0, 450, 10_000);
        let a = line(Rect::new(0, 1_000, 450, 1_200));
        let b = line(Rect::new(0, 3_000, 450, 3_300));
        let cols = scan_slack_columns(&[a, b], bounds, rules());
        let mid = cols
            .iter()
            .find(|c| c.below == Some(0) && c.above == Some(1))
            .expect("middle gap");
        assert_eq!(mid.gap, Interval::new(1_200, 3_000));
        assert_eq!(mid.distance(), Some(1_800));
        // usable = 1800 - 300 = 1500 -> slots at 1350, 1800, 2250 + ...
        // floor((1500 - 300)/450)+1 = 3.
        assert_eq!(mid.capacity(), 3);
        // All slots respect buffers.
        for s in mid.slots.iter() {
            assert!(s >= 1_200 + 150);
            assert!(s + 300 <= 3_000 - 150);
        }
    }

    #[test]
    fn capacity_matches_rc_helper_for_line_line_gaps() {
        let bounds = Rect::new(0, 0, 450, 50_000);
        for gap_len in (700..20_000).step_by(333) {
            let a = line(Rect::new(0, 1_000, 450, 1_200));
            let b = line(Rect::new(0, 1_200 + gap_len, 450, 1_500 + gap_len));
            let cols = scan_slack_columns(&[a, b], bounds, rules());
            let mid = cols
                .iter()
                .find(|c| c.below == Some(0) && c.above == Some(1))
                .expect("gap");
            assert_eq!(
                mid.capacity(),
                pilfill_rc::max_fill_features(gap_len, rules()),
                "gap {gap_len}"
            );
        }
    }

    #[test]
    fn partial_x_overlap_only_affects_covered_columns() {
        let bounds = Rect::new(0, 0, 1_800, 5_000); // 4 site columns
                                                    // The line covers columns 0 and 1; its buffer-expanded extent
                                                    // [-150, 1050) additionally blocks column 2 ([900, 1350)).
        let l = line(Rect::new(0, 2_000, 900, 2_200));
        let cols = scan_slack_columns(&[l], bounds, rules());
        let full: Vec<_> = cols
            .iter()
            .filter(|c| c.gap == Interval::new(0, 5_000))
            .collect();
        assert_eq!(full.len(), 1); // only column 3 untouched
        assert!(full.iter().all(|c| c.site_x == 3));
    }

    #[test]
    fn no_slot_within_buffer_of_a_line_end() {
        let bounds = Rect::new(0, 0, 4_500, 5_000);
        let l = line(Rect::new(2_000, 2_000, 3_000, 2_280));
        let r = rules();
        let cols = scan_slack_columns(&[l], bounds, r);
        for c in &cols {
            for slot in c.slots.iter() {
                let feat = Rect::new(
                    c.feature_x(r),
                    slot,
                    c.feature_x(r) + r.feature_size,
                    slot + r.feature_size,
                );
                let keepout = Rect::new(2_000, 2_000, 3_000, 2_280).grown(r.buffer);
                assert!(
                    !feat.overlaps(&keepout),
                    "slot at {feat} violates buffer around the line"
                );
            }
        }
    }

    #[test]
    fn touching_lines_produce_no_gap_between() {
        let bounds = Rect::new(0, 0, 450, 5_000);
        let a = line(Rect::new(0, 1_000, 450, 2_000));
        let b = line(Rect::new(0, 2_000, 450, 3_000));
        let cols = scan_slack_columns(&[a, b], bounds, rules());
        assert!(cols
            .iter()
            .all(|c| !(c.below == Some(0) && c.above == Some(1))));
        assert_eq!(cols.len(), 2); // bottom and top boundary gaps only
    }

    #[test]
    fn locate_feature_round_trips_slots() {
        let bounds = Rect::new(0, 0, 4_500, 8_000);
        let a = line(Rect::new(900, 3_000, 3_600, 3_300));
        let cols = scan_slack_columns(&[a], bounds, rules());
        for (i, c) in cols.iter().enumerate() {
            for slot in c.slots.iter() {
                let f = FillFeature {
                    x: c.feature_x(rules()),
                    y: slot,
                };
                assert_eq!(
                    locate_feature(&cols, bounds, rules(), f),
                    Some(i),
                    "column {i} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn locate_feature_outside_returns_none() {
        let bounds = Rect::new(0, 0, 900, 5_000);
        let a = line(Rect::new(0, 2_000, 900, 2_500));
        let cols = scan_slack_columns(&[a], bounds, rules());
        // Inside the line.
        let inside = FillFeature { x: 75, y: 2_100 };
        assert_eq!(locate_feature(&cols, bounds, rules(), inside), None);
        // Out of bounds.
        let out = FillFeature { x: -10, y: 0 };
        assert_eq!(locate_feature(&cols, bounds, rules(), out), None);
    }

    #[test]
    fn slot_capacity_sums_are_stable_under_line_order() {
        let bounds = Rect::new(0, 0, 2_700, 9_000);
        let mut lines = vec![
            line(Rect::new(0, 1_000, 2_700, 1_200)),
            line(Rect::new(450, 5_000, 1_800, 5_300)),
            line(Rect::new(0, 7_000, 900, 7_400)),
        ];
        let a = scan_slack_columns(&lines, bounds, rules());
        lines.reverse();
        // Line indices change, but geometry (gaps and capacities) must not.
        let b = scan_slack_columns(&lines, bounds, rules());
        let summarize = |cols: &[SlackColumn]| -> Vec<(usize, Interval, u32)> {
            cols.iter()
                .map(|c| (c.site_x, c.gap, c.capacity()))
                .collect()
        };
        assert_eq!(summarize(&a), summarize(&b));
    }

    #[test]
    fn partial_site_range_scan_matches_the_full_scan() {
        let bounds = Rect::new(0, 0, 4_500, 9_000);
        let lines = vec![
            line(Rect::new(0, 1_000, 4_500, 1_200)),
            line(Rect::new(900, 5_000, 2_700, 5_300)),
            line(Rect::new(1_800, 7_000, 4_500, 7_400)),
        ];
        let full = scan_slack_columns(&lines, bounds, rules());
        let n = site_column_count(bounds, rules());
        let mut scratch = ScanScratch::default();
        // Re-scan in arbitrary chunk sizes; concatenation must equal the
        // full scan exactly (this is the rebuild cache's contract).
        for chunk in [1usize, 2, 3, 7, n] {
            let mut stitched = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                scan_site_columns(
                    &lines,
                    bounds,
                    rules(),
                    start..end,
                    &mut scratch,
                    &mut stitched,
                );
                start = end;
            }
            assert_eq!(stitched, full, "chunk size {chunk}");
        }
    }

    #[test]
    fn span_sweep_matches_the_reference_interval_walk() {
        let bounds = Rect::new(0, 0, 9_000, 9_000);
        let lines = vec![
            line(Rect::new(0, 1_000, 9_000, 1_200)),
            // Equal bottoms with overlap: tie-break order must survive.
            line(Rect::new(900, 1_000, 2_700, 1_300)),
            line(Rect::new(1_800, 5_000, 4_500, 5_300)),
            line(Rect::new(4_500, 5_000, 9_000, 5_200)),
            line(Rect::new(0, 7_000, 900, 7_400)),
            // A tall skinny line: many boundaries in one mask word.
            line(Rect::new(8_100, 200, 8_550, 8_800)),
        ];
        assert_eq!(
            scan_slack_columns(&lines, bounds, rules()),
            scan_slack_columns_reference(&lines, bounds, rules()),
        );
        let n = site_column_count(bounds, rules());
        let mut scratch = ScanScratch::default();
        for range in [0..3, 2..n, 5..7, 0..n, 3..3] {
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            scan_site_columns(
                &lines,
                bounds,
                rules(),
                range.clone(),
                &mut scratch,
                &mut fast,
            );
            scan_site_columns_reference(
                &lines,
                bounds,
                rules(),
                range.clone(),
                &mut scratch,
                &mut slow,
            );
            assert_eq!(fast, slow, "range {range:?}");
        }
    }

    #[test]
    fn warm_rescan_into_scratch_is_reusable() {
        let bounds = Rect::new(0, 0, 2_700, 9_000);
        let lines = vec![
            line(Rect::new(0, 1_000, 2_700, 1_200)),
            line(Rect::new(450, 5_000, 1_800, 5_300)),
        ];
        let mut scratch = ScanScratch::default();
        let mut out = Vec::new();
        scan_slack_columns_into(&lines, bounds, rules(), &mut scratch, &mut out);
        let first = out.clone();
        scan_slack_columns_into(&lines, bounds, rules(), &mut scratch, &mut out);
        assert_eq!(out, first);
        assert_eq!(out, scan_slack_columns(&lines, bounds, rules()));
    }
}
