//! Per-tile MDFC problem construction under the three slack-column
//! definitions of paper Section 5.1.
//!
//! Every definition is built from the global scan: each global column is
//! cut at tile-row boundaries, and each chunk becomes a column of the tile
//! it lies in, on the same legal sites under every definition. The
//! definitions differ only in which of the global column's two active
//! lines the tile column stays tied to:
//!
//! - [`SlackColumnDef::One`]: only chunks whose lines both touch the tile
//!   are usable. Remaining slack space is wasted, so a tile's capacity may
//!   fall short of its fill budget (the paper's stated weakness of this
//!   definition).
//! - [`SlackColumnDef::Two`]: every chunk is usable, but a line that does
//!   not touch the tile is dropped, so the optimizer sees the column as
//!   cost-free on that side even when a real active line sits just outside
//!   the tile — the mis-attribution the paper criticizes. The evaluator
//!   still charges the true line pair.
//! - [`SlackColumnDef::Three`]: every chunk keeps both lines, so a column
//!   inside the tile keeps its association with active lines in adjacent
//!   tiles. This is the most accurate definition and the default.
//!
//! A line touches a tile when its rect shares area with the tile's
//! ([`Rect::overlaps`]).

use crate::{ActiveLine, SlackColumn, Slots};
use pilfill_density::FixedDissection;
use pilfill_geom::{units, CellIndex, Coord, Grid, Rect};
use pilfill_layout::{FillRules, NetId, Tech};
use pilfill_rc::{CapTable, CouplingModel};
use std::borrow::Cow;

/// Which slack-column definition to build tile problems under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlackColumnDef {
    /// Line-to-line columns whose lines both touch the tile only
    /// (Figure 4).
    One,
    /// Every column, tied only to the lines that touch the tile, so a
    /// column bounded by the tile edge is free on that side (Figure 5).
    Two,
    /// Global columns intersected with the tile, keeping cross-tile line
    /// associations (Figure 6). The default.
    Three,
}

impl std::fmt::Display for SlackColumnDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SlackColumnDef::One => "SlackColumn-I",
            SlackColumnDef::Two => "SlackColumn-II",
            SlackColumnDef::Three => "SlackColumn-III",
        })
    }
}

/// The nets of a column's adjacent lines: at most two (the line below and
/// the line above), deduplicated, in insertion order. Stored inline so a
/// [`TileColumn`] owns no heap memory; derefs to `[NetId]`. Unused slots
/// always hold `NetId(0)`, so the derived equality compares the nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjacentNets {
    nets: [NetId; 2],
    len: u8,
}

impl AdjacentNets {
    /// No adjacent nets.
    pub const EMPTY: Self = Self {
        nets: [NetId(0); 2],
        len: 0,
    };

    /// Adds `net` unless it is already present.
    ///
    /// # Panics
    ///
    /// Panics if a third distinct net is added (a column has two sides).
    pub fn insert(&mut self, net: NetId) {
        if self.contains(&net) {
            return;
        }
        assert!(self.len < 2, "a column borders at most two nets");
        self.nets[usize::from(self.len)] = net;
        self.len += 1;
    }
}

impl From<NetId> for AdjacentNets {
    fn from(net: NetId) -> Self {
        let mut nets = Self::EMPTY;
        nets.insert(net);
        nets
    }
}

impl std::ops::Deref for AdjacentNets {
    type Target = [NetId];
    fn deref(&self) -> &[NetId] {
        &self.nets[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a AdjacentNets {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One decision column of a tile's MDFC instance. Plain data: every field
/// is inline (the capacitance table is evaluated in closed form, the
/// adjacent nets are a two-slot array), so building a column allocates
/// nothing and dropping a tile's columns frees one buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileColumn {
    /// x of a feature placed in this column.
    pub feature_x: Coord,
    /// Feasible slot bottoms inside this tile (ascending).
    pub slots: Slots,
    /// Line-to-line distance `d` of the capacitance model; `None` when the
    /// column is not (known to be) between two active lines, making its
    /// modeled cost zero.
    pub distance: Option<Coord>,
    /// Weighted delay coefficient: `sum W_l * R_l(x)` over adjacent lines.
    pub alpha_weighted: f64,
    /// Unweighted delay coefficient: `sum R_l(x)` over adjacent lines.
    pub alpha_unweighted: f64,
    /// Exact incremental capacitance per count (ILP-II's lookup table);
    /// `None` for zero-cost columns.
    pub table: Option<CapTable>,
    /// Linearized (Eq. 6) incremental capacitance per feature; zero for
    /// zero-cost columns. Used by ILP-I only.
    pub linear_cap_per_feature: f64,
    /// Nets of the adjacent lines (0-2 entries; deduplicated when both
    /// sides belong to the same net).
    pub adjacent_nets: AdjacentNets,
}

// A tile column must stay heap-free: a `Vec` or `Box` field would bring
// back one allocation per column on every tile build (and one free on
// every context drop).
const _: () = assert!(!std::mem::needs_drop::<TileColumn>());

impl TileColumn {
    /// Capacity of the column inside this tile.
    pub fn capacity(&self) -> u32 {
        pilfill_geom::units::saturating_count(self.slots.len() as u64)
    }

    /// Delay coefficient for the requested objective.
    pub fn alpha(&self, weighted: bool) -> f64 {
        if weighted {
            self.alpha_weighted
        } else {
            self.alpha_unweighted
        }
    }

    /// Exact modeled delay cost of placing `m` features here.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the capacity.
    pub fn cost_exact(&self, m: u32, weighted: bool) -> f64 {
        assert!(
            m <= self.capacity(),
            "m={m} over capacity {}",
            self.capacity()
        );
        match &self.table {
            Some(t) => self.alpha(weighted) * t.delta_cap(m),
            None => 0.0,
        }
    }
}

/// The MDFC instance of one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TileProblem {
    /// Tile index in the dissection grid.
    pub cell: CellIndex,
    /// Tile rectangle.
    pub rect: Rect,
    /// Decision columns.
    pub columns: Vec<TileColumn>,
}

impl TileProblem {
    /// Total fill capacity of the tile under its definition.
    pub fn capacity(&self) -> u64 {
        self.columns.iter().map(|c| c.capacity() as u64).sum()
    }

    /// Exact modeled cost of an assignment (one count per column).
    ///
    /// # Panics
    ///
    /// Panics if `counts` has the wrong length or exceeds a capacity.
    pub fn cost_of(&self, counts: &[u32], weighted: bool) -> f64 {
        assert_eq!(counts.len(), self.columns.len(), "counts length mismatch");
        self.columns
            .iter()
            .zip(counts)
            .map(|(c, &m)| c.cost_exact(m, weighted))
            .sum()
    }
}

fn make_tile_column(
    lines: &[ActiveLine],
    col: &SlackColumn,
    slots: Slots,
    rules: FillRules,
    model: &CouplingModel,
) -> TileColumn {
    let feature_x = col.feature_x(rules);
    let center_x = feature_x + rules.feature_size / 2;
    let mut alpha_w = 0.0;
    let mut alpha_u = 0.0;
    let mut adjacent_nets = AdjacentNets::EMPTY;
    for idx in [col.below, col.above].into_iter().flatten() {
        // u32 -> usize is widening on every supported target.
        let line = &lines[idx as usize]; // pilfill: allow(as-cast)
        let r = line.res_at(center_x);
        alpha_u += r;
        alpha_w += line.weight as f64 * r;
        if let Some(net) = line.net {
            adjacent_nets.insert(net);
        }
    }
    let distance = col.distance();
    let capacity = pilfill_geom::units::saturating_count(slots.len() as u64);
    let (table, linear) = match distance {
        Some(d) => (
            Some(CapTable::build(model, d, rules.feature_size, capacity)),
            model.delta_cap_linear(1, d, rules.feature_size),
        ),
        None => (None, 0.0),
    };
    TileColumn {
        feature_x,
        slots,
        distance,
        alpha_weighted: alpha_w,
        alpha_unweighted: alpha_u,
        table,
        linear_cap_per_feature: linear,
        adjacent_nets,
    }
}

/// Splits a global column's slot progression at tile-row boundaries,
/// calling `f` once per non-empty `(cell, sub-progression)` in ascending
/// row order — the arithmetic equivalent of classifying every slot through
/// `grid.cell_at` (slots outside the grid bounds are skipped, rows past the
/// last boundary clamp to the top row). The rows of the first and last
/// in-grid slot come in closed form (two divisions); a column whose two
/// ends share a row — most columns — is one chunk with no further search.
fn for_each_row_chunk(
    col: &SlackColumn,
    fx: Coord,
    grid: &Grid,
    mut f: impl FnMut(CellIndex, Slots),
) {
    let bounds = grid.bounds();
    if fx < bounds.left || fx >= bounds.right {
        return;
    }
    let ix = units::index((fx - bounds.left) / grid.pitch_x()).min(grid.nx() - 1);
    let slots = &col.slots;
    let Some(last) = slots.last() else {
        return;
    };
    let mut start = slots.count_below(bounds.bottom);
    let stop = if last < bounds.top {
        slots.len()
    } else {
        slots.count_below(bounds.top)
    };
    if start >= stop {
        return;
    }
    let (Some(lo), Some(hi)) = (slots.get(start), slots.get(stop - 1)) else {
        return;
    };
    let row = |y: Coord| units::index((y - bounds.bottom) / grid.pitch_y()).min(grid.ny() - 1);
    let (first_row, last_row) = (row(lo), row(hi));
    for iy in first_row..last_row {
        let row_top = bounds.bottom + grid.pitch_y() * units::coord(iy + 1);
        let end = slots.count_below(row_top);
        if end > start {
            f((ix, iy), slots.slice(start, end - start));
            start = end;
        }
    }
    f((ix, last_row), slots.slice(start, stop - start));
}

/// Per-tile definition-III fill capacities (row-major `iy * nx + ix`)
/// straight from the global scan — the slack counts the budget derivation
/// needs, with no capacitance tables built. Equals the per-tile capacity
/// sum of the definition-III [`TileProblem`]s.
pub fn def_three_capacities(
    columns: &[SlackColumn],
    dissection: &FixedDissection,
    rules: FillRules,
) -> Vec<u64> {
    let grid = dissection.tiles();
    let mut caps = vec![0u64; grid.len()];
    for col in columns {
        let fx = col.feature_x(rules);
        for_each_row_chunk(col, fx, &grid, |(ix, iy), slots| {
            caps[iy * grid.nx() + ix] += slots.len() as u64;
        });
    }
    caps
}

/// Grid column (tile x-index) a global slack column's features land in, or
/// `None` when the feature x falls outside the grid (such a column never
/// contributes a tile column).
fn grid_column_of(col: &SlackColumn, grid: &Grid, rules: FillRules) -> Option<usize> {
    let fx = col.feature_x(rules);
    let bounds = grid.bounds();
    if fx < bounds.left || fx >= bounds.right {
        return None;
    }
    Some(units::index((fx - bounds.left) / grid.pitch_x()).min(grid.nx() - 1))
}

/// Partitions the globally sorted column list into one contiguous range
/// per grid column (feature x is monotone in the site index, so the ranges
/// are contiguous). Out-of-grid columns are folded into the nearest range;
/// they contribute no tile columns either way.
pub fn slab_ranges(
    columns: &[SlackColumn],
    dissection: &FixedDissection,
    rules: FillRules,
) -> Vec<std::ops::Range<usize>> {
    let grid = dissection.tiles();
    let nx = grid.nx();
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(nx);
    let mut start = 0usize;
    for ix in 0..nx {
        let end = columns[start..]
            .partition_point(|c| grid_column_of(c, &grid, rules).unwrap_or(ix) <= ix)
            + start;
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Builds the tile problems of one grid column under `def` — tiles
/// `(ix, 0..ny)`, indexed by row — from that column's slab of the global
/// scan (see [`slab_ranges`]). The full build is made of these slab
/// builds, so a slab's tiles are bit-identical to the same tiles of
/// [`build_tile_problems`]; this is also the unit of work of the flow's
/// build and of its rebuild cache.
pub fn build_slab_problems(
    lines: &[ActiveLine],
    slab: &[SlackColumn],
    dissection: &FixedDissection,
    tech: &Tech,
    rules: FillRules,
    def: SlackColumnDef,
    ix: usize,
) -> Vec<TileProblem> {
    SlabBuilder::new(lines, dissection, tech, rules, def).build(slab, ix)
}

/// A tile, column, slot or global-column index as a map field: every
/// one is bounded far below `u32::MAX` (slot counts are `u32` already).
fn narrow(n: usize) -> u32 {
    units::saturating_count(n as u64)
}

/// A map field back as an index; u32 -> usize is widening on every
/// supported target.
fn wide(n: u32) -> usize {
    n as usize // pilfill: allow(as-cast)
}

/// A tile column in the column map: column `pos` of tile `tile`
/// (row-major), whose slots all lie in global column `global`, counted
/// from its slab's first global column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabColumn {
    tile: u32,
    pos: u32,
    global: u32,
}

/// The column map of one slab: its tile columns in slab order, which is
/// ascending global order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlabMap {
    /// The slab's first global column.
    base: usize,
    columns: Vec<SlabColumn>,
}

/// Which global slack column each tile column's slots lie in, recorded
/// while the tile problems are built, so that a placement can be scored
/// from its per-tile counts with no feature made or located
/// (`FlowContext::assemble`). Each tile column is one row chunk of one
/// global column, under every definition. The map is one exactly sized
/// list per grid column, with indices relative to the slab, so a rebuild
/// that re-sweeps some slabs replaces their lists and rebases the rest,
/// with no re-walk.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnMap(pub(crate) Vec<SlabMap>);

impl ColumnMap {
    /// `(global column, features)` for every tile column of the map, in
    /// ascending global order, when column `pos` of tile `tile` holds
    /// `count(tile, pos)` features.
    pub(crate) fn features<'a, F: Fn(usize, usize) -> u32>(
        &'a self,
        count: &'a F,
    ) -> impl Iterator<Item = (usize, u32)> + 'a {
        self.0.iter().flat_map(move |slab| {
            slab.columns.iter().map(move |c| {
                let m = count(wide(c.tile), wide(c.pos));
                (slab.base + wide(c.global), m)
            })
        })
    }

    /// Replaces the lists of the rebuilt slabs, `(grid column, list)`,
    /// and rebases every slab on `ranges`, the slab ranges after the
    /// column splice. A clean slab's list stays valid as it is: its
    /// indices are relative to its slab, and its tiles did not change.
    pub(crate) fn replace_slabs(
        &mut self,
        fresh: Vec<(usize, SlabMap)>,
        ranges: &[std::ops::Range<usize>],
    ) {
        for (ix, slab) in fresh {
            self.0[ix] = slab;
        }
        for (slab, range) in self.0.iter_mut().zip(ranges) {
            slab.base = range.start;
        }
    }
}

/// The slab builder: walks a slab's global columns once, collecting each
/// row chunk as `(row, slab-relative column, slots)` in a scratch reused
/// across slabs, counts the rows the definition keeps, sizes each tile's
/// buffer exactly and pushes the columns in slab order. A slab costs one
/// allocation per non-empty tile plus one (its tiles), and one more when
/// it records its column map; the scratch grows only while a slab has
/// more chunks than any before it.
pub(crate) struct SlabBuilder<'a> {
    lines: &'a [ActiveLine],
    grid: Grid,
    rules: FillRules,
    def: SlackColumnDef,
    model: CouplingModel,
    chunks: Vec<(u32, u32, Slots)>,
    rows: Vec<usize>,
}

impl<'a> SlabBuilder<'a> {
    pub(crate) fn new(
        lines: &'a [ActiveLine],
        dissection: &FixedDissection,
        tech: &Tech,
        rules: FillRules,
        def: SlackColumnDef,
    ) -> Self {
        SlabBuilder {
            lines,
            grid: dissection.tiles(),
            rules,
            def,
            model: CouplingModel::new(tech),
            chunks: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Builds slab `ix` (tiles `(ix, 0..ny)`, indexed by row).
    pub(crate) fn build(&mut self, slab: &[SlackColumn], ix: usize) -> Vec<TileProblem> {
        self.build_into(slab, ix, None)
    }

    /// [`SlabBuilder::build`], also returning the slab's column map:
    /// its tile columns in slab order, `base` being the index of the
    /// slab's first global column.
    pub(crate) fn build_mapped(
        &mut self,
        slab: &[SlackColumn],
        ix: usize,
        base: usize,
    ) -> (Vec<TileProblem>, SlabMap) {
        let mut columns = Vec::new();
        let problems = self.build_into(slab, ix, Some(&mut columns));
        (problems, SlabMap { base, columns })
    }

    /// Writes the definition-III slack of the last slab built, `ix`, into
    /// the row-major `slack`: each tile's slot count over all its row
    /// chunks, before the definition drops any — the per-tile sum
    /// [`def_three_capacities`] bins, whatever the definition.
    pub(crate) fn write_slack(&self, ix: usize, slack: &mut [u32]) {
        let nx = self.grid.nx();
        for iy in 0..self.grid.ny() {
            slack[iy * nx + ix] = 0;
        }
        for &(iy, _, slots) in &self.chunks {
            let s = &mut slack[wide(iy) * nx + ix];
            *s = s.saturating_add(narrow(slots.len()));
        }
    }

    fn build_into(
        &mut self,
        slab: &[SlackColumn],
        ix: usize,
        map: Option<&mut Vec<SlabColumn>>,
    ) -> Vec<TileProblem> {
        let (grid, rules) = (self.grid, self.rules);
        let chunks = &mut self.chunks;
        chunks.clear();
        for (g, col) in slab.iter().enumerate() {
            for_each_row_chunk(col, col.feature_x(rules), &grid, |(cx, iy), slots| {
                debug_assert_eq!(cx, ix, "slab column escaped its grid column");
                chunks.push((narrow(iy), narrow(g), slots));
            });
        }
        // The definition picks, once per slab, which lines a chunk's tile
        // column stays tied to; a definition-III slab tests nothing.
        let lines = self.lines;
        let touching = move |line: Option<u32>, iy: u32| {
            line.filter(|&l| {
                lines[wide(l)]
                    .rect
                    .overlaps(&grid.cell_rect((ix, wide(iy))))
            })
        };
        match self.def {
            SlackColumnDef::Three => self.place(slab, ix, map, |col, _| Some(Cow::Borrowed(col))),
            SlackColumnDef::Two => self.place(slab, ix, map, |col, iy| {
                Some(Cow::Owned(SlackColumn {
                    below: touching(col.below, iy),
                    above: touching(col.above, iy),
                    ..*col
                }))
            }),
            SlackColumnDef::One => self.place(slab, ix, map, |col, iy| {
                let both = touching(col.below, iy).is_some() && touching(col.above, iy).is_some();
                both.then_some(Cow::Borrowed(col))
            }),
        }
    }

    /// Turns the collected chunks into slab `ix`'s tiles: `tie` gives the
    /// global column as the chunk's tile column sees it in row `iy`, or
    /// `None` when the tile drops the chunk. A column kept as it is stays
    /// borrowed: copying it per chunk slowed the definition-III tile
    /// build of t1 at W = 32k, r = 2 from about 0.5 to 0.8 ms (2-vCPU
    /// host).
    fn place<'s>(
        &mut self,
        slab: &'s [SlackColumn],
        ix: usize,
        mut map: Option<&mut Vec<SlabColumn>>,
        tie: impl Fn(&'s SlackColumn, u32) -> Option<Cow<'s, SlackColumn>>,
    ) -> Vec<TileProblem> {
        let grid = &self.grid;
        self.rows.clear();
        self.rows.resize(grid.ny(), 0);
        for &(iy, g, _) in &self.chunks {
            if tie(&slab[wide(g)], iy).is_some() {
                self.rows[wide(iy)] += 1;
            }
        }
        let mut problems: Vec<TileProblem> = self
            .rows
            .iter()
            .enumerate()
            .map(|(iy, &n)| TileProblem {
                cell: (ix, iy),
                rect: grid.cell_rect((ix, iy)),
                columns: Vec::with_capacity(n),
            })
            .collect();
        if let Some(map) = map.as_deref_mut() {
            map.reserve_exact(self.rows.iter().sum());
        }
        for &(iy, g, slots) in &self.chunks {
            let Some(col) = tie(&slab[wide(g)], iy) else {
                continue;
            };
            let tile = &mut problems[wide(iy)];
            if let Some(map) = map.as_deref_mut() {
                map.push(SlabColumn {
                    tile: narrow(wide(iy) * grid.nx() + ix),
                    pos: narrow(tile.columns.len()),
                    global: g,
                });
            }
            tile.columns.push(make_tile_column(
                self.lines,
                &col,
                slots,
                self.rules,
                &self.model,
            ));
        }
        problems
    }
}

/// Interleaves grid-column slabs (slab `ix` holds tiles `(ix, 0..ny)`,
/// indexed by row, as [`build_slab_problems`] returns them) into the
/// row-major tile order `iy * nx + ix`.
pub(crate) fn interleave_slabs(
    slabs: impl IntoIterator<Item = Vec<TileProblem>>,
    ny: usize,
) -> Vec<TileProblem> {
    let mut slabs: Vec<_> = slabs.into_iter().map(Vec::into_iter).collect();
    let mut problems = Vec::with_capacity(slabs.len() * ny);
    for _ in 0..ny {
        for slab in &mut slabs {
            problems.extend(slab.next());
        }
    }
    problems
}

/// Builds one [`TileProblem`] per tile (row-major order) under `def`:
/// one slab build per grid column ([`build_slab_problems`] over
/// [`slab_ranges`]), threading one slab builder's scratch through them,
/// with the slabs interleaved into row-major order.
///
/// `global_columns` must be the result of [`crate::scan_slack_columns`]
/// over the full die with the same `lines` and `rules`.
pub fn build_tile_problems(
    lines: &[ActiveLine],
    global_columns: &[SlackColumn],
    dissection: &FixedDissection,
    tech: &Tech,
    rules: FillRules,
    def: SlackColumnDef,
) -> Vec<TileProblem> {
    let mut builder = SlabBuilder::new(lines, dissection, tech, rules, def);
    let ranges = slab_ranges(global_columns, dissection, rules);
    let slabs = ranges
        .iter()
        .enumerate()
        .map(|(ix, range)| builder.build(&global_columns[range.clone()], ix));
    interleave_slabs(slabs, dissection.tiles().ny())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_active_lines, scan_slack_columns};
    use pilfill_geom::{Dir, Point};
    use pilfill_layout::{Design, DesignBuilder, LayerId};

    /// Two long parallel lines crossing the whole die with an empty band
    /// between them; the band crosses all tiles in x.
    fn two_line_design() -> Design {
        DesignBuilder::new("d", Rect::new(0, 0, 32_000, 32_000))
            .layer("m3", Dir::Horizontal)
            .net("a", Point::new(300, 10_000))
            .segment(
                "m3",
                Point::new(300, 10_000),
                Point::new(31_700, 10_000),
                280,
            )
            .sink(Point::new(31_700, 10_000))
            .net("b", Point::new(300, 13_000))
            .segment(
                "m3",
                Point::new(300, 13_000),
                Point::new(31_700, 13_000),
                280,
            )
            .sink(Point::new(31_700, 13_000))
            .build()
            .expect("valid")
    }

    fn setup(def: SlackColumnDef) -> (Design, Vec<TileProblem>) {
        let d = two_line_design();
        let dis = FixedDissection::new(d.die, 16_000, 2).expect("dissection");
        let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
        let cols = scan_slack_columns(&lines, d.die, d.rules);
        let problems = build_tile_problems(&lines, &cols, &dis, &d.tech, d.rules, def);
        (d, problems)
    }

    #[test]
    fn def_three_capacity_equals_global_slots() {
        let d = two_line_design();
        let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
        let cols = scan_slack_columns(&lines, d.die, d.rules);
        let global: u64 = cols.iter().map(|c| c.capacity() as u64).sum();
        let (_, problems) = setup(SlackColumnDef::Three);
        let tiles: u64 = problems.iter().map(TileProblem::capacity).sum();
        assert_eq!(tiles, global);
    }

    #[test]
    fn def_one_only_keeps_line_line_columns() {
        let (_, problems) = setup(SlackColumnDef::One);
        for p in &problems {
            for c in &p.columns {
                assert!(c.distance.is_some());
                assert!(c.table.is_some());
            }
        }
        // The lines run at y = 10k and 13k (tile rows 1); tile rows 2 and
        // 3 (y >= 16k) contain no line pair, so definition I gives them
        // zero capacity.
        let top_rows: u64 = problems
            .iter()
            .filter(|p| p.cell.1 >= 2)
            .map(TileProblem::capacity)
            .sum();
        assert_eq!(top_rows, 0);
    }

    #[test]
    fn def_ordering_capacity() {
        // Capacity: def I <= def II == def III. Every definition builds on
        // the same sites; II and III keep every chunk, I only those whose
        // lines both touch the tile.
        let (_, one) = setup(SlackColumnDef::One);
        let (_, two) = setup(SlackColumnDef::Two);
        let (_, three) = setup(SlackColumnDef::Three);
        for ((a, b), c) in one.iter().zip(&two).zip(&three) {
            assert!(a.capacity() <= b.capacity(), "tile {:?}", a.cell);
            assert_eq!(b.capacity(), c.capacity(), "tile {:?}", b.cell);
        }
    }

    /// Definition II's columns sit where definition III's do, with the
    /// same slots, and drop only the lines that do not touch their tile;
    /// definition I drops every column whose lines do not both touch it.
    /// Here the gap between the two lines crosses the tile-row edge at
    /// y = 8k, so no tile holds both lines.
    #[test]
    fn weaker_definitions_untie_lines_outside_the_tile() {
        let d = DesignBuilder::new("d", Rect::new(0, 0, 32_000, 32_000))
            .layer("m3", Dir::Horizontal)
            .net("a", Point::new(300, 6_000))
            .segment("m3", Point::new(300, 6_000), Point::new(31_700, 6_000), 280)
            .sink(Point::new(31_700, 6_000))
            .net("b", Point::new(300, 10_000))
            .segment(
                "m3",
                Point::new(300, 10_000),
                Point::new(31_700, 10_000),
                280,
            )
            .sink(Point::new(31_700, 10_000))
            .build()
            .expect("valid");
        let dis = FixedDissection::new(d.die, 16_000, 2).expect("dissection");
        let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
        let cols = scan_slack_columns(&lines, d.die, d.rules);
        let build = |def| build_tile_problems(&lines, &cols, &dis, &d.tech, d.rules, def);
        let (one, two, three) = (
            build(SlackColumnDef::One),
            build(SlackColumnDef::Two),
            build(SlackColumnDef::Three),
        );
        let mut crossing = 0;
        for (p2, p3) in two.iter().zip(&three) {
            assert_eq!(p2.columns.len(), p3.columns.len(), "tile {:?}", p3.cell);
            for (c2, c3) in p2.columns.iter().zip(&p3.columns) {
                assert_eq!((c2.feature_x, c2.slots), (c3.feature_x, c3.slots));
                if c3.distance.is_some() {
                    // The line pair's gap: III ties both lines, II only
                    // the one inside the tile, and costs it nothing.
                    crossing += 1;
                    assert_eq!(c3.adjacent_nets.len(), 2);
                    assert_eq!((c2.distance, c2.table), (None, None));
                    assert_eq!(c2.adjacent_nets.len(), 1, "tile {:?}", p2.cell);
                    assert_eq!(c2.cost_exact(c2.capacity(), false), 0.0);
                }
            }
        }
        assert!(crossing > 0, "the gap must be split at the row edge");
        let cap = |ps: &[TileProblem]| ps.iter().map(TileProblem::capacity).sum::<u64>();
        assert_eq!(cap(&one), 0, "no tile holds both lines");
        assert_eq!(cap(&two), cap(&three));
    }

    #[test]
    fn def_two_misattributes_cross_tile_gap() {
        // The gap between the two lines (y 10_140 .. 12_860) lies entirely
        // inside the bottom tile row, so II sees it. But the space *above*
        // line b within the bottom tiles (12.86k..16k) is bounded above by
        // the tile edge: II treats it as free while III knows the next
        // geometry is the die boundary too... use the band between line b
        // and the tile top: II gives it zero cost (above = tile edge).
        let (_, two) = setup(SlackColumnDef::Two);
        let bottom_tiles: Vec<_> = two.iter().filter(|p| p.cell.1 == 0).collect();
        let free_columns = bottom_tiles
            .iter()
            .flat_map(|p| &p.columns)
            .filter(|c| c.distance.is_none())
            .count();
        assert!(free_columns > 0, "definition II should see free columns");
    }

    #[test]
    fn alpha_grows_downstream() {
        // Columns far from the driver must have a larger coefficient.
        let (_, problems) = setup(SlackColumnDef::Three);
        let mut paired: Vec<(i64, f64)> = problems
            .iter()
            .flat_map(|p| &p.columns)
            .filter(|c| c.distance.is_some())
            .map(|c| (c.feature_x, c.alpha_unweighted))
            .collect();
        paired.sort_by_key(|(x, _)| *x);
        let first = paired.first().expect("columns").1;
        let last = paired.last().expect("columns").1;
        assert!(
            last > first,
            "alpha should grow with distance from source: {first} vs {last}"
        );
    }

    #[test]
    fn cost_of_is_monotone_in_counts() {
        let (_, problems) = setup(SlackColumnDef::Three);
        let p = problems
            .iter()
            .find(|p| p.columns.iter().any(|c| c.distance.is_some()))
            .expect("a tile with paired columns");
        let zero = vec![0u32; p.columns.len()];
        let mut one = zero.clone();
        let idx = p
            .columns
            .iter()
            .position(|c| c.distance.is_some() && c.capacity() > 0 && c.alpha_unweighted > 0.0)
            .expect("paired column with capacity");
        one[idx] = 1;
        assert_eq!(p.cost_of(&zero, false), 0.0);
        assert!(p.cost_of(&one, false) > 0.0);
        assert!(p.cost_of(&one, true) >= p.cost_of(&one, false) * 0.99);
    }

    #[test]
    fn slots_lie_inside_their_tile() {
        let (d, problems) = setup(SlackColumnDef::Three);
        for p in &problems {
            for c in &p.columns {
                for s in c.slots.iter() {
                    assert!(
                        p.rect.y_span().contains(s),
                        "slot {s} outside tile {:?}",
                        p.cell
                    );
                    assert!(c.feature_x >= d.die.left);
                }
            }
        }
    }

    #[test]
    fn def_three_capacities_match_problem_capacities() {
        let d = two_line_design();
        let dis = FixedDissection::new(d.die, 16_000, 2).expect("dissection");
        let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
        let cols = scan_slack_columns(&lines, d.die, d.rules);
        let problems =
            build_tile_problems(&lines, &cols, &dis, &d.tech, d.rules, SlackColumnDef::Three);
        let caps = def_three_capacities(&cols, &dis, d.rules);
        let grid = dis.tiles();
        assert_eq!(caps.len(), problems.len());
        for p in &problems {
            let (ix, iy) = p.cell;
            assert_eq!(caps[iy * grid.nx() + ix], p.capacity(), "tile {:?}", p.cell);
        }
    }

    /// The closed-form row split against a per-slot `Grid::cell_at`
    /// oracle: seeded columns that sit inside one row, straddle one or
    /// more row boundaries, start below or end above the grid, stride
    /// over whole rows, land in the clipped top row, or lie left or right
    /// of the grid.
    #[test]
    fn row_split_matches_per_slot_cell_at() {
        use pilfill_geom::Interval;
        use pilfill_prng::{Rng, SeedableRng};
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0x5011_7C07);
        // Cases with [one chunk, several chunks, a slot below the grid, a
        // slot above the grid, a chunk in the clipped top row, no chunk].
        let mut seen = [0usize; 6];
        for _ in 0..400 {
            let pitch: Coord = rng.gen_range(200..3_000);
            let (left, bottom) = (rng.gen_range(-5_000..5_000), rng.gen_range(-5_000..5_000));
            let (nx, ny): (Coord, Coord) = (rng.gen_range(1..4), rng.gen_range(1..7));
            let clip = rng.gen_range(1..=pitch);
            let bounds = Rect::new(
                left,
                bottom,
                left + nx * pitch,
                bottom + (ny - 1) * pitch + clip,
            );
            let grid = Grid::square(bounds, pitch);
            let fx = rng.gen_range(left - pitch..bounds.right + pitch);
            let stride = match rng.gen_range(0..3) {
                0 => rng.gen_range(1..50),
                1 => rng.gen_range(50..pitch + 1),
                _ => rng.gen_range(pitch..3 * pitch),
            };
            let lo = rng.gen_range(bottom - 2 * pitch..bounds.top + pitch);
            let count = rng.gen_range(0..40);
            let col = SlackColumn {
                site_x: 0,
                x: fx,
                gap: Interval::new(lo, lo + 1),
                below: None,
                above: None,
                slots: Slots::evenly(lo, stride, count),
            };

            let mut want: Vec<(CellIndex, Vec<Coord>)> = Vec::new();
            for y in col.slots.iter() {
                let Some(cell) = grid.cell_at(fx, y) else {
                    continue;
                };
                match want.last_mut() {
                    Some((c, ys)) if *c == cell => ys.push(y),
                    _ => want.push((cell, vec![y])),
                }
            }
            let mut got: Vec<(CellIndex, Vec<Coord>)> = Vec::new();
            for_each_row_chunk(&col, fx, &grid, |cell, slots| {
                got.push((cell, slots.iter().collect()));
            });
            assert_eq!(
                got, want,
                "grid {bounds:?} pitch {pitch}, fx {fx}, slots {:?}",
                col.slots
            );

            let top_row = grid.ny() - 1;
            seen[0] += usize::from(got.len() == 1);
            seen[1] += usize::from(got.len() > 2);
            seen[2] += usize::from(!got.is_empty() && lo < bottom);
            let above = col.slots.last().is_some_and(|y| y >= bounds.top);
            seen[3] += usize::from(!got.is_empty() && above);
            seen[4] += usize::from(clip < pitch && got.iter().any(|(c, _)| c.1 == top_row));
            seen[5] += usize::from(got.is_empty() && count > 0);
        }
        assert!(seen.iter().all(|&n| n >= 20), "cases seen: {seen:?}");
    }

    #[test]
    fn slab_builds_concatenate_to_the_full_build() {
        let d = two_line_design();
        let dis = FixedDissection::new(d.die, 16_000, 2).expect("dissection");
        let lines = extract_active_lines(&d, LayerId(0)).expect("lines");
        let cols = scan_slack_columns(&lines, d.die, d.rules);
        let grid = dis.tiles();
        let ranges = slab_ranges(&cols, &dis, d.rules);
        assert_eq!(ranges.len(), grid.nx());
        assert_eq!(ranges.last().expect("nx > 0").end, cols.len());
        for def in [
            SlackColumnDef::One,
            SlackColumnDef::Two,
            SlackColumnDef::Three,
        ] {
            let full = build_tile_problems(&lines, &cols, &dis, &d.tech, d.rules, def);
            for (ix, range) in ranges.iter().enumerate() {
                let slab = &cols[range.clone()];
                let slab = build_slab_problems(&lines, slab, &dis, &d.tech, d.rules, def, ix);
                assert_eq!(slab.len(), grid.ny());
                for (iy, p) in slab.iter().enumerate() {
                    assert_eq!(p, &full[iy * grid.nx() + ix], "{def} tile ({ix}, {iy})");
                }
            }
        }
    }
}
