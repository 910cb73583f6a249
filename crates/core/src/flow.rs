//! End-to-end PIL-Fill flow: density analysis, fill budgeting, per-tile
//! MDFC solving and exact evaluation — the pipeline behind every row of
//! the paper's Tables 1 and 2.

use crate::evaluate::evaluate_runs;
use crate::methods::{FillMethod, MethodError};
use crate::tile::{interleave_slabs, ColumnMap, SlabBuilder};
use crate::{
    def_three_capacities, extract_net_lines_with, extract_obstruction_lines, scan_site_columns,
    scan_slack_columns_into, site_column_count, slab_ranges, ActiveLine, DelayImpact,
    ExtractScratch, FillFeature, ScanScratch, SlackColumn, SlackColumnDef, TileProblem,
};
use pilfill_density::{
    lp_budget, montecarlo_budget, BudgetError, DensityAnalysis, DensityMap, DissectionError,
    FillBudget, FixedDissection,
};
use pilfill_exec::WorkerPool;
use pilfill_geom::{units, Coord, Rect};
use pilfill_layout::{Design, LayerId, LayoutError, NetId};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::SeedableRng;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Configuration of one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Fill target layer.
    pub layer: LayerId,
    /// Density window size in dbu (the paper's `w`).
    pub window: Coord,
    /// Dissection parameter (the paper's `r`).
    pub r: usize,
    /// Slack-column definition for the per-tile problems.
    pub def: SlackColumnDef,
    /// Optimize the weighted objective (Table 2) instead of the unweighted
    /// one (Table 1). Evaluation always reports both.
    pub weighted: bool,
    /// Window-density upper bound for budgeting.
    pub max_density: f64,
    /// Seed for stochastic methods (Normal fill).
    pub seed: u64,
    /// Use the exact LP for budgeting instead of the Monte-Carlo greedy
    /// (only sensible for small tile grids).
    pub lp_budget: bool,
}

impl FlowConfig {
    /// A default configuration for the given window size and dissection:
    /// SlackColumn-III, unweighted objective, Monte-Carlo budgeting, 33%
    /// density bound.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Dissection`] if `window` is not positive and
    /// divisible by `r`.
    pub fn new(window: Coord, r: usize) -> Result<Self, FlowError> {
        // `r` is untrusted config: reject (rather than assert) values that
        // do not fit a coordinate.
        let r_coord = units::try_coord(r).unwrap_or(-1);
        if window <= 0 || r_coord <= 0 || window % r_coord != 0 {
            return Err(FlowError::Dissection(DissectionError::InvalidWindow {
                window,
                r,
            }));
        }
        Ok(Self {
            layer: LayerId(0),
            window,
            r,
            def: SlackColumnDef::Three,
            weighted: false,
            max_density: 0.33,
            seed: 0xF111,
            lp_budget: false,
        })
    }
}

/// Error from the end-to-end flow.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Invalid dissection parameters.
    Dissection(DissectionError),
    /// Layout/topology problem.
    Layout(LayoutError),
    /// Fill budgeting failed.
    Budget(BudgetError),
    /// A per-tile method failed.
    Method(MethodError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Dissection(e) => write!(f, "dissection: {e}"),
            FlowError::Layout(e) => write!(f, "layout: {e}"),
            FlowError::Budget(e) => write!(f, "budget: {e}"),
            FlowError::Method(e) => write!(f, "method: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<DissectionError> for FlowError {
    fn from(e: DissectionError) -> Self {
        FlowError::Dissection(e)
    }
}
impl From<LayoutError> for FlowError {
    fn from(e: LayoutError) -> Self {
        FlowError::Layout(e)
    }
}
impl From<BudgetError> for FlowError {
    fn from(e: BudgetError) -> Self {
        FlowError::Budget(e)
    }
}
impl From<MethodError> for FlowError {
    fn from(e: MethodError) -> Self {
        FlowError::Method(e)
    }
}

/// Everything a flow run produces.
#[derive(Debug, Clone)]
#[must_use = "a flow run is expensive; dropping its outcome discards the results"]
pub struct FlowOutcome {
    /// Method name.
    pub method: &'static str,
    /// Exact delay impact of the placement.
    pub impact: DelayImpact,
    /// Total features prescribed by the density budget.
    pub budget_total: u64,
    /// Features actually placed.
    pub placed_features: u64,
    /// Budgeted features that could not be placed (capacity shortfall —
    /// non-zero mainly under SlackColumn-I).
    pub shortfall: u64,
    /// Window-density analysis before fill.
    pub density_before: DensityAnalysis,
    /// Window-density analysis after fill.
    pub density_after: DensityAnalysis,
    /// The placed fill features (for export / rendering).
    pub features: Vec<FillFeature>,
    /// Wall-clock time spent in the per-tile placement method.
    pub solve_time: Duration,
    /// Number of tiles in the dissection.
    pub tiles: usize,
}

/// `true` when `layer` routes vertically, so the flow works on the
/// transposed design.
fn routes_vertically(design: &Design, layer: LayerId) -> bool {
    design
        .layers
        .get(layer.0)
        .is_some_and(|l| l.dir.is_vertical())
}

/// The fill budget for `slack` against `map`, under the exact LP or the
/// Monte-Carlo greedy as `config` selects.
fn fill_budget(
    map: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    config: &FlowConfig,
) -> Result<FillBudget, BudgetError> {
    if config.lp_budget {
        lp_budget(map, slack, feature_area, config.max_density)
    } else {
        montecarlo_budget(map, slack, feature_area, config.max_density)
    }
}

/// The budget stage of a build: definition-III slack capacities from the
/// scanned `columns`, the density map, its analysis and the fill budget.
/// It depends on the layout only through the scan, and the tile problems
/// do not depend on it at all, so [`FlowContext::build_pool`] runs it on
/// a lane while the caller builds the tiles.
fn budget_stage(
    design: &Design,
    columns: &[SlackColumn],
    dissection: &FixedDissection,
    config: &FlowConfig,
) -> Result<(Vec<u32>, DensityMap, DensityAnalysis, FillBudget), BudgetError> {
    // Per-tile capacity for budgeting always uses definition III (the
    // physical truth); the method may then be run under a weaker
    // definition and take a shortfall. The capacities come straight from
    // the global scan — no capacitance tables are built for budgeting.
    let slack: Vec<u32> = def_three_capacities(columns, dissection, design.rules)
        .into_iter()
        .map(units::saturating_count)
        .collect();
    let density_map = DensityMap::compute(design, config.layer, dissection);
    let budget = fill_budget(&density_map, &slack, design.rules.feature_area(), config)?;
    let analysis = density_map.analyze();
    Ok((slack, density_map, analysis, budget))
}

/// Which tiles' previously computed solve results a
/// [`FlowContext::rebuild_owned`] invalidated — the complement of what a
/// result cache layered above the context may keep.
///
/// Invalidated means the tile's [`TileProblem`] was rebuilt or its
/// budgeted feature count may have changed; a cached per-tile solve for
/// any other tile is still exactly what a fresh solve would produce
/// (the methods are deterministic functions of problem, budget, and
/// seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildDirt {
    /// Every tile: the context was fully rebuilt, or the budget changed
    /// (every tile's allotment may differ).
    All,
    /// Only these row-major tile indices, sorted ascending (possibly
    /// empty for a pure cache hit).
    Tiles(Vec<usize>),
}

/// What [`FlowContext::rebuild_owned`] did: either a localized update or
/// a full rebuild, with the dirty extents for diagnostics and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "rebuild stats tell whether the cache actually hit"]
pub struct RebuildStats {
    /// `true` when the context fell back to a full [`FlowContext::build`]
    /// (config/frame/topology change).
    pub full: bool,
    /// Nets whose geometry or timing changed.
    pub changed_nets: usize,
    /// Site columns re-swept.
    pub dirty_site_columns: usize,
    /// Tile-grid columns whose problems were rebuilt.
    pub dirty_grid_columns: usize,
    /// `true` when the cached budget was reused because the edit left the
    /// density map and the slack vector bit-identical (budgeting is a pure
    /// function of the two, so the cached result equals a fresh one).
    pub budget_reused: bool,
}

impl RebuildStats {
    /// The stats of a full (non-incremental) rebuild.
    pub const FULL: RebuildStats = RebuildStats {
        full: true,
        changed_nets: 0,
        dirty_site_columns: 0,
        dirty_grid_columns: 0,
        budget_reused: false,
    };
}

/// Per-tile solve results of one method against one context's tiles:
/// every tile's per-column fill counts `m` in one flat buffer, tile `i`
/// owning a span of `problems()[i].columns.len()` entries, plus a solved
/// flag and a solve time per tile. An unsolved tile's span is all zero.
///
/// The flow's runs solve into a fresh store; a result cache keeps one
/// across requests, [invalidates](TileCounts::invalidate) what a rebuild
/// dirtied and solves only the unsolved tiles
/// ([`TileCounts::unsolved_slots`], [`FlowContext::solve_slot`]). Because
/// a tile's counts depend only on its problem, budget and seed,
/// [`FlowContext::assemble`] on a complete store is bit-identical to
/// [`FlowContext::run`] however the counts were gathered.
#[derive(Debug, Clone, PartialEq)]
pub struct TileCounts {
    counts: Vec<u32>,
    /// Tile `i` owns `counts[spans[i]..spans[i + 1]]`.
    spans: Vec<usize>,
    /// Each tile's solve time; `None` while it is unsolved.
    times: Vec<Option<Duration>>,
}

impl TileCounts {
    /// An unsolved store spanned for `problems`.
    pub fn new(problems: &[TileProblem]) -> Self {
        let mut spans = Vec::with_capacity(problems.len() + 1);
        spans.push(0);
        for p in problems {
            spans.push(spans[spans.len() - 1] + p.columns.len());
        }
        TileCounts {
            counts: vec![0; spans[problems.len()]],
            spans,
            times: vec![None; problems.len()],
        }
    }

    /// Tile `index`'s counts, one per tile column.
    fn tile(&self, index: usize) -> &[u32] {
        &self.counts[self.spans[index]..self.spans[index + 1]]
    }

    /// The count of column `pos` of tile `index`.
    fn get(&self, index: usize, pos: usize) -> u32 {
        self.counts[self.spans[index] + pos]
    }

    /// Records tile `index` as solved with `counts` in `time`; `counts`
    /// must be exactly as long as the tile's span.
    fn set(&mut self, index: usize, counts: &[u32], time: Duration) {
        let span = &mut self.counts[self.spans[index]..self.spans[index + 1]];
        assert_eq!(
            counts.len(),
            span.len(),
            "tile {index}: one count per column"
        );
        span.copy_from_slice(counts);
        self.times[index] = Some(time);
    }

    /// `true` when every tile's span is as long as its problem's columns.
    fn fits(&self, problems: &[TileProblem]) -> bool {
        self.times.len() == problems.len()
            && problems
                .iter()
                .zip(self.spans.windows(2))
                .all(|(p, w)| p.columns.len() == w[1] - w[0])
    }

    /// One slot per unsolved tile, in row-major order, each owning its
    /// tile's span: the disjoint result slots a pool's lanes solve into.
    pub fn unsolved_slots(&mut self) -> Vec<TileSlot<'_>> {
        let mut slots = Vec::with_capacity(self.times.iter().filter(|t| t.is_none()).count());
        let mut rest: &mut [u32] = &mut self.counts;
        for ((index, time), w) in self.times.iter_mut().enumerate().zip(self.spans.windows(2)) {
            let (counts, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            rest = tail;
            if time.is_none() {
                slots.push(TileSlot {
                    index,
                    counts,
                    time,
                    error: None,
                });
            }
        }
        slots
    }

    /// Forgets the results a [`FlowContext::rebuild_owned`] invalidated,
    /// given the rebuilt context's `problems`: [`RebuildDirt::All`]
    /// replaces the store with an unsolved one, and
    /// [`RebuildDirt::Tiles`] marks the named tiles unsolved, re-spanning
    /// the store when a named tile's column count changed. Every other
    /// tile keeps its counts.
    ///
    /// # Panics
    ///
    /// Panics if a named tile is not a tile of the store, or if a tile
    /// that `dirt` does not name changed its column count.
    pub fn invalidate(&mut self, dirt: &RebuildDirt, problems: &[TileProblem]) {
        let RebuildDirt::Tiles(dirty) = dirt else {
            *self = TileCounts::new(problems);
            return;
        };
        for &i in dirty {
            self.counts[self.spans[i]..self.spans[i + 1]].fill(0);
            self.times[i] = None;
        }
        if !self.fits(problems) {
            let old = std::mem::replace(self, TileCounts::new(problems));
            for (i, time) in old.times.iter().enumerate() {
                if let Some(time) = *time {
                    self.set(i, old.tile(i), time);
                }
            }
        }
    }
}

/// One unsolved tile's share of a [`TileCounts`]: its span of counts and
/// its solved flag, written by [`FlowContext::solve_slot`].
#[derive(Debug)]
pub struct TileSlot<'a> {
    index: usize,
    counts: &'a mut [u32],
    time: &'a mut Option<Duration>,
    /// The solve's error; the tile then stays unsolved.
    pub error: Option<MethodError>,
}

/// Solves one tile into `out` (its zeroed span): budget lookup, capacity
/// clamp, per-tile seeded RNG, method dispatch — the single definition
/// behind every run, [`FlowContext::solve_slot`] and
/// [`FlowContext::solve_tile`]. A tile with nothing to place writes
/// nothing. The method's `Vec` is dropped as soon as it is copied, so
/// nothing a pool lane allocates outlives the tile it solves: results
/// that lived on the lanes until the job ended kept glibc's per-thread
/// arenas from trimming and inflated peak RSS.
fn solve_one_tile(
    problem: &TileProblem,
    budget: &FillBudget,
    config: &FlowConfig,
    method: &dyn FillMethod,
    out: &mut [u32],
) -> Result<Duration, MethodError> {
    let want = budget.features(problem.cell);
    let effective = units::saturating_count(u64::from(want).min(problem.capacity()));
    if effective == 0 {
        return Ok(Duration::ZERO);
    }
    let mut rng = StdRng::seed_from_u64(tile_seed(config.seed, problem.cell));
    let t0 = Instant::now();
    let counts = method.place(problem, effective, config.weighted, &mut rng)?;
    let elapsed = t0.elapsed();
    for (c, m) in out.iter_mut().zip(counts) {
        *c = m;
    }
    Ok(elapsed)
}

/// Precomputed, method-independent flow state: everything up to (and
/// including) the fill budget. Build once per (design, config) and run
/// several methods against it without repaying the setup cost.
///
/// Algorithms are written for horizontally routed layers; when the target
/// layer routes vertically, the context works on the transposed design and
/// transposes placed features back into the original frame. Horizontal
/// layers borrow the caller's design ([`Cow::Borrowed`]) — only the
/// transposed path pays for an owned copy.
#[derive(Debug, Clone)]
pub struct FlowContext<'d> {
    /// The design in the working frame (transposed for vertical layers).
    frame_design: Cow<'d, Design>,
    /// `true` when the working frame is the transpose of the input.
    transposed: bool,
    /// The configuration the context was built under (the rebuild cache
    /// key, together with the frame design).
    config: FlowConfig,
    dissection: FixedDissection,
    lines: Vec<ActiveLine>,
    /// Line range of each net within `lines` (obstruction pseudo-lines
    /// trail the last net).
    net_line_ranges: Vec<Range<usize>>,
    columns: Vec<SlackColumn>,
    problems: Vec<TileProblem>,
    /// The global column of every tile column's slots, recorded by the
    /// build: what [`FlowContext::assemble`] scores counts through.
    map: ColumnMap,
    slack: Vec<u32>,
    budget: FillBudget,
    budget_total: u64,
    density_before: DensityAnalysis,
    density_map: DensityMap,
    /// Spare map the rebuild cache folds fresh geometry into
    /// ([`DensityMap::recompute`]), so checking whether drawn area moved
    /// costs no allocations; swapped with `density_map` when it did.
    density_scratch: DensityMap,
}

impl<'d> FlowContext<'d> {
    /// Builds the context: extraction, scan, tile problems, density map and
    /// fill budget.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn build(design: &'d Design, config: &FlowConfig) -> Result<Self, FlowError> {
        Self::build_pool(design, config, &WorkerPool::new(1))
    }

    /// Like [`FlowContext::build`], but on the caller's [`WorkerPool`].
    /// The result is identical for every pool size.
    ///
    /// After the scan (frame, dissection, extraction, arena scan), the
    /// build runs the budget stage (capacities, density map, fill
    /// budget) on a lane while the calling thread builds every tile-grid
    /// column's slab of [`TileProblem`]s under the configured
    /// definition: no tile problem depends on the budget. The caller
    /// allocates everything that outlives the build.
    ///
    /// On a single-CPU host a multi-lane pool cannot overlap any work, so
    /// the build transparently falls back to the serial path (the lanes
    /// would only add claim/wake overhead).
    ///
    /// # Errors
    ///
    /// See [`FlowError`]. A budget error is returned as the serial build
    /// returns it, at every lane count.
    pub fn build_pool(
        design: &'d Design,
        config: &FlowConfig,
        pool: &WorkerPool,
    ) -> Result<Self, FlowError> {
        if pool.lanes() > 1 && !pool.is_parallel() {
            return Self::build_pool_impl(design, config, &WorkerPool::new(1));
        }
        Self::build_pool_impl(design, config, pool)
    }

    /// The body of [`FlowContext::build_pool`], without the single-CPU
    /// fallback (tests call it to drive the lanes on any host).
    fn build_pool_impl(
        design: &'d Design,
        config: &FlowConfig,
        pool: &WorkerPool,
    ) -> Result<Self, FlowError> {
        // Work in a frame where the target layer routes horizontally.
        let transposed = routes_vertically(design, config.layer);
        let frame_design: Cow<'d, Design> = if transposed {
            Cow::Owned(design.transposed())
        } else {
            Cow::Borrowed(design)
        };
        let frame: &Design = &frame_design;
        let dissection = FixedDissection::new(frame.die, config.window, config.r)?;

        // Per-net extraction, recording each net's line range so the
        // rebuild cache can later re-extract changed nets in place.
        let mut lines = Vec::new();
        let mut net_line_ranges = Vec::with_capacity(frame.nets.len());
        let mut extract_scratch = ExtractScratch::default();
        for ni in 0..frame.nets.len() {
            let start = lines.len();
            extract_net_lines_with(
                frame,
                config.layer,
                NetId(ni),
                &mut extract_scratch,
                &mut lines,
            )?;
            net_line_ranges.push(start..lines.len());
        }
        extract_obstruction_lines(frame, config.layer, &mut lines);

        let mut scratch = ScanScratch::default();
        let mut columns = Vec::new();
        scan_slack_columns_into(&lines, frame.die, frame.rules, &mut scratch, &mut columns);
        let density_scratch = DensityMap::zeros(&dissection);

        // Item 0 is the budget stage, run by whichever lane claims it (on
        // a 1-lane pool: first, before any slab); items 1..=nx are the
        // slabs, which the producer builds on this thread with one slab
        // builder, recording the column map as it goes, so the slabs and
        // the map are the caller's allocations. Once the budget has failed
        // the build's result is that error, and the producer skips the
        // remaining slabs.
        let ranges = slab_ranges(&columns, &dissection, frame.rules);
        let mut builder =
            SlabBuilder::new(&lines, &dissection, &frame.tech, frame.rules, config.def);
        let mut maps = Vec::with_capacity(ranges.len());
        let failed = AtomicBool::new(false);
        let (slabs, mut stages) = pool.stream_map(
            ranges.len() + 1,
            |k| match k.checked_sub(1) {
                Some(ix) if !failed.load(Ordering::Relaxed) => {
                    let range = ranges[ix].clone();
                    let (slab, map) =
                        builder.build_mapped(&columns[range.clone()], ix, range.start);
                    maps.push(map);
                    slab
                }
                _ => Vec::new(),
            },
            |k, _| {
                (k == 0).then(|| {
                    budget_stage(frame, &columns, &dissection, config)
                        .inspect_err(|_| failed.store(true, Ordering::Relaxed))
                })
            },
        );
        // Item 0 always runs the budget stage. pilfill: allow(unwrap)
        let budgeted = stages.swap_remove(0).expect("item 0 is the budget stage");
        let problems = interleave_slabs(slabs.into_iter().skip(1), dissection.tiles().ny());
        let map = ColumnMap(maps);
        let (slack, density_map, density_before, budget) = budgeted?;

        Ok(FlowContext {
            frame_design,
            transposed,
            config: config.clone(),
            dissection,
            lines,
            net_line_ranges,
            columns,
            problems,
            map,
            slack,
            budget_total: budget.total(),
            budget,
            density_before,
            density_scratch,
            density_map,
        })
    }

    /// The per-tile problems (row-major).
    pub fn problems(&self) -> &[TileProblem] {
        &self.problems
    }

    /// Total budgeted features.
    pub fn budget_total(&self) -> u64 {
        self.budget_total
    }

    /// Features budgeted for one tile.
    pub fn budget_features(&self, cell: pilfill_geom::CellIndex) -> u32 {
        self.budget.features(cell)
    }

    /// Runs one placement method against the prepared context on the
    /// caller's [`WorkerPool`]. Tiles are claimed dynamically (one 4.5ms
    /// ILP-II tile no longer serializes a static chunk of followers); the
    /// result is bit-identical to [`FlowContext::run`] for every pool
    /// size: per-tile seeds depend only on the tile cell, and tile results
    /// are merged in tile order.
    ///
    /// On a single-CPU host (or a 1-lane pool) this is the serial
    /// [`FlowContext::run`] — the lanes cannot overlap and would only add
    /// claim/wake overhead.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Method`] if any tile solve fails: the first
    /// failing tile in row-major order, as [`FlowContext::run`] reports.
    pub fn run_pool(
        &self,
        config: &FlowConfig,
        method: &(dyn FillMethod + Sync),
        pool: &WorkerPool,
    ) -> Result<FlowOutcome, FlowError> {
        if !pool.is_parallel() {
            return self.run(config, method);
        }
        self.run_pool_impl(config, method, pool)
    }

    /// The body of [`FlowContext::run_pool`], without the single-CPU
    /// fallback (tests call it to drive the lanes on any host).
    fn run_pool_impl(
        &self,
        config: &FlowConfig,
        method: &(dyn FillMethod + Sync),
        pool: &WorkerPool,
    ) -> Result<FlowOutcome, FlowError> {
        self.run_with(method.name(), |slots| {
            pool.for_each_slot(slots, |_, slot| self.solve_slot(config, method, slot));
        })
    }

    /// Runs one placement method against the prepared context.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Method`] if a tile solve fails: the first
    /// failing tile in row-major order.
    pub fn run(
        &self,
        config: &FlowConfig,
        method: &dyn FillMethod,
    ) -> Result<FlowOutcome, FlowError> {
        self.run_with(method.name(), |slots| {
            for slot in slots {
                self.solve_slot(config, method, slot);
            }
        })
    }

    /// The one solve body of every run: a fresh [`TileCounts`] whose
    /// slots `solve` fills (on the calling thread, or on a pool whose
    /// `method` is `Sync`), then [`FlowContext::assemble`]. The store and
    /// its slots are the caller's allocations.
    fn run_with(
        &self,
        method_name: &'static str,
        solve: impl FnOnce(&mut [TileSlot<'_>]),
    ) -> Result<FlowOutcome, FlowError> {
        let mut store = TileCounts::new(&self.problems);
        let mut slots = store.unsolved_slots();
        solve(&mut slots);
        if let Some(e) = slots.into_iter().find_map(|slot| slot.error) {
            return Err(e.into());
        }
        Ok(self.assemble(method_name, &store))
    }

    /// Solves `slot`'s tile into its span and marks it solved, or records
    /// the method's error in [`TileSlot::error`]. Because the per-tile
    /// seed depends only on the tile cell, solving any subset of tiles in
    /// any order, on any lane, produces exactly the counts a full
    /// [`FlowContext::run`] would — the building block for per-tile
    /// result caches that re-solve only what a rebuild dirtied.
    ///
    /// # Panics
    ///
    /// Panics if the slot's store was not spanned for this context's
    /// problems.
    pub fn solve_slot(
        &self,
        config: &FlowConfig,
        method: &dyn FillMethod,
        slot: &mut TileSlot<'_>,
    ) {
        let problem = &self.problems[slot.index];
        assert_eq!(
            slot.counts.len(),
            problem.columns.len(),
            "slot spans its tile"
        );
        match solve_one_tile(problem, &self.budget, config, method, slot.counts) {
            Ok(time) => *slot.time = Some(time),
            Err(e) => slot.error = Some(e),
        }
    }

    /// Solves the single tile at row-major index `index` into a fresh
    /// counts vector, as [`FlowContext::solve_slot`] does into a store.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.problems().len()`.
    ///
    /// # Errors
    ///
    /// Returns the method's [`MethodError`] if the solve fails.
    pub fn solve_tile(
        &self,
        config: &FlowConfig,
        method: &dyn FillMethod,
        index: usize,
    ) -> Result<(Vec<u32>, Duration), MethodError> {
        let problem = &self.problems[index];
        let mut counts = vec![0; problem.columns.len()];
        let time = solve_one_tile(problem, &self.budget, config, method, &mut counts)?;
        Ok((counts, time))
    }

    /// Assembles a [`FlowOutcome`] from externally collected per-tile
    /// counts — `(row-major tile index, per-column counts, solve time)` —
    /// by copying them into a [`TileCounts`]. With counts produced by
    /// [`FlowContext::solve_tile`] (freshly or replayed from a cache) the
    /// outcome is bit-identical to [`FlowContext::run`].
    ///
    /// # Panics
    ///
    /// Panics unless `per_tile` holds one entry per tile, in tile-index
    /// order, each exactly as long as its tile's column list.
    ///
    /// # Errors
    ///
    /// See [`FlowError`].
    pub fn finish_run(
        &self,
        method_name: &'static str,
        per_tile: Vec<(usize, Vec<u32>, Duration)>,
    ) -> Result<FlowOutcome, FlowError> {
        assert_eq!(per_tile.len(), self.problems.len(), "one entry per tile");
        let mut store = TileCounts::new(&self.problems);
        for (k, (index, counts, time)) in per_tile.into_iter().enumerate() {
            assert_eq!(index, k, "entries in tile-index order");
            store.set(index, &counts, time);
        }
        Ok(self.assemble(method_name, &store))
    }

    /// Merges a complete store's counts into density, impact and
    /// features.
    ///
    /// The impact is scored from the counts: the context's column map
    /// says which global slack column each tile column's slots lie in, so
    /// each global column's count is a sum over the tile columns that
    /// feed it, with no feature made or located, and the
    /// columns are charged in ascending order as [`evaluate_placement`]
    /// charges them — the two agree bit for bit on the outcome's
    /// features. The features are made afterwards, tile by tile, from
    /// the tile columns that hold fill.
    ///
    /// [`evaluate_placement`]: crate::evaluate_placement
    ///
    /// # Panics
    ///
    /// Panics unless `store` is spanned for this context's problems and
    /// every tile is solved.
    pub fn assemble(&self, method_name: &'static str, store: &TileCounts) -> FlowOutcome {
        assert!(
            store.fits(&self.problems) && store.times.iter().all(Option::is_some),
            "assemble needs a complete store spanned for this context"
        );
        let design: &Design = &self.frame_design;
        let placed: u64 = store.counts.iter().map(|&m| u64::from(m)).sum();
        let mut shortfall = 0u64;
        let mut density_after_map = self.density_map.clone();
        let feature_area = design.rules.feature_area();
        let mut solve_time = Duration::ZERO;
        let mut area_deltas = Vec::with_capacity(self.problems.len());
        for (i, problem) in self.problems.iter().enumerate() {
            let want = self.budget.features(problem.cell) as u64;
            let tile_placed: u64 = store.tile(i).iter().map(|&m| m as u64).sum();
            shortfall += want.saturating_sub(tile_placed);
            solve_time += store.times[i].unwrap_or_default();
            area_deltas.push((problem.cell, tile_placed as i64 * feature_area));
        }
        // One batched update → a single prefix-sum rebuild instead of one
        // per tile.
        density_after_map.add_tile_areas(area_deltas);

        let impact = evaluate_runs(
            self.map.features(&|tile, pos| store.get(tile, pos)),
            &self.columns,
            &self.lines,
            &design.tech,
            design.rules,
            design.nets.len(),
        );

        // Features in the caller's frame.
        let mut features: Vec<FillFeature> =
            Vec::with_capacity(usize::try_from(placed).unwrap_or(0));
        for (i, problem) in self.problems.iter().enumerate() {
            for (pos, &m) in store.tile(i).iter().enumerate().filter(|(_, &m)| m > 0) {
                let col = &problem.columns[pos];
                for y in col.slots.iter().take(units::index(i64::from(m))) {
                    features.push(if self.transposed {
                        FillFeature {
                            x: y,
                            y: col.feature_x,
                        }
                    } else {
                        FillFeature {
                            x: col.feature_x,
                            y,
                        }
                    });
                }
            }
        }

        FlowOutcome {
            method: method_name,
            impact,
            budget_total: self.budget_total,
            placed_features: placed,
            shortfall,
            density_before: self.density_before,
            density_after: density_after_map.analyze(),
            features,
            solve_time,
            tiles: self.dissection.num_tiles(),
        }
    }

    /// Detaches the context from the borrowed design, cloning the frame
    /// design if it was borrowed. Everything else is already owned, so
    /// this is one `Design` clone at most — the price of admission for
    /// storing a context beyond its design's lifetime (a cross-request
    /// context cache).
    pub fn into_owned(self) -> FlowContext<'static> {
        FlowContext {
            frame_design: Cow::Owned(self.frame_design.into_owned()),
            transposed: self.transposed,
            config: self.config,
            dissection: self.dissection,
            lines: self.lines,
            net_line_ranges: self.net_line_ranges,
            columns: self.columns,
            problems: self.problems,
            map: self.map,
            slack: self.slack,
            budget: self.budget,
            budget_total: self.budget_total,
            density_before: self.density_before,
            density_map: self.density_map,
            density_scratch: self.density_scratch,
        }
    }
}

impl FlowContext<'static> {
    /// Incrementally rebuilds a detached ([`FlowContext::into_owned`])
    /// context for a mutated `design`, reusing every cached artifact whose
    /// inputs did not change. The context clones `design` into its owned
    /// frame (~60µs on T2), so the mutated design may live arbitrarily
    /// briefly — which is what lets a long-lived context cache serve the
    /// edit→re-fill loop.
    ///
    /// The cache key is exact, not a hash: nets are diffed value-for-value
    /// against the design the context was built from. Every changed net's
    /// lines are extracted before any is spliced in. If a net's segments
    /// moved, the site columns its old and new buffer-expanded lines cover
    /// are re-swept through the arena scan. Only the tile-grid columns
    /// containing a changed site column get their [`TileProblem`]s rebuilt
    /// ([`build_slab_problems`](crate::build_slab_problems)), under any
    /// definition, and those tiles' def-III slack is counted from the
    /// rebuilt slabs' row chunks. Value-only edits (a sink or
    /// timing change) skip the sweep entirely, since columns depend only
    /// on rects. The density map and budget are recomputed only when a
    /// segment moved AND the recomputed map or slack actually differ;
    /// otherwise the cached budget is reused (budgeting is a pure function
    /// of the two). All clean columns and problems are kept bit-for-bit.
    ///
    /// Falls back to a full [`FlowContext::build_pool`] on `pool` —
    /// reported via [`RebuildStats::full`] — when the change is not
    /// localizable: a different config, die, rules, tech, layer table,
    /// obstruction set or net count, a transposed working frame, or a
    /// changed net whose line count on the target layer differs (line
    /// indices would shift under every clean column).
    ///
    /// Alongside the stats it reports which tiles' previously computed
    /// solve results the rebuild invalidated ([`RebuildDirt`]) — the
    /// contract a per-tile result cache layered above the context (the
    /// serving layer) relies on.
    ///
    /// # Errors
    ///
    /// See [`FlowError`]. On error the context is left in its previous
    /// state: the incremental path commits nothing until its last fallible
    /// step has passed, and the full path replaces the context only with
    /// a finished build.
    pub fn rebuild_owned(
        &mut self,
        design: &Design,
        config: &FlowConfig,
        pool: &WorkerPool,
    ) -> Result<(RebuildStats, RebuildDirt), FlowError> {
        let full = |ctx: &mut Self| -> Result<(RebuildStats, RebuildDirt), FlowError> {
            *ctx = FlowContext::build_pool(design, config, pool)?.into_owned();
            Ok((RebuildStats::FULL, RebuildDirt::All))
        };
        let old: &Design = &self.frame_design;
        if *config != self.config
            || self.transposed
            || routes_vertically(design, config.layer)
            || design.die != old.die
            || design.rules != old.rules
            || design.tech != old.tech
            || design.layers != old.layers
            || design.obstructions != old.obstructions
            || design.nets.len() != old.nets.len()
        {
            return full(self);
        }

        // Diff nets value-for-value and extract every changed one before
        // splicing any, so an extraction error leaves the context as it
        // was. Each entry of `changed` holds the net's range in `lines`,
        // its fresh lines' range in `fresh`, and whether its segments
        // moved.
        let mut changed = Vec::new();
        let mut fresh: Vec<ActiveLine> = Vec::new();
        let mut extract_scratch = ExtractScratch::default();
        for (ni, (new_net, old_net)) in design.nets.iter().zip(&old.nets).enumerate() {
            if new_net == old_net {
                continue;
            }
            let start = fresh.len();
            extract_net_lines_with(
                design,
                config.layer,
                NetId(ni),
                &mut extract_scratch,
                &mut fresh,
            )?;
            let range = self.net_line_ranges[ni].clone();
            if fresh.len() - start != range.len() {
                // Line indices after this net would shift; every clean
                // column's below/above reference would dangle.
                return full(self);
            }
            let geometry = new_net.segments != old_net.segments;
            changed.push((range, start..fresh.len(), geometry));
        }
        let geometry_changed = changed.iter().any(|&(_, _, geometry)| geometry);

        let die = design.die;
        let rules = design.rules;
        let pitch = rules.site_pitch();
        let n_sites = site_column_count(die, rules);
        // Two dirt granularities. `resolve`: site columns whose tiles'
        // problems must be rebuilt (any line change — weights feed the
        // cost tables). `rescan`: site columns whose slack columns must be
        // re-swept (geometry moved — columns depend only on rects, so a
        // value-only edit like a sink-weight bump leaves them untouched,
        // and with them the slack vector and the density map).
        let mut resolve = vec![false; n_sites];
        let mut rescan = vec![false; n_sites];
        // Marks the site columns a line's buffer-expanded rect covers —
        // exactly the columns whose sweep sees the line as an event.
        let mark = |rect: Rect, dirty: &mut Vec<bool>| {
            let expanded = Rect::new(
                rect.left - rules.buffer,
                rect.bottom,
                rect.right + rules.buffer,
                rect.top,
            );
            let clipped = expanded.intersection(&die);
            if clipped.is_empty() || n_sites == 0 {
                return;
            }
            let lo = units::index(((clipped.left - die.left) / pitch).max(0));
            let hi = units::index((clipped.right - 1 - die.left) / pitch).min(n_sites - 1);
            for s in dirty.iter_mut().take(hi + 1).skip(lo) {
                *s = true;
            }
        };

        // Swap the fresh lines in; `fresh` then holds the old ones, which
        // mark the sites the net left, and a second swap restores them.
        let swap_lines = |lines: &mut [ActiveLine], fresh: &mut [ActiveLine]| {
            for (range, span, _) in &changed {
                lines[range.clone()].swap_with_slice(&mut fresh[span.clone()]);
            }
        };
        swap_lines(&mut self.lines, &mut fresh);
        for (range, span, geometry) in &changed {
            for l in self.lines[range.clone()].iter().chain(&fresh[span.clone()]) {
                mark(l.rect, &mut resolve);
                if *geometry {
                    mark(l.rect, &mut rescan);
                }
            }
        }
        let dirty_site_columns = rescan.iter().filter(|&&d| d).count();

        // Splice the column list: clean site runs keep their columns
        // (a flat copy — `SlackColumn` is `Copy`), dirty runs are re-swept.
        // Value-only edits rescan nothing: columns depend only on rects.
        let new_columns = (dirty_site_columns > 0).then(|| {
            let mut new_columns = Vec::with_capacity(self.columns.len());
            let mut scratch = ScanScratch::default();
            let mut site = 0usize;
            let mut cursor = 0usize;
            while site < n_sites {
                let run_start = site;
                let run_dirty = rescan[site];
                while site < n_sites && rescan[site] == run_dirty {
                    site += 1;
                }
                let run_cursor = cursor;
                while cursor < self.columns.len() && self.columns[cursor].site_x < site {
                    cursor += 1;
                }
                if run_dirty {
                    scan_site_columns(
                        &self.lines,
                        die,
                        rules,
                        run_start..site,
                        &mut scratch,
                        &mut new_columns,
                    );
                } else {
                    new_columns.extend_from_slice(&self.columns[run_cursor..cursor]);
                }
            }
            new_columns
        });
        let columns = new_columns.as_deref().unwrap_or(&self.columns);

        // Rebuild the problems of every tile-grid column containing a
        // changed site. Their tiles' def-III slack is the slot count of
        // the slab's row chunks before the definition drops any, the same
        // sum `def_three_capacities` bins.
        let grid = self.dissection.tiles();
        let nx = grid.nx();
        let mut dirty_grid = vec![false; nx];
        for s in (0..n_sites).filter(|&s| resolve[s]) {
            let fx = die.left + units::coord(s) * pitch + (pitch - rules.feature_size) / 2;
            if fx >= grid.bounds().left && fx < grid.bounds().right {
                let ix = units::index((fx - grid.bounds().left) / grid.pitch_x()).min(nx - 1);
                dirty_grid[ix] = true;
            }
        }
        // The rebuilt slabs' column maps replace theirs at commit; every
        // clean slab's map stays valid as it is, since its global indices
        // are relative to its slab.
        let ranges = slab_ranges(columns, &self.dissection, rules);
        let mut slack = self.slack.clone();
        let mut slabs = Vec::new();
        let mut maps = Vec::new();
        let mut builder = SlabBuilder::new(
            &self.lines,
            &self.dissection,
            &design.tech,
            rules,
            config.def,
        );
        for ix in (0..nx).filter(|&ix| dirty_grid[ix]) {
            let range = ranges[ix].clone();
            let (slab, map) = builder.build_mapped(&columns[range.clone()], ix, range.start);
            builder.write_slack(ix, &mut slack);
            slabs.push((ix, slab));
            maps.push((ix, map));
        }

        // Density and budget are global, but budgeting is a pure function
        // of the density map and the slack vector: an edit that changed
        // line values without moving drawn area or slot counts (a timing
        // or sink-weight update, say) leaves both inputs bit-identical,
        // and then the cached budget IS what a fresh build would compute.
        // When no segment moved at all, both inputs are untouched by
        // construction and even the equality check is skipped. A failed
        // budget swaps the old lines back, the only state touched so far.
        let mut budget = None;
        if geometry_changed {
            self.density_scratch.recompute(design, config.layer);
            if self.density_scratch != self.density_map || slack != self.slack {
                let fresh_budget =
                    fill_budget(&self.density_scratch, &slack, rules.feature_area(), config)
                        .inspect_err(|_| swap_lines(&mut self.lines, &mut fresh))?;
                budget = Some(fresh_budget);
            }
        }
        let budget_reused = budget.is_none();

        // Commit.
        if let Some(budget) = budget {
            std::mem::swap(&mut self.density_map, &mut self.density_scratch);
            self.density_before = self.density_map.analyze();
            self.budget_total = budget.total();
            self.budget = budget;
        }
        if let Some(new_columns) = new_columns {
            self.columns = new_columns;
        }
        let dirty_grid_columns = slabs.len();
        self.map.replace_slabs(maps, &ranges);
        for (ix, slab) in slabs {
            for (iy, p) in slab.into_iter().enumerate() {
                self.problems[iy * nx + ix] = p;
            }
        }
        self.slack = slack;
        self.frame_design = Cow::Owned(design.clone());

        // A changed budget may change any tile's allotment; otherwise
        // only the rebuilt grid columns' tiles lost their problems.
        let dirt = if budget_reused {
            let mut tiles = Vec::with_capacity(dirty_grid_columns * grid.ny());
            for iy in 0..grid.ny() {
                for (ix, is_dirty) in dirty_grid.iter().enumerate() {
                    if *is_dirty {
                        tiles.push(iy * nx + ix);
                    }
                }
            }
            RebuildDirt::Tiles(tiles)
        } else {
            RebuildDirt::All
        };
        let stats = RebuildStats {
            full: false,
            changed_nets: changed.len(),
            dirty_site_columns,
            dirty_grid_columns,
            budget_reused,
        };
        Ok((stats, dirt))
    }
}

/// Per-tile RNG seed, independent of tile iteration order and thread
/// scheduling.
fn tile_seed(seed: u64, cell: pilfill_geom::CellIndex) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((cell.0 as u64) << 32) | cell.1 as u64)
}

/// Convenience wrapper: build a [`FlowContext`] and run one method.
///
/// # Errors
///
/// See [`FlowError`].
pub fn run_flow(
    design: &Design,
    config: &FlowConfig,
    method: &dyn FillMethod,
) -> Result<FlowOutcome, FlowError> {
    FlowContext::build(design, config)?.run(config, method)
}

/// The streamed fill run: [`FlowContext::build_pool`] and
/// [`FlowContext::run_pool`] on one pool, the path `pilfill fill` takes.
///
/// The build overlaps the fill budget with the tile construction (a lane
/// runs the budget stage while the calling thread builds every slab of
/// tile problems), and the run solves the tiles on every lane into the
/// spans of a caller-owned [`TileCounts`]. The outcome —
/// features, density, and every f64 accumulation in the delay impact — is
/// bit-identical to [`FlowContext::build`] + [`FlowContext::run`] at any
/// lane count (the per-tile RNG seeds depend only on the tile cell, and
/// tile results are folded in row-major order). On a single-CPU host (or
/// a 1-lane pool) both halves take their serial paths.
///
/// Returns the built context alongside the outcome so further methods can
/// be run (or the context, once [detached](FlowContext::into_owned),
/// [rebuilt](FlowContext::rebuild_owned)) without paying the setup again.
///
/// # Errors
///
/// See [`FlowError`].
pub fn run_flow_streamed<'d>(
    design: &'d Design,
    config: &FlowConfig,
    method: &(dyn FillMethod + Sync),
    pool: &WorkerPool,
) -> Result<(FlowContext<'d>, FlowOutcome), FlowError> {
    if pool.lanes() > 1 && !pool.is_parallel() {
        return run_flow_streamed_impl(design, config, method, &WorkerPool::new(1));
    }
    run_flow_streamed_impl(design, config, method, pool)
}

/// The body of [`run_flow_streamed`], without the single-CPU fallback
/// (tests call it to drive the lanes on any host).
fn run_flow_streamed_impl<'d>(
    design: &'d Design,
    config: &FlowConfig,
    method: &(dyn FillMethod + Sync),
    pool: &WorkerPool,
) -> Result<(FlowContext<'d>, FlowOutcome), FlowError> {
    let ctx = FlowContext::build_pool_impl(design, config, pool)?;
    let outcome = ctx.run_pool_impl(config, method, pool)?;
    Ok((ctx, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{DpExact, GreedyFill, IlpOne, IlpTwo, NormalFill};
    use pilfill_layout::synth::{synthesize, SynthConfig};

    fn design() -> Design {
        synthesize(&SynthConfig::small_test(21))
    }

    fn config() -> FlowConfig {
        FlowConfig::new(8_000, 2).expect("valid config")
    }

    const DEFS: [SlackColumnDef; 3] = [
        SlackColumnDef::One,
        SlackColumnDef::Two,
        SlackColumnDef::Three,
    ];

    #[test]
    fn flow_places_full_budget_under_def_three() {
        let d = design();
        let outcome = run_flow(&d, &config(), &GreedyFill).expect("flow");
        assert_eq!(outcome.shortfall, 0);
        assert_eq!(outcome.placed_features, outcome.budget_total);
        assert_eq!(outcome.impact.unlocated_features, 0);
    }

    #[test]
    fn fill_improves_density_uniformity() {
        let d = design();
        let outcome = run_flow(&d, &config(), &NormalFill).expect("flow");
        assert!(outcome.budget_total > 0, "test design needs fill");
        assert!(
            outcome.density_after.min_window_density > outcome.density_before.min_window_density
        );
        assert!(outcome.density_after.max_window_density <= 0.35 + 1e-9);
    }

    #[test]
    fn all_methods_share_density_quality() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        let outcomes: Vec<FlowOutcome> = [
            &NormalFill as &dyn crate::methods::FillMethod,
            &GreedyFill,
            &IlpOne,
            &IlpTwo,
        ]
        .iter()
        .map(|m| ctx.run(&cfg, *m).expect("run"))
        .collect();
        let reference = outcomes[0].density_after;
        for o in &outcomes[1..] {
            assert_eq!(o.placed_features, outcomes[0].placed_features);
            assert!(
                (o.density_after.min_window_density - reference.min_window_density).abs() < 1e-12,
                "{}: density quality must be identical",
                o.method
            );
        }
    }

    #[test]
    fn method_ordering_matches_paper() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        let run =
            |m: &dyn crate::methods::FillMethod| ctx.run(&cfg, m).expect("run").impact.total_delay;
        let normal = run(&NormalFill);
        let greedy = run(&GreedyFill);
        let ilp2 = run(&IlpTwo);
        let dp = run(&DpExact);
        // ILP-II optimizes the exact per-tile model: it must beat Normal
        // and match the DP reference closely.
        assert!(ilp2 <= normal + 1e-24, "ilp2 {ilp2} vs normal {normal}");
        assert!(ilp2 <= greedy + 1e-24, "ilp2 {ilp2} vs greedy {greedy}");
        assert!(
            (ilp2 - dp).abs() <= 1e-9 * (1.0 + dp.abs()),
            "ilp2 {ilp2} vs dp {dp}"
        );
        // Greedy should also improve on random placement.
        assert!(
            greedy <= normal + 1e-24,
            "greedy {greedy} vs normal {normal}"
        );
    }

    #[test]
    fn def_one_takes_shortfall() {
        let d = design();
        let mut cfg = config();
        cfg.def = SlackColumnDef::One;
        let outcome = run_flow(&d, &cfg, &GreedyFill).expect("flow");
        // Definition I wastes all boundary slack; on a sparse design the
        // budget cannot fit.
        assert!(
            outcome.shortfall > 0,
            "expected shortfall under SlackColumn-I"
        );
        assert_eq!(
            outcome.placed_features + outcome.shortfall,
            outcome.budget_total
        );
    }

    #[test]
    fn weighted_objective_reduces_weighted_metric() {
        let d = design();
        let mut cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        cfg.weighted = false;
        let unweighted_run = ctx.run(&cfg, &IlpTwo).expect("run");
        cfg.weighted = true;
        let weighted_run = ctx.run(&cfg, &IlpTwo).expect("run");
        assert!(weighted_run.impact.weighted_delay <= unweighted_run.impact.weighted_delay + 1e-24);
    }

    #[test]
    fn parallel_run_is_bit_identical_for_every_method_and_thread_count() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        let bounded = crate::methods::BoundedGreedy::new(1e-12);
        let methods: [&(dyn crate::methods::FillMethod + Sync); 6] = [
            &NormalFill,
            &GreedyFill,
            &bounded,
            &IlpOne,
            &IlpTwo,
            &DpExact,
        ];
        for method in methods {
            let seq = ctx.run(&cfg, method).expect("seq");
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let runs = [
                    ctx.run_pool(&cfg, method, &pool).expect("pooled"),
                    ctx.run_pool_impl(&cfg, method, &pool).expect("forced"),
                ];
                for par in &runs {
                    let tag = format!("{} @ {threads} threads", method.name());
                    // Everything except wall-clock timing must be
                    // bit-identical, including the f64 accumulators
                    // inside `impact`.
                    assert_eq!(seq.method, par.method, "{tag}");
                    assert_eq!(seq.features, par.features, "{tag}");
                    assert_eq!(seq.placed_features, par.placed_features, "{tag}");
                    assert_eq!(seq.budget_total, par.budget_total, "{tag}");
                    assert_eq!(seq.shortfall, par.shortfall, "{tag}");
                    assert_eq!(seq.tiles, par.tiles, "{tag}");
                    assert_eq!(seq.impact, par.impact, "{tag}");
                    assert_eq!(seq.density_before, par.density_before, "{tag}");
                    assert_eq!(seq.density_after, par.density_after, "{tag}");
                }
            }
        }
    }

    #[test]
    fn pool_reuse_gives_identical_results_to_fresh_pools() {
        // One persistent pool across context build and two consecutive
        // runs must match a fresh pool bit for bit.
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(4);
        let ctx = FlowContext::build_pool_impl(&d, &cfg, &pool).expect("pooled ctx");
        let fresh_ctx = FlowContext::build(&d, &cfg).expect("fresh ctx");
        assert_eq!(ctx.problems, fresh_ctx.problems);
        assert_eq!(ctx.budget_total, fresh_ctx.budget_total);

        let first = ctx.run_pool_impl(&cfg, &IlpTwo, &pool).expect("first run");
        let second = ctx.run_pool_impl(&cfg, &IlpTwo, &pool).expect("second run");
        let fresh = fresh_ctx
            .run_pool_impl(&cfg, &IlpTwo, &WorkerPool::new(4))
            .expect("fresh run");
        for run in [&second, &fresh] {
            assert_eq!(first.features, run.features);
            assert_eq!(first.impact, run.impact);
            assert_eq!(first.placed_features, run.placed_features);
            assert_eq!(first.shortfall, run.shortfall);
            assert_eq!(first.density_after, run.density_after);
        }
    }

    #[test]
    fn borrowed_design_context_matches_owned_transposed_context() {
        // The non-transposed path borrows the design (Cow::Borrowed);
        // sanity-check it against an explicit clone-based build.
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        assert!(
            matches!(ctx.frame_design, Cow::Borrowed(_)),
            "horizontal layer must borrow the caller's design"
        );
        let mut vcfg = cfg.clone();
        vcfg.layer = pilfill_layout::LayerId(1); // m2, vertical
        let vctx = FlowContext::build(&d, &vcfg).expect("vertical ctx");
        assert!(
            matches!(vctx.frame_design, Cow::Owned(_)),
            "vertical layer needs the transposed working frame"
        );
    }

    /// The pooled build (budget stage on a lane, slabs on the caller) and
    /// the streamed run (that build plus the pooled run) against the
    /// serial build + run, through the internal and the public
    /// (host-aware) entries: every definition, both frames (the vertical
    /// layer works on the transposed design), both budgets, 1/2/4/8
    /// lanes.
    #[test]
    fn pooled_build_and_streamed_run_match_serial_for_every_def_frame_and_lane_count() {
        let d = design();
        for def in DEFS {
            for layer in [LayerId(0), LayerId(1)] {
                for lp_budget in [false, true] {
                    let mut cfg = config();
                    cfg.def = def;
                    cfg.layer = layer;
                    cfg.lp_budget = lp_budget;
                    let serial = FlowContext::build(&d, &cfg).expect("serial build");
                    assert_eq!(serial.transposed, layer == LayerId(1));
                    let want = serial.run(&cfg, &IlpTwo).expect("serial run");
                    for lanes in [1usize, 2, 4, 8] {
                        let tag = format!("{def} layer {layer:?} lp {lp_budget} @ {lanes} lanes");
                        let pool = WorkerPool::new(lanes);
                        let built =
                            FlowContext::build_pool_impl(&d, &cfg, &pool).expect("pooled build");
                        assert_context_state_identical(&built, &serial, &tag);
                        let (ctx, got) =
                            run_flow_streamed_impl(&d, &cfg, &IlpTwo, &pool).expect("streamed");
                        assert_context_state_identical(&ctx, &serial, &tag);
                        assert_outcomes_identical(&want, &got, &tag);
                        // The public (host-aware) entry must agree too.
                        let (ctx, got) =
                            run_flow_streamed(&d, &cfg, &IlpTwo, &pool).expect("public");
                        assert_context_state_identical(&ctx, &serial, &tag);
                        assert_outcomes_identical(&want, &got, &tag);
                    }
                }
            }
        }
    }

    /// A budget that rejects its parameters fails the build with the
    /// serial build's error at every lane count, on every path, even
    /// though the slabs are built while the budget runs.
    #[test]
    fn budget_error_is_the_same_at_every_lane_count() {
        let d = design();
        for def in [SlackColumnDef::One, SlackColumnDef::Three] {
            for lp_budget in [false, true] {
                let mut cfg = config();
                cfg.def = def;
                cfg.lp_budget = lp_budget;
                cfg.max_density = 1.5;
                let want = FlowContext::build(&d, &cfg).expect_err("out-of-range bound");
                assert!(
                    matches!(want, FlowError::Budget(BudgetError::InvalidParameter(_))),
                    "{want:?}"
                );
                for lanes in [1usize, 2, 4, 8] {
                    let tag = format!("{def} lp {lp_budget} @ {lanes} lanes");
                    let pool = WorkerPool::new(lanes);
                    let built = FlowContext::build_pool_impl(&d, &cfg, &pool);
                    assert_eq!(built.expect_err("pooled build"), want, "{tag}");
                    let streamed = run_flow_streamed_impl(&d, &cfg, &IlpTwo, &pool);
                    assert_eq!(streamed.expect_err("streamed"), want, "{tag}");
                    let public = run_flow_streamed(&d, &cfg, &IlpTwo, &pool);
                    assert_eq!(public.expect_err("public"), want, "{tag}");
                }
            }
        }
    }

    #[test]
    fn vertical_layer_flow_matches_transposed_horizontal_flow() {
        // Filling the vertical jog layer of a design must be exactly the
        // horizontal flow on the transposed design, with features mapped
        // back into the original frame.
        let d = design();
        let mut cfg = config();
        cfg.layer = pilfill_layout::LayerId(1); // m2, vertical
        let vertical = run_flow(&d, &cfg, &GreedyFill).expect("vertical flow");

        let dt = d.transposed();
        let horizontal = run_flow(&dt, &cfg, &GreedyFill).expect("transposed flow");
        assert_eq!(vertical.impact.total_delay, horizontal.impact.total_delay);
        assert_eq!(vertical.placed_features, horizontal.placed_features);
        let mapped: Vec<_> = horizontal
            .features
            .iter()
            .map(|f| crate::FillFeature { x: f.y, y: f.x })
            .collect();
        assert_eq!(vertical.features, mapped);

        // Features lie inside the original die and clear of m2 wires.
        let size = d.rules.feature_size;
        for f in &vertical.features {
            assert!(d.die.contains_rect(&f.rect(size)));
        }
        for (_, _, seg) in d.segments_on_layer(pilfill_layout::LayerId(1)) {
            let keepout = seg.rect().grown(d.rules.buffer);
            for f in &vertical.features {
                assert!(
                    !f.rect(size).overlaps(&keepout),
                    "vertical-layer fill too close to wire"
                );
            }
        }
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(FlowConfig::new(0, 2).is_err());
        assert!(FlowConfig::new(1_001, 2).is_err());
        assert!(FlowConfig::new(8_000, 0).is_err());
    }

    fn assert_outcomes_identical(a: &FlowOutcome, b: &FlowOutcome, tag: &str) {
        assert_eq!(a.method, b.method, "{tag}");
        assert_eq!(a.features, b.features, "{tag}");
        assert_eq!(a.placed_features, b.placed_features, "{tag}");
        assert_eq!(a.budget_total, b.budget_total, "{tag}");
        assert_eq!(a.shortfall, b.shortfall, "{tag}");
        assert_eq!(a.tiles, b.tiles, "{tag}");
        assert_eq!(a.impact, b.impact, "{tag}");
        assert_eq!(a.density_before, b.density_before, "{tag}");
        assert_eq!(a.density_after, b.density_after, "{tag}");
    }

    #[test]
    fn streamed_run_is_bit_identical_to_serial_for_every_lane_count() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        for method in [
            &NormalFill as &(dyn crate::methods::FillMethod + Sync),
            &GreedyFill,
            &IlpTwo,
        ] {
            let serial = ctx.run(&cfg, method).expect("serial");
            for lanes in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(lanes);
                let (sctx, streamed) =
                    run_flow_streamed_impl(&d, &cfg, method, &pool).expect("streamed");
                let tag = format!("{} @ {lanes} lanes", method.name());
                assert_outcomes_identical(&serial, &streamed, &tag);
                assert_eq!(sctx.problems, ctx.problems, "{tag}");
                assert_eq!(sctx.columns, ctx.columns, "{tag}");
                assert_eq!(sctx.budget, ctx.budget, "{tag}");
                // The public (host-aware) entry must agree too.
                let (_, public) = run_flow_streamed(&d, &cfg, method, &pool).expect("public");
                assert_outcomes_identical(&serial, &public, &tag);
            }
        }
    }

    /// The horizontal fill-layer segments of `d` as `(net, segment)`
    /// pairs, in net order.
    fn fill_layer_segments(d: &Design) -> Vec<(usize, usize)> {
        let mut at = Vec::new();
        for (ni, n) in d.nets.iter().enumerate() {
            for (si, s) in n.segments.iter().enumerate() {
                if s.layer == LayerId(0) && s.start.y == s.end.y {
                    at.push((ni, si));
                }
            }
        }
        at
    }

    /// `d` with each listed segment's width changed by `delta` — a
    /// localized geometry change that keeps every net's line count on
    /// the layer.
    fn resize_segments(d: &Design, at: &[(usize, usize)], delta: Coord) -> Design {
        let mut d2 = d.clone();
        for &(ni, si) in at {
            d2.nets[ni].segments[si].width += delta;
        }
        d2
    }

    /// Field-for-field equality of a rebuilt context with a fresh build,
    /// and of their ILP-II outcomes.
    fn assert_contexts_identical(
        ctx: &FlowContext,
        fresh: &FlowContext,
        cfg: &FlowConfig,
        tag: &str,
    ) {
        assert_context_state_identical(ctx, fresh, tag);
        let a = ctx.run(cfg, &IlpTwo).expect("rebuilt run");
        let b = fresh.run(cfg, &IlpTwo).expect("fresh run");
        assert_outcomes_identical(&a, &b, tag);
    }

    /// Field-for-field equality of two contexts.
    fn assert_context_state_identical(ctx: &FlowContext, fresh: &FlowContext, tag: &str) {
        assert_eq!(ctx.transposed, fresh.transposed, "{tag}");
        assert_eq!(ctx.config, fresh.config, "{tag}");
        assert_eq!(*ctx.frame_design, *fresh.frame_design, "{tag}");
        assert_eq!(ctx.dissection, fresh.dissection, "{tag}");
        assert_eq!(ctx.lines, fresh.lines, "{tag}");
        assert_eq!(ctx.net_line_ranges, fresh.net_line_ranges, "{tag}");
        assert_eq!(ctx.columns, fresh.columns, "{tag}");
        assert_eq!(ctx.problems, fresh.problems, "{tag}");
        assert_eq!(ctx.map, fresh.map, "{tag}");
        assert_eq!(ctx.slack, fresh.slack, "{tag}");
        assert_eq!(ctx.budget, fresh.budget, "{tag}");
        assert_eq!(ctx.budget_total, fresh.budget_total, "{tag}");
        assert_eq!(ctx.density_map, fresh.density_map, "{tag}");
        assert_eq!(ctx.density_before, fresh.density_before, "{tag}");
    }

    /// Under every definition, a segment edit rebuilds incrementally, slab
    /// by slab, into the context a cold build makes, column map included.
    #[test]
    fn rebuild_after_one_segment_mutation_matches_fresh_build() {
        let pool = WorkerPool::new(1);
        for seed in 0..6 {
            let d = synthesize(&SynthConfig::small_test(seed));
            let segments = fill_layer_segments(&d);
            for (r, def) in [2usize, 4]
                .into_iter()
                .flat_map(|r| DEFS.map(|def| (r, def)))
            {
                let mut cfg = FlowConfig::new(8_000, r).expect("valid config");
                cfg.def = def;
                let pitch = cfg.window / units::coord(r);
                let grid_columns = |(ni, si): (usize, usize)| {
                    let rect = d.nets[ni].segments[si].rect();
                    (rect.left - d.die.left) / pitch..=(rect.right - d.die.left) / pitch
                };
                // Two segments of different nets whose grid columns share
                // none.
                let (first, second) = segments
                    .iter()
                    .flat_map(|&a| segments.iter().map(move |&b| (a, b)))
                    .find(|&(a, b)| {
                        let (ca, cb) = (grid_columns(a), grid_columns(b));
                        a.0 != b.0 && (cb.end() < ca.start() || ca.end() < cb.start())
                    })
                    .expect("segments of two nets in disjoint grid columns");
                let both = [first, second];
                let edits = [
                    ("widen", &both[..1], 100),
                    ("narrow", &both[..1], -100),
                    ("widen two nets", &both[..], 100),
                ];
                for (name, at, delta) in edits {
                    let tag = format!("seed {seed} r {r} {def} {name}");
                    let d2 = resize_segments(&d, at, delta);
                    let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
                    let (stats, _) = ctx.rebuild_owned(&d2, &cfg, &pool).expect("rebuild");
                    assert!(!stats.full, "{tag}: a segment change must stay incremental");
                    assert_eq!(stats.changed_nets, at.len(), "{tag}");
                    assert!(stats.dirty_site_columns > 0, "{tag}");
                    assert!(stats.dirty_grid_columns >= at.len(), "{tag}");
                    let fresh = FlowContext::build(&d2, &cfg).expect("fresh");
                    assert_contexts_identical(&ctx, &fresh, &cfg, &tag);
                }

                // One edit that pulls a segment's end in by a few sites:
                // the site columns it leaves lose the line and their gaps
                // merge, so a dirty slab holds fewer global columns and
                // every clean slab to its right starts at a shifted global
                // index. The rebuilt column map must equal a fresh one.
                let tag = format!("seed {seed} r {r} {def} shorten");
                let slabs_of =
                    |ctx: &FlowContext| slab_ranges(&ctx.columns, &ctx.dissection, d.rules);
                let step = 4 * d.rules.site_pitch();
                let (d2, ctx) = segments
                    .iter()
                    .find_map(|&(ni, si)| {
                        let mut d2 = d.clone();
                        let net = &mut d2.nets[ni];
                        let seg = &mut net.segments[si];
                        let dir = (seg.end.x - seg.start.x).signum();
                        if (seg.end.x - seg.start.x).abs() <= 2 * step {
                            return None;
                        }
                        let old_end = seg.end;
                        seg.end.x -= dir * step;
                        let new_end = seg.end;
                        // A sink at the old end moves with it.
                        for sink in net.sinks.iter_mut().filter(|s| **s == old_end) {
                            *sink = new_end;
                        }
                        let mut ctx = FlowContext::build(&d, &cfg).ok()?.into_owned();
                        let before = slabs_of(&ctx);
                        let (stats, _) = ctx.rebuild_owned(&d2, &cfg, &pool).ok()?;
                        let after = slabs_of(&ctx);
                        // A slab whose column count changed, with a clean
                        // slab to its right.
                        let changed = (0..after.len()).find(|&ix| before[ix] != after[ix])?;
                        let right = changed + 1;
                        let shifted = right < after.len()
                            && before[right].len() == after[right].len()
                            && before[right].start != after[right].start;
                        (!stats.full && shifted).then_some((d2, ctx))
                    })
                    .expect("a segment whose shortening changes a slab's column count");
                let fresh = FlowContext::build(&d2, &cfg).expect("fresh");
                assert_contexts_identical(&ctx, &fresh, &cfg, &tag);
            }
        }
    }

    /// A rebuild whose extraction fails on a later net must leave the
    /// context as it was, even though an earlier changed net extracted
    /// fine.
    #[test]
    fn failed_rebuild_leaves_the_context_as_it_was() {
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(1);
        let segments = fill_layer_segments(&d);
        let first = segments[0];
        let later = segments
            .iter()
            .map(|&(ni, _)| ni)
            .find(|&ni| ni > first.0)
            .expect("a later net with a fill-layer segment");
        let mut d2 = resize_segments(&d, &[first], 100);
        d2.nets[later]
            .sinks
            .push(pilfill_geom::Point::new(-12_345, -12_345));

        let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
        assert!(ctx.rebuild_owned(&d2, &cfg, &pool).is_err());
        let fresh = FlowContext::build(&d, &cfg).expect("fresh");
        assert_contexts_identical(&ctx, &fresh, &cfg, "after a failed rebuild");
    }

    /// A value-only edit — duplicating a sink bumps downstream weights
    /// without moving any geometry — must re-solve the net's tiles but
    /// reuse the cached budget (density and slack are bit-identical).
    #[test]
    fn rebuild_after_sink_weight_change_reuses_the_budget() {
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(1);
        let mut d2 = d.clone();
        let sink = d2.nets[0].sinks[0];
        d2.nets[0].sinks.push(sink);

        let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
        let (stats, _) = ctx.rebuild_owned(&d2, &cfg, &pool).expect("rebuild");
        assert!(!stats.full, "a sink edit must stay incremental");
        assert_eq!(stats.changed_nets, 1);
        assert_eq!(
            stats.dirty_site_columns, 0,
            "no geometry moved, so no column needs a re-sweep"
        );
        assert!(
            stats.dirty_grid_columns > 0,
            "the net's tiles must still be re-solved (weights feed costs)"
        );
        assert!(
            stats.budget_reused,
            "geometry-preserving edits must reuse the cached budget"
        );

        let fresh = FlowContext::build(&d2, &cfg).expect("fresh");
        assert_contexts_identical(&ctx, &fresh, &cfg, "sink-weight rebuild vs fresh");
    }

    #[test]
    fn rebuild_with_no_change_is_a_no_op_hit() {
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(1);
        let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
        let before_problems = ctx.problems.clone();
        let (stats, dirt) = ctx.rebuild_owned(&d, &cfg, &pool).expect("rebuild");
        assert_eq!(
            stats,
            RebuildStats {
                full: false,
                changed_nets: 0,
                dirty_site_columns: 0,
                dirty_grid_columns: 0,
                budget_reused: true,
            }
        );
        assert_eq!(dirt, RebuildDirt::Tiles(Vec::new()));
        assert_eq!(ctx.problems, before_problems);
    }

    #[test]
    fn rebuild_falls_back_on_structural_changes() {
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(1);

        // Config change -> full.
        let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
        let mut cfg2 = cfg.clone();
        cfg2.weighted = true;
        assert!(ctx.rebuild_owned(&d, &cfg2, &pool).expect("rebuild").0.full);

        // Net-count change -> full.
        let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
        let mut d2 = d.clone();
        d2.nets.pop();
        let (stats, dirt) = ctx.rebuild_owned(&d2, &cfg, &pool).expect("rebuild");
        assert!(stats.full);
        assert_eq!(dirt, RebuildDirt::All);
        let fresh = FlowContext::build(&d2, &cfg).expect("fresh");
        assert_contexts_identical(&ctx, &fresh, &cfg, "full fallback");
    }

    /// Counts gathered tile by tile, in any order, through the store or
    /// through the `finish_run` adapter, assemble to `run`'s outcome.
    #[test]
    fn solve_tile_and_finish_run_replay_matches_run() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        let direct = ctx.run(&cfg, &IlpTwo).expect("run");
        let n = ctx.problems().len();
        let mut per_tile = Vec::new();
        let mut store = TileCounts::new(ctx.problems());
        for i in (0..n).rev() {
            let (counts, elapsed) = ctx.solve_tile(&cfg, &IlpTwo, i).expect("tile");
            store.set(i, &counts, elapsed);
            per_tile.push((i, counts, elapsed));
        }
        per_tile.reverse();
        let stored = ctx.assemble(IlpTwo.name(), &store);
        assert_outcomes_identical(&direct, &stored, "store replay");
        let replayed = ctx.finish_run(IlpTwo.name(), per_tile).expect("finish");
        assert_outcomes_identical(&direct, &replayed, "finish_run replay");
    }

    /// A counts slice longer than its tile would report features that do
    /// not exist; the adapter refuses it.
    #[test]
    #[should_panic(expected = "one count per column")]
    fn finish_run_rejects_counts_longer_than_their_tile() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        let per_tile = ctx
            .problems()
            .iter()
            .enumerate()
            .map(|(i, p)| (i, vec![0; p.columns.len() + 1], Duration::ZERO))
            .collect();
        let _ = ctx.finish_run(IlpTwo.name(), per_tile);
    }

    /// Invalidating a tile whose column count changed re-spans the store
    /// and keeps every other tile's counts.
    #[test]
    fn invalidate_respans_a_dirty_tile_whose_columns_changed() {
        let d = design();
        let cfg = config();
        let ctx = FlowContext::build(&d, &cfg).expect("ctx");
        let mut problems = ctx.problems().to_vec();
        let mut store = TileCounts::new(&problems);
        for (i, p) in problems.iter().enumerate() {
            let counts: Vec<u32> = (0..p.columns.len()).map(|c| (i + c) as u32 % 3).collect();
            store.set(i, &counts, Duration::from_nanos(i as u64));
        }
        let kept = store.clone();
        let dirty = problems
            .iter()
            .position(|p| p.columns.len() > 1)
            .expect("a tile with columns");
        problems[dirty].columns.pop();
        store.invalidate(&RebuildDirt::Tiles(vec![dirty]), &problems);
        assert!(store.fits(&problems));
        assert_eq!(store.times[dirty], None);
        assert_eq!(store.tile(dirty), vec![0; problems[dirty].columns.len()]);
        for i in (0..problems.len()).filter(|&i| i != dirty) {
            assert_eq!(store.tile(i), kept.tile(i), "tile {i}");
            assert_eq!(store.times[i], kept.times[i], "tile {i}");
        }
        store.invalidate(&RebuildDirt::All, &problems);
        assert_eq!(store, TileCounts::new(&problems));
    }

    #[test]
    fn into_owned_preserves_run_results() {
        let d = design();
        let cfg = config();
        let borrowed = FlowContext::build(&d, &cfg).expect("ctx");
        let a = borrowed.run(&cfg, &IlpTwo).expect("borrowed run");
        let owned: FlowContext<'static> = borrowed.into_owned();
        drop(d); // the owned context must not depend on the design
        let b = owned.run(&cfg, &IlpTwo).expect("owned run");
        assert_outcomes_identical(&a, &b, "into_owned");
    }

    #[test]
    fn rebuild_dirt_bounds_the_tiles_whose_results_change() {
        // Replay clean tiles from the pre-edit cache, re-solve only the
        // reported dirty tiles, and the assembled outcome must be
        // bit-identical to a fresh full run on the edited design — the
        // exact contract the serving layer's result cache relies on.
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(1);
        // A sink duplication changes line weights (so the net's tiles
        // must re-solve) without moving geometry (so the budget — and
        // with it every other tile's allotment — is reused). Pick the
        // net with the smallest x-span on the fill layer so the dirt
        // stays partial.
        let mut d2 = d.clone();
        let ni = d2
            .nets
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                !n.sinks.is_empty() && n.segments.iter().any(|s| s.layer == LayerId(0))
            })
            .min_by_key(|(_, n)| {
                let rects: Vec<_> = n
                    .segments
                    .iter()
                    .filter(|s| s.layer == LayerId(0))
                    .map(|s| s.rect())
                    .collect();
                let left = rects.iter().map(|r| r.left).min().unwrap_or(0);
                let right = rects.iter().map(|r| r.right).max().unwrap_or(0);
                right - left
            })
            .map(|(ni, _)| ni)
            .expect("a net with sinks on the fill layer");
        let sink = d2.nets[ni].sinks[0];
        d2.nets[ni].sinks.push(sink);

        let mut ctx = FlowContext::build(&d, &cfg).expect("ctx").into_owned();
        let mut store = TileCounts::new(ctx.problems());
        for slot in &mut store.unsolved_slots() {
            ctx.solve_slot(&cfg, &IlpTwo, slot);
        }
        let (stats, dirt) = ctx.rebuild_owned(&d2, &cfg, &pool).expect("rebuild");
        assert!(!stats.full);
        assert!(stats.budget_reused);
        let RebuildDirt::Tiles(dirty) = &dirt else {
            panic!("value-only edit with reused budget must report tile dirt, got {dirt:?}");
        };
        assert!(!dirty.is_empty());
        assert!(dirty.len() < ctx.problems().len(), "dirt must be partial");
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted ascending");

        store.invalidate(&dirt, ctx.problems());
        let mut slots = store.unsolved_slots();
        let unsolved: Vec<usize> = slots.iter().map(|slot| slot.index).collect();
        assert_eq!(&unsolved, dirty, "exactly the dirty tiles are re-solved");
        for slot in &mut slots {
            ctx.solve_slot(&cfg, &IlpTwo, slot);
        }
        drop(slots);
        let replayed = ctx.assemble(IlpTwo.name(), &store);
        let fresh = FlowContext::build(&d2, &cfg)
            .expect("fresh")
            .run(&cfg, &IlpTwo)
            .expect("fresh run");
        assert_outcomes_identical(&fresh, &replayed, "dirty-tile replay");
    }

    #[test]
    fn forced_parallel_paths_match_the_serial_fallback() {
        // On any host, the forced multi-lane build/run must equal the
        // public entry points (which may fall back to serial on 1 CPU).
        let d = design();
        let cfg = config();
        let pool = WorkerPool::new(4);
        let ctx = FlowContext::build_pool(&d, &cfg, &pool).expect("ctx");
        let forced = FlowContext::build_pool_impl(&d, &cfg, &pool).expect("forced ctx");
        assert_eq!(ctx.problems, forced.problems);
        assert_eq!(ctx.budget_total, forced.budget_total);
        let a = ctx.run_pool(&cfg, &IlpTwo, &pool).expect("run");
        let b = forced
            .run_pool_impl(&cfg, &IlpTwo, &pool)
            .expect("forced run");
        assert_outcomes_identical(&a, &b, "forced vs fallback");
    }
}
