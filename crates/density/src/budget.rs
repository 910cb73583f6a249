//! Fill budgeting: how many fill features each tile must receive so that
//! window densities become as uniform as possible without exceeding an
//! upper bound — the budgeting step of the "normal fill" baseline
//! (reference \[3\] of the paper; invoked as "Run LP/Monte-Carlo" in the
//! Greedy PIL-Fill algorithm, Figure 8).
//!
//! Two interchangeable implementations are provided:
//!
//! - [`lp_budget`]: the exact Min-Var linear program (maximize the minimum
//!   window density), practical for small tile grids;
//! - [`montecarlo_budget`]: the scalable iterative heuristic — repeatedly
//!   add one feature to the neediest window's best tile — used by the main
//!   experiment flow.
//!
//! Both are density-only: they decide *how much* fill per tile, never
//! *where* inside the tile. The PIL-Fill methods all receive the same
//! per-tile budget, which is what makes their density quality identical
//! while their delay impact differs.

use crate::{DensityMap, FixedDissection};
use pilfill_geom::CellIndex;
use pilfill_solver::{Model, Objective, Sense, SolveError};
use std::collections::BinaryHeap;

/// Error from fill budgeting.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// `slack` length does not match the tile count.
    DimensionMismatch {
        /// Tiles in the dissection.
        expected: usize,
        /// Provided slack entries.
        got: usize,
    },
    /// The underlying LP failed.
    Solver(SolveError),
    /// Parameters out of range.
    InvalidParameter(String),
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "slack has {got} entries, dissection has {expected} tiles"
                )
            }
            BudgetError::Solver(e) => write!(f, "budget LP failed: {e}"),
            BudgetError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for BudgetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BudgetError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for BudgetError {
    fn from(e: SolveError) -> Self {
        BudgetError::Solver(e)
    }
}

/// The number of fill features each tile must receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillBudget {
    nx: usize,
    features: Vec<u32>,
}

impl FillBudget {
    fn new(dissection: &FixedDissection, features: Vec<u32>) -> Self {
        debug_assert_eq!(features.len(), dissection.tiles().len());
        Self {
            nx: dissection.tiles().nx(),
            features,
        }
    }

    /// Features budgeted for tile `(ix, iy)`.
    pub fn features(&self, (ix, iy): CellIndex) -> u32 {
        self.features[iy * self.nx + ix]
    }

    /// Total features across all tiles.
    pub fn total(&self) -> u64 {
        self.features.iter().map(|&f| f as u64).sum()
    }

    /// Iterates `(cell, features)` for tiles with a non-zero budget.
    pub fn iter(&self) -> impl Iterator<Item = (CellIndex, u32)> + '_ {
        self.features
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(move |(i, &f)| ((i % self.nx, i / self.nx), f))
    }
}

fn check_inputs(
    existing: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    upper_bound: f64,
) -> Result<(), BudgetError> {
    let expected = existing.dissection().tiles().len();
    if slack.len() != expected {
        return Err(BudgetError::DimensionMismatch {
            expected,
            got: slack.len(),
        });
    }
    if feature_area <= 0 {
        return Err(BudgetError::InvalidParameter(format!(
            "feature area must be positive (got {feature_area})"
        )));
    }
    if !(0.0..=1.0).contains(&upper_bound) {
        return Err(BudgetError::InvalidParameter(format!(
            "upper bound must be in [0, 1] (got {upper_bound})"
        )));
    }
    Ok(())
}

/// Exact Min-Var budgeting LP: maximize the minimum window density subject
/// to the per-window `upper_bound` and per-tile `slack` capacities
/// (in fill-feature counts). The relaxed per-tile counts are rounded down,
/// so the result is always feasible.
///
/// Intended for small grids (≲ 500 tiles); the main flow uses
/// [`montecarlo_budget`].
///
/// # Errors
///
/// Returns [`BudgetError::DimensionMismatch`] / `InvalidParameter` on bad
/// inputs and [`BudgetError::Solver`] if the LP fails (e.g. the existing
/// density already violates `upper_bound` makes it infeasible only if
/// windows exceed the bound before any fill; such windows are allowed — the
/// constraint only limits *added* fill).
pub fn lp_budget(
    existing: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    upper_bound: f64,
) -> Result<FillBudget, BudgetError> {
    check_inputs(existing, slack, feature_area, upper_bound)?;
    let dis = *existing.dissection();
    let grid = dis.tiles();
    let n = grid.len();

    let mut model = Model::new(Objective::Maximize);
    // Per-tile fill feature count, relaxed to continuous.
    let vars: Vec<_> = (0..n)
        .map(|i| model.add_var(0.0, slack[i] as f64, 0.0))
        .collect();
    // M: the minimum window density (the objective).
    let m = model.add_var(0.0, 1.0, 1.0);

    let fa = feature_area as f64;
    for w in dis.windows() {
        let rect_area = dis.window_rect(w).area() as f64;
        let a0 = existing.window_area(w) as f64;
        let tile_vars: Vec<_> = w
            .tiles()
            .map(|(ix, iy)| (vars[iy * grid.nx() + ix], fa))
            .collect();
        // Upper bound on *added* fill: A0 + fa * sum(n) <= max(U, current) * area.
        let ub = upper_bound.max(a0 / rect_area);
        model.add_constraint(tile_vars.clone(), Sense::Le, ub * rect_area - a0);
        // Min density: A0 + fa * sum(n) >= M * area.
        let mut terms = tile_vars;
        terms.push((m, -rect_area));
        model.add_constraint(terms, Sense::Ge, -a0);
    }

    let sol = model.solve_lp()?;
    let features = vars
        .iter()
        .map(|&v| pilfill_geom::units::saturating_count(sol.value(v).floor().max(0.0) as u64))
        .collect();
    Ok(FillBudget::new(&dis, features))
}

/// A heap entry of the budget loop's lazy priority queue. The `BinaryHeap`
/// max-heap yields the *smallest* `(density, window)` because the `Ord`
/// below is reversed.
///
/// Every window that can still take fill has exactly one entry, and its
/// `density` key is a *lower bound* on the window's current density:
/// densities only ever rise, and a grant elsewhere leaves the key behind
/// rather than pushing a fresh entry. An entry whose key still equals the
/// current density bit-for-bit is therefore the true minimum of the
/// `(density, window)` order; one whose key has fallen behind is re-keyed
/// in place when it surfaces.
#[derive(Debug, Clone, Copy)]
struct NeediestWindow {
    density: f64,
    wi: usize,
}

impl Ord for NeediestWindow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap then yields the lowest density first, ties
        // towards the lower window index — exactly the first-minimum rule
        // of the `min_by(total_cmp)` scan this heap replaces.
        other
            .density
            .total_cmp(&self.density)
            .then_with(|| other.wi.cmp(&self.wi))
    }
}

impl PartialOrd for NeediestWindow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NeediestWindow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for NeediestWindow {}

/// Scalable Monte-Carlo/greedy budgeting: repeatedly pick the window with
/// the lowest density and add one feature to its tile with the most
/// remaining slack, subject to no window exceeding `upper_bound`. Stops
/// when no minimum-density window can accept more fill.
///
/// The neediest window comes from a lazy min-heap holding one entry per
/// window that can still take fill. Densities only ever rise, so an
/// entry's key is a lower bound on its window's density: a grant re-keys
/// only the chosen window, and an entry whose key no longer matches the
/// window's density bit-for-bit is re-keyed when it surfaces. Both re-keys
/// happen in place at the top of the heap (one sift-down). An entry that
/// does match is the true `(density, window)` minimum, so every pick is
/// the one the O(W) linear scan would make.
///
/// Windows are the full `r × r` tile blocks, so the geometry is closed
/// form: window `ay · mx + ax` covers tile rows `ay..ay + r` and columns
/// `ax..ax + r`, and tile `(tx, ty)` is covered by the anchors in
/// `[tx − r + 1, tx] × [ty − r + 1, ty]` clipped to the grid.
///
/// Each tile holds one packed candidate key, `(remaining << 32) | !t`, or
/// 0 once it has no slack left or a *full* window covers it (one more
/// feature would lift that window above `upper_bound`). A window's best
/// tile — most remaining slack, ties towards the lower index — is then the
/// maximum key over `r` contiguous row slices. Fill only raises `w_fill`,
/// and IEEE addition and division round monotonically, so a full window
/// stays full and a zeroed key stays zero.
///
/// Deterministic: ties break towards lower tile index, and the heap's
/// tie-break reproduces the historical linear scan exactly.
///
/// # Errors
///
/// Returns [`BudgetError::DimensionMismatch`] / `InvalidParameter` on bad
/// inputs, including a tile count that does not fit the `u32` tile index
/// of the packed key.
pub fn montecarlo_budget(
    existing: &DensityMap,
    slack: &[u32],
    feature_area: i64,
    upper_bound: f64,
) -> Result<FillBudget, BudgetError> {
    check_inputs(existing, slack, feature_area, upper_bound)?;
    let dis = *existing.dissection();
    let grid = dis.tiles();
    let n = u32::try_from(grid.len()).map_err(|_| {
        BudgetError::InvalidParameter(format!(
            "{} tiles exceed the budget's u32 tile index",
            grid.len()
        ))
    })?;
    let (nx, r) = (grid.nx(), dis.r());
    // Window anchors per row and per column (the die spans a window, so
    // both are at least 1).
    let mx = nx - (r - 1);
    let my = grid.ny() - (r - 1);

    // Window areas and current feature areas, indexed `ay * mx + ax`.
    let w_area: Vec<f64> = dis
        .windows()
        .map(|w| dis.window_rect(w).area() as f64)
        .collect();
    let mut w_fill: Vec<f64> = dis
        .windows()
        .map(|w| existing.window_area(w) as f64)
        .collect();

    const ONE: u64 = 1 << 32;
    let mut key: Vec<u64> = (0..n)
        .zip(slack)
        .map(|(t, &s)| {
            if s == 0 {
                0
            } else {
                u64::from(s) << 32 | u64::from(!t)
            }
        })
        .collect();
    let mut budget = vec![0u32; grid.len()];
    let fa = feature_area as f64;

    // The historical acceptance check `after <= upper_bound.max(current)
    // && after <= upper_bound` collapses to `after <= upper_bound` (the max
    // only ever raises the first bound). `full` is its negation with the
    // same operands, order and comparison, so NaN lands the same way.
    let fits = |fill: f64, area: f64| (fill + fa) / area <= upper_bound;
    let block = |key: &mut [u64], ax: usize, ay: usize| {
        for ty in ay..ay + r {
            key[ty * nx + ax..][..r].fill(0);
        }
    };
    let mut full: Vec<bool> = w_fill
        .iter()
        .zip(&w_area)
        .map(|(&f, &a)| !fits(f, a))
        .collect();
    for (wi, _) in full.iter().enumerate().filter(|(_, &f)| f) {
        block(&mut key, wi % mx, wi / mx);
    }

    let mut heap: BinaryHeap<NeediestWindow> = w_fill
        .iter()
        .zip(&w_area)
        .enumerate()
        .map(|(wi, (&f, &a))| NeediestWindow { density: f / a, wi })
        .collect();

    while let Some(mut top) = heap.peek_mut() {
        let wi = top.wi;
        let density = w_fill[wi] / w_area[wi];
        if density.to_bits() != top.density.to_bits() {
            top.density = density;
            continue;
        }

        // Best tile in that window: the largest key, which is 0 when every
        // tile of the window is out of slack or under a full window.
        let (ax, ay) = (wi % mx, wi / mx);
        let best = (ay..ay + r)
            .map(|ty| key[ty * nx + ax..][..r].iter().fold(0, |m, &k| m.max(k)))
            .fold(0, u64::max);
        // No candidate: the window is stuck and leaves the heap. Adding
        // fill elsewhere only raises densities, never creates capacity, so
        // it stays stuck.
        if best == 0 {
            std::collections::binary_heap::PeekMut::pop(top);
            continue;
        }
        // The low half of a key is `!t` for a tile index that fits u32
        // (checked above); u32 -> usize is widening on every supported
        // target.
        let t = !(best as u32) as usize; // pilfill: allow(as-cast)
        budget[t] += 1;
        key[t] = if best < 2 * ONE { 0 } else { best - ONE };
        let (tx, ty) = (t % nx, t / nx);
        for cy in ty.saturating_sub(r - 1)..=ty.min(my - 1) {
            for cx in tx.saturating_sub(r - 1)..=tx.min(mx - 1) {
                let cw = cy * mx + cx;
                w_fill[cw] += fa;
                if !full[cw] && !fits(w_fill[cw], w_area[cw]) {
                    full[cw] = true;
                    block(&mut key, cx, cy);
                }
            }
        }
        // The chosen tile lies inside window `wi`, so its density rose.
        top.density = w_fill[wi] / w_area[wi];
    }

    Ok(FillBudget::new(&dis, budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedDissection;
    use pilfill_geom::{Dir, Point, Rect};
    use pilfill_layout::{DesignBuilder, LayerId};

    const FEATURE_AREA: i64 = 160_000; // 400 x 400

    fn test_map() -> DensityMap {
        // One dense corner wire, rest empty.
        let design = DesignBuilder::new("d", Rect::new(0, 0, 16_000, 16_000))
            .layer("m3", Dir::Horizontal)
            .net("n", Point::new(0, 1_000))
            .segment("m3", Point::new(0, 1_000), Point::new(7_000, 1_000), 2_000)
            .sink(Point::new(7_000, 1_000))
            .build()
            .expect("valid");
        let dis = FixedDissection::new(design.die, 8_000, 2).expect("valid");
        DensityMap::compute(&design, LayerId(0), &dis)
    }

    fn full_slack(map: &DensityMap, per_tile: u32) -> Vec<u32> {
        vec![per_tile; map.dissection().tiles().len()]
    }

    #[test]
    fn lp_budget_improves_min_density() {
        let map = test_map();
        let slack = full_slack(&map, 40);
        let before = map.analyze();
        let budget = lp_budget(&map, &slack, FEATURE_AREA, 0.4).expect("lp");
        let mut after_map = map.clone();
        for (cell, f) in budget.iter() {
            after_map.add_tile_area(cell, f as i64 * FEATURE_AREA);
        }
        let after = after_map.analyze();
        assert!(after.min_window_density > before.min_window_density);
        assert!(after.max_window_density <= 0.4 + 1e-9);
        assert!(after.variation < before.variation);
    }

    #[test]
    fn montecarlo_budget_improves_min_density() {
        let map = test_map();
        let slack = full_slack(&map, 40);
        let before = map.analyze();
        let budget = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.4).expect("mc");
        let mut after_map = map.clone();
        for (cell, f) in budget.iter() {
            after_map.add_tile_area(cell, f as i64 * FEATURE_AREA);
        }
        let after = after_map.analyze();
        assert!(after.min_window_density > before.min_window_density);
        assert!(after.max_window_density <= 0.4 + 1e-9);
    }

    #[test]
    fn budgets_respect_slack() {
        let map = test_map();
        let slack = full_slack(&map, 3);
        for budget in [
            lp_budget(&map, &slack, FEATURE_AREA, 0.5).expect("lp"),
            montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5).expect("mc"),
        ] {
            for (cell, f) in budget.iter() {
                let _ = cell;
                assert!(f <= 3);
            }
        }
    }

    #[test]
    fn zero_slack_means_zero_budget() {
        let map = test_map();
        let slack = full_slack(&map, 0);
        let b = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5).expect("mc");
        assert_eq!(b.total(), 0);
        let b = lp_budget(&map, &slack, FEATURE_AREA, 0.5).expect("lp");
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn montecarlo_close_to_lp_on_small_grid() {
        let map = test_map();
        let slack = full_slack(&map, 25);
        let apply = |budget: &FillBudget| {
            let mut m = map.clone();
            for (cell, f) in budget.iter() {
                m.add_tile_area(cell, f as i64 * FEATURE_AREA);
            }
            m.analyze().min_window_density
        };
        let lp = lp_budget(&map, &slack, FEATURE_AREA, 0.35).expect("lp");
        let mc = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.35).expect("mc");
        let lp_min = apply(&lp);
        let mc_min = apply(&mc);
        // MC should reach at least 85% of the LP's min-density gain.
        assert!(mc_min >= 0.85 * lp_min, "mc {mc_min} far below lp {lp_min}");
    }

    /// The pre-heap linear-scan budget loop, kept verbatim as the
    /// reference the lazy heap must reproduce bit-for-bit.
    fn montecarlo_budget_by_scan(
        existing: &DensityMap,
        slack: &[u32],
        feature_area: i64,
        upper_bound: f64,
    ) -> FillBudget {
        let dis = *existing.dissection();
        let grid = dis.tiles();
        let nx = grid.nx();
        let n = grid.len();
        let windows: Vec<_> = dis.windows().collect();
        let w_area: Vec<f64> = windows
            .iter()
            .map(|&w| dis.window_rect(w).area() as f64)
            .collect();
        let mut w_fill: Vec<f64> = windows
            .iter()
            .map(|&w| existing.window_area(w) as f64)
            .collect();
        let mut windows_of_tile: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (wi, w) in windows.iter().enumerate() {
            for (ix, iy) in w.tiles() {
                windows_of_tile[iy * nx + ix].push(wi);
            }
        }
        let mut remaining: Vec<u32> = slack.to_vec();
        let mut budget = vec![0u32; n];
        let fa = feature_area as f64;
        let mut stuck = vec![false; windows.len()];
        loop {
            let target = (0..windows.len())
                .filter(|&wi| !stuck[wi])
                .min_by(|&a, &b| (w_fill[a] / w_area[a]).total_cmp(&(w_fill[b] / w_area[b])));
            let Some(wi) = target else { break };
            let candidate = windows[wi]
                .tiles()
                .map(|(ix, iy)| iy * nx + ix)
                .filter(|&t| remaining[t] > 0)
                .filter(|&t| {
                    windows_of_tile[t].iter().all(|&cw| {
                        let after = (w_fill[cw] + fa) / w_area[cw];
                        after <= upper_bound.max(w_fill[cw] / w_area[cw]) && after <= upper_bound
                    })
                })
                .max_by_key(|&t| (remaining[t], std::cmp::Reverse(t)));
            match candidate {
                Some(t) => {
                    remaining[t] -= 1;
                    budget[t] += 1;
                    for &cw in &windows_of_tile[t] {
                        w_fill[cw] += fa;
                    }
                }
                None => stuck[wi] = true,
            }
        }
        FillBudget::new(&dis, budget)
    }

    #[test]
    fn heap_budget_matches_linear_scan_reference() {
        let map = test_map();
        for per_tile in [0u32, 1, 3, 10, 25, 40] {
            for ub in [0.2, 0.35, 0.4, 0.5, 1.0] {
                let slack = full_slack(&map, per_tile);
                let heap = montecarlo_budget(&map, &slack, FEATURE_AREA, ub).expect("mc");
                let scan = montecarlo_budget_by_scan(&map, &slack, FEATURE_AREA, ub);
                assert_eq!(heap, scan, "slack {per_tile}, bound {ub}");
            }
        }
    }

    /// A seeded budgeting case: a (possibly partial) die cut into
    /// `window / r` tiles, random drawn areas (multiples of `quantum`)
    /// with some tiles packed full, and random slack with zeros mixed in.
    fn seeded_case(
        rng: &mut pilfill_prng::rngs::StdRng,
        r: usize,
        quantum: i64,
    ) -> (DensityMap, Vec<u32>) {
        use pilfill_prng::Rng;
        const TILE: i64 = 1_000;
        let window = TILE * r as i64;
        let side = |rng: &mut pilfill_prng::rngs::StdRng| {
            let tiles = rng.gen_range(r..r + 5) as i64;
            // Every other die ends in a partial tile row/column.
            let partial = if rng.gen_bool(0.5) {
                rng.gen_range(1..TILE)
            } else {
                0
            };
            tiles * TILE + partial
        };
        let (w, h) = (side(rng), side(rng));
        let dis = FixedDissection::new(Rect::new(0, 0, w, h), window, r).expect("dissection");
        random_case(rng, &dis, quantum)
    }

    /// Random drawn areas (multiples of `quantum`, some tiles packed full)
    /// and random slack with zeros mixed in, on the tiles of `dis`.
    fn random_case(
        rng: &mut pilfill_prng::rngs::StdRng,
        dis: &FixedDissection,
        quantum: i64,
    ) -> (DensityMap, Vec<u32>) {
        use pilfill_prng::Rng;
        const TILE: i64 = 1_000;
        let mut map = DensityMap::zeros(dis);
        let nx = dis.tiles().nx();
        let n = dis.tiles().len();
        let dense = rng.gen_range(0.0..0.3);
        let areas: Vec<i64> = (0..n)
            .map(|_| {
                if rng.gen_bool(dense) {
                    TILE * TILE
                } else {
                    rng.gen_range(0..TILE * TILE / 2) / quantum * quantum
                }
            })
            .collect();
        map.add_tile_areas(
            areas
                .iter()
                .enumerate()
                .map(|(i, &a)| ((i % nx, i / nx), a)),
        );
        let zeros = rng.gen_range(0.0..0.5);
        let slack = (0..n)
            .map(|_| {
                if rng.gen_bool(zeros) {
                    0
                } else {
                    rng.gen_range(1..40)
                }
            })
            .collect();
        (map, slack)
    }

    /// The heap budget equals the scan oracle exactly over r ∈ {1, 2, 4,
    /// 8}, bounds from 0.05 to 1, windows over the bound before any fill,
    /// zero-slack tiles, partial-die dissections, and feature areas from
    /// one unit to more than a tile. A quarter of the cases draw areas in
    /// whole features of 1/40 tile, so window densities land exactly on
    /// the bounds and the `<=` acceptance edge is exercised.
    #[test]
    fn heap_budget_matches_scan_on_seeded_cases() {
        use pilfill_prng::{Rng, SeedableRng};
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0x00B0_D6E7);
        // Cases with [a window over the bound before fill, a zero-slack
        // tile, a partial die, a non-empty budget].
        let mut seen = [0usize; 4];
        for r in [1usize, 2, 4, 8] {
            for case in 0..24 {
                let feature_area = match rng.gen_range(0..4) {
                    0 => 1,
                    1 => rng.gen_range(1_000..2_000_000),
                    2 => 25_000,
                    _ => rng.gen_range(5_000..40_000),
                };
                let quantum = if feature_area == 25_000 {
                    feature_area
                } else {
                    1
                };
                let (map, slack) = seeded_case(&mut rng, r, quantum);
                let bound = [0.05, 0.1, 0.25, 0.4, 0.6, 0.9, 1.0][rng.gen_range(0usize..7)];
                let heap = montecarlo_budget(&map, &slack, feature_area, bound).expect("mc");
                let scan = montecarlo_budget_by_scan(&map, &slack, feature_area, bound);
                assert_eq!(
                    heap, scan,
                    "r {r}, case {case}, bound {bound}, feature area {feature_area}"
                );
                let dis = *map.dissection();
                let die = dis.tiles().bounds();
                seen[0] += usize::from(dis.windows().any(|w| map.window_density(w) > bound));
                seen[1] += usize::from(slack.contains(&0));
                seen[2] += usize::from(
                    die.width() % dis.tile_size() != 0 || die.height() % dis.tile_size() != 0,
                );
                seen[3] += usize::from(heap.total() > 0);
            }
        }
        assert!(seen.iter().all(|&n| n >= 8), "cases seen: {seen:?}");
    }

    /// The closed-form window geometry against the scan oracle on the
    /// shapes where it is easiest to get wrong: `r = 1` (every tile is a
    /// window), a single window row or column (`my = 1` / `mx = 1`),
    /// non-square grids, and dies that end in clamped partial tiles.
    #[test]
    fn budget_matches_scan_on_edge_geometries() {
        use pilfill_prng::{Rng, SeedableRng};
        const TILE: i64 = 1_000;
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0x6E0_3E7);
        // (r, die width, die height, expected (mx, my)).
        let shapes = [
            (1, TILE, TILE, (1, 1)),
            (1, 7 * TILE, 3 * TILE, (7, 3)),
            (1, 5 * TILE + 1, 2 * TILE + 999, (6, 3)),
            (3, 3 * TILE, 9 * TILE, (1, 7)),
            (3, 8 * TILE, 3 * TILE, (6, 1)),
            (3, 3 * TILE, 3 * TILE, (1, 1)),
            (2, 2 * TILE, 6 * TILE + 500, (1, 6)),
            (2, 9 * TILE + 250, 2 * TILE, (9, 1)),
            (4, 11 * TILE + 1, 5 * TILE + 700, (9, 3)),
            (5, 6 * TILE + 300, 13 * TILE, (3, 9)),
        ];
        let mut granted = 0;
        for (r, w, h, (mx, my)) in shapes {
            let window = TILE * i64::try_from(r).expect("small r");
            let dis = FixedDissection::new(Rect::new(0, 0, w, h), window, r).expect("dissection");
            let anchors = dis.windows().count();
            assert_eq!(anchors, mx * my, "r {r}, die {w} x {h}");
            for case in 0..6 {
                let quantum = if case % 2 == 0 { 25_000 } else { 1 };
                let (map, slack) = random_case(&mut rng, &dis, quantum);
                let feature_area = [1, 25_000, 160_000][case % 3];
                let bound = [0.1, 0.4, 1.0][rng.gen_range(0usize..3)];
                let fast = montecarlo_budget(&map, &slack, feature_area, bound).expect("mc");
                let scan = montecarlo_budget_by_scan(&map, &slack, feature_area, bound);
                assert_eq!(
                    fast, scan,
                    "r {r}, die {w} x {h}, case {case}, bound {bound}"
                );
                granted += usize::from(fast.total() > 0);
            }
        }
        assert!(granted >= 30, "only {granted} of 60 cases granted fill");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let map = test_map();
        let slack = vec![1u32; 3];
        assert!(matches!(
            montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5),
            Err(BudgetError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let map = test_map();
        let slack = full_slack(&map, 1);
        assert!(lp_budget(&map, &slack, 0, 0.5).is_err());
        assert!(montecarlo_budget(&map, &slack, FEATURE_AREA, 1.5).is_err());
    }

    #[test]
    fn budget_indexing_round_trips() {
        let map = test_map();
        let slack = full_slack(&map, 10);
        let b = montecarlo_budget(&map, &slack, FEATURE_AREA, 0.5).expect("mc");
        let from_iter: u64 = b.iter().map(|(_, f)| f as u64).sum();
        assert_eq!(from_iter, b.total());
        for (cell, f) in b.iter() {
            assert_eq!(b.features(cell), f);
        }
    }
}
