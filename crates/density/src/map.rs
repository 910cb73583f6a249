use crate::{FixedDissection, Window};
use pilfill_geom::CellIndex;
use pilfill_layout::{Design, LayerId};

/// Tiles per chunk in the vertical pass of the summed-area fold
/// ([`DensityMap::rebuild_prefix_chunked`]).
///
/// The fold adds each prefix row to the next as two flat `i64` slices;
/// splitting the rows into fixed-width chunks gives the compiler
/// independent, bounds-check-free inner loops it can unroll and
/// vectorize. 64 tiles = 512 bytes = 8 cache lines per chunk, and any
/// chunk width yields bit-identical tables (integer addition is
/// associative), which the lane-sweep test below checks for 1/2/4/8.
///
/// This is the density-crate counterpart of the scanline layout
/// constants in `pilfill_core::scan::layout`; it lives here because the
/// core crate depends on this one, not the other way around.
const PREFIX_CHUNK: usize = 64;

/// Per-tile feature area on one layer, with window-density queries.
///
/// # Examples
///
/// ```
/// use pilfill_density::{DensityMap, FixedDissection};
/// use pilfill_layout::synth::{SynthConfig, synthesize};
/// use pilfill_layout::LayerId;
///
/// let design = synthesize(&SynthConfig::small_test(1));
/// let dis = FixedDissection::new(design.die, 8_000, 2)?;
/// let map = DensityMap::compute(&design, LayerId(0), &dis);
/// let analysis = map.analyze();
/// assert!(analysis.max_window_density <= 1.0);
/// assert!(analysis.min_window_density <= analysis.max_window_density);
/// # Ok::<(), pilfill_density::DissectionError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    dissection: FixedDissection,
    /// Feature area per tile, row-major `[iy * nx + ix]`.
    area: Vec<i64>,
    /// Summed-area table over `area`, `(nx + 1) x (ny + 1)` row-major:
    /// `prefix[iy * (nx + 1) + ix]` is the total area of tiles in
    /// `[0, ix) x [0, iy)`. Rebuilt eagerly on every mutation (O(tiles))
    /// so window queries are O(1) and the map stays `Sync`.
    prefix: Vec<i64>,
}

/// Result of a window-density analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a density analysis is pure; dropping it discards the statistics"]
pub struct DensityAnalysis {
    /// Smallest window density (features / window area).
    pub min_window_density: f64,
    /// Largest window density.
    pub max_window_density: f64,
    /// `max - min`: the variation objective of density-driven fill.
    pub variation: f64,
    /// Mean window density.
    pub mean_window_density: f64,
}

impl DensityMap {
    /// Computes per-tile drawn metal area of `layer` under `dissection`,
    /// counting both wire segments and obstructions (macros are metal for
    /// CMP purposes).
    pub fn compute(design: &Design, layer: LayerId, dissection: &FixedDissection) -> Self {
        let grid = dissection.tiles();
        let mut area = vec![0i64; grid.len()];
        Self::accumulate_layer(&grid, &mut area, design, layer);
        Self::from_areas(*dissection, area)
    }

    /// Recomputes the map in place for (possibly changed) geometry on
    /// `layer`, reusing the existing `area` and `prefix` allocations.
    ///
    /// Equivalent to replacing `self` with
    /// [`DensityMap::compute`]`(design, layer, self.dissection())` but
    /// allocation-free once the buffers are warm.
    pub fn recompute(&mut self, design: &Design, layer: LayerId) {
        let grid = self.dissection.tiles();
        self.area.clear();
        self.area.resize(grid.len(), 0);
        Self::accumulate_layer(&grid, &mut self.area, design, layer);
        self.rebuild_prefix();
    }

    /// Adds the clipped per-tile area of every segment and obstruction on
    /// `layer` into `area` (row-major over `grid`).
    fn accumulate_layer(
        grid: &pilfill_geom::Grid,
        area: &mut [i64],
        design: &Design,
        layer: LayerId,
    ) {
        let mut add_rect = |rect: pilfill_geom::Rect| {
            for cell in grid.cells_overlapping(&rect) {
                let clipped = grid.cell_rect(cell).intersection(&rect);
                area[Self::index_of(grid, cell)] += clipped.area();
            }
        };
        for (_, _, seg) in design.segments_on_layer(layer) {
            add_rect(seg.rect());
        }
        for o in design.obstructions_on_layer(layer) {
            add_rect(o.rect);
        }
    }

    /// An all-zero map over `dissection` (useful for accumulating fill).
    pub fn zeros(dissection: &FixedDissection) -> Self {
        let n = dissection.tiles().len();
        Self::from_areas(*dissection, vec![0; n])
    }

    /// Builds a map from per-tile areas, computing the summed-area table.
    fn from_areas(dissection: FixedDissection, area: Vec<i64>) -> Self {
        let mut map = Self {
            dissection,
            area,
            prefix: Vec::new(),
        };
        map.rebuild_prefix();
        map
    }

    /// Recomputes the summed-area table from `area` in O(tiles).
    fn rebuild_prefix(&mut self) {
        self.rebuild_prefix_chunked(PREFIX_CHUNK);
    }

    /// The chunked two-pass summed-area build behind
    /// [`rebuild_prefix`](Self::rebuild_prefix), with an explicit chunk
    /// width so tests can sweep lane counts. Both passes are branchless
    /// row-major walks over flat slices:
    ///
    /// 1. each prefix row gets the horizontal running sums of its area
    ///    row (rows are independent);
    /// 2. each prefix row is added element-wise to the next, in
    ///    `chunk`-wide strips (`chunks_exact` lets the compiler drop
    ///    bounds checks and vectorize the strip).
    ///
    /// The result is bit-identical for every `chunk >= 1` and matches the
    /// scalar test oracle.
    fn rebuild_prefix_chunked(&mut self, chunk: usize) {
        assert!(chunk > 0, "chunk width must be positive");
        let grid = self.dissection.tiles();
        let (nx, ny) = (grid.nx(), grid.ny());
        let stride = nx + 1;
        self.prefix.clear();
        self.prefix.resize(stride * (ny + 1), 0);
        // Pass 1: horizontal running sums. Prefix row iy + 1 column
        // ix + 1 gets area[iy][..=ix] summed; column 0 stays zero.
        let rows = &mut self.prefix[stride..];
        for (iy, row) in rows.chunks_exact_mut(stride).enumerate() {
            let src = &self.area[iy * nx..(iy + 1) * nx];
            let mut run = 0i64;
            for (dst, &a) in row[1..].iter_mut().zip(src) {
                run += a;
                *dst = run;
            }
        }
        // Pass 2: vertical fold, row k += row k - 1 element-wise. The
        // rows are sequentially dependent but each row-pair add is a
        // flat slice walk in `chunk`-wide strips.
        for k in 1..ny {
            let (head, tail) = rows.split_at_mut(k * stride);
            let prev = &head[(k - 1) * stride..];
            let cur = &mut tail[..stride];
            let mut prev_chunks = prev.chunks_exact(chunk);
            let mut cur_chunks = cur.chunks_exact_mut(chunk);
            for (c, p) in (&mut cur_chunks).zip(&mut prev_chunks) {
                for (dst, &src) in c.iter_mut().zip(p) {
                    *dst += src;
                }
            }
            for (dst, &src) in cur_chunks
                .into_remainder()
                .iter_mut()
                .zip(prev_chunks.remainder())
            {
                *dst += src;
            }
        }
    }

    /// Sum of feature area over the half-open tile block
    /// `[x0, x1) x [y0, y1)` in O(1) via the summed-area table.
    fn block_area(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> i64 {
        let stride = self.dissection.tiles().nx() + 1;
        self.prefix[y1 * stride + x1] + self.prefix[y0 * stride + x0]
            - self.prefix[y0 * stride + x1]
            - self.prefix[y1 * stride + x0]
    }

    fn index_of(grid: &pilfill_geom::Grid, (ix, iy): CellIndex) -> usize {
        iy * grid.nx() + ix
    }

    /// The dissection this map was computed under.
    pub const fn dissection(&self) -> &FixedDissection {
        &self.dissection
    }

    /// Feature area of one tile.
    pub fn tile_area(&self, cell: CellIndex) -> i64 {
        self.area[Self::index_of(&self.dissection.tiles(), cell)]
    }

    /// Adds feature area to one tile (e.g. inserted fill).
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn add_tile_area(&mut self, cell: CellIndex, delta: i64) {
        let idx = Self::index_of(&self.dissection.tiles(), cell);
        self.area[idx] += delta;
        self.rebuild_prefix();
    }

    /// Adds feature area to many tiles with a single summed-area rebuild
    /// (the batched form of [`DensityMap::add_tile_area`]).
    ///
    /// # Panics
    ///
    /// Panics if any tile index is out of range.
    pub fn add_tile_areas(&mut self, deltas: impl IntoIterator<Item = (CellIndex, i64)>) {
        let grid = self.dissection.tiles();
        for (cell, delta) in deltas {
            self.area[Self::index_of(&grid, cell)] += delta;
        }
        self.rebuild_prefix();
    }

    /// Sum of feature area over a window, O(1) via the summed-area table.
    pub fn window_area(&self, w: Window) -> i64 {
        let grid = self.dissection.tiles();
        let (ax, ay) = w.anchor;
        let x1 = (ax + w.r).min(grid.nx());
        let y1 = (ay + w.r).min(grid.ny());
        self.block_area(ax.min(x1), ay.min(y1), x1, y1)
    }

    /// Density (feature area / geometric area) of a window.
    pub fn window_density(&self, w: Window) -> f64 {
        let rect = self.dissection.window_rect(w);
        self.window_area(w) as f64 / rect.area() as f64
    }

    /// Total feature area across all tiles.
    pub fn total_area(&self) -> i64 {
        self.area.iter().sum()
    }

    /// Returns a new map whose tile areas are the element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the two maps use different dissections.
    #[must_use]
    pub fn sum_with(&self, other: &DensityMap) -> DensityMap {
        assert_eq!(
            self.dissection, other.dissection,
            "cannot combine maps over different dissections"
        );
        DensityMap::from_areas(
            self.dissection,
            self.area
                .iter()
                .zip(&other.area)
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    /// Min/max/variation analysis over all windows.
    ///
    /// # Panics
    ///
    /// Panics if the dissection yields no windows (cannot happen for a
    /// successfully constructed [`FixedDissection`]).
    pub fn analyze(&self) -> DensityAnalysis {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for w in self.dissection.windows() {
            let d = self.window_density(w);
            min = min.min(d);
            max = max.max(d);
            sum += d;
            count += 1;
        }
        assert!(count > 0, "dissection has no windows");
        DensityAnalysis {
            min_window_density: min,
            max_window_density: max,
            variation: max - min,
            mean_window_density: sum / count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_geom::{Dir, Point, Rect};
    use pilfill_layout::DesignBuilder;

    fn dissection(die: Rect) -> FixedDissection {
        FixedDissection::new(die, 8_000, 2).expect("valid dissection")
    }

    fn one_wire_design() -> Design {
        DesignBuilder::new("d", Rect::new(0, 0, 32_000, 32_000))
            .layer("m3", Dir::Horizontal)
            .net("n", Point::new(0, 2_000))
            .segment("m3", Point::new(0, 2_000), Point::new(8_000, 2_000), 400)
            .sink(Point::new(8_000, 2_000))
            .build()
            .expect("valid design")
    }

    #[test]
    fn tile_areas_sum_to_layer_area() {
        let d = one_wire_design();
        let dis = dissection(d.die);
        let map = DensityMap::compute(&d, LayerId(0), &dis);
        assert_eq!(map.total_area(), d.metal_area_on_layer(LayerId(0)));
    }

    #[test]
    fn wire_spanning_two_tiles_splits_area() {
        let d = one_wire_design();
        // Tile size 4000; the wire [0, 8000) x [1800, 2200) covers tiles
        // (0,0) and (1,0) with 4000*400 each.
        let dis = dissection(d.die);
        let map = DensityMap::compute(&d, LayerId(0), &dis);
        assert_eq!(map.tile_area((0, 0)), 4_000 * 400);
        assert_eq!(map.tile_area((1, 0)), 4_000 * 400);
        assert_eq!(map.tile_area((2, 0)), 0);
    }

    #[test]
    fn window_density_reflects_contents() {
        let d = one_wire_design();
        let dis = dissection(d.die);
        let map = DensityMap::compute(&d, LayerId(0), &dis);
        let w = Window {
            anchor: (0, 0),
            r: 2,
        };
        let expected = (2.0 * 4_000.0 * 400.0) / (8_000.0f64 * 8_000.0);
        assert!((map.window_density(w) - expected).abs() < 1e-12);
    }

    #[test]
    fn add_fill_area_shifts_analysis() {
        let d = one_wire_design();
        let dis = dissection(d.die);
        let mut map = DensityMap::compute(&d, LayerId(0), &dis);
        let before = map.analyze();
        // Fill an empty corner tile heavily.
        map.add_tile_area((6, 6), 3_000_000);
        let after = map.analyze();
        assert!(after.min_window_density >= before.min_window_density);
        assert!(after.max_window_density >= before.max_window_density);
    }

    #[test]
    fn zeros_map_analysis_is_flat() {
        let d = one_wire_design();
        let dis = dissection(d.die);
        let map = DensityMap::zeros(&dis);
        let a = map.analyze();
        assert_eq!(a.min_window_density, 0.0);
        assert_eq!(a.max_window_density, 0.0);
        assert_eq!(a.variation, 0.0);
    }

    #[test]
    fn sum_with_adds_elementwise() {
        let d = one_wire_design();
        let dis = dissection(d.die);
        let map = DensityMap::compute(&d, LayerId(0), &dis);
        let total = map.sum_with(&map);
        assert_eq!(total.total_area(), 2 * map.total_area());
        assert_eq!(total.tile_area((0, 0)), 2 * map.tile_area((0, 0)));
    }

    /// Reference implementation: naive per-tile summation over the window.
    fn naive_window_area(map: &DensityMap, w: Window) -> i64 {
        w.tiles().map(|c| map.tile_area(c)).sum()
    }

    #[test]
    fn prefix_sum_matches_naive_on_randomized_maps() {
        use pilfill_prng::{Rng, SeedableRng};
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0xD1CE);
        // Mix of square and ragged grids, several r values.
        let cases = [
            (Rect::new(0, 0, 32_000, 32_000), 8_000i64, 2usize),
            (Rect::new(0, 0, 64_000, 64_000), 16_000, 4),
            (Rect::new(0, 0, 10_500, 9_100), 4_000, 2),
            (Rect::new(-5_000, -3_000, 27_000, 29_000), 8_000, 4),
            (Rect::new(0, 0, 24_000, 24_000), 24_000, 3),
        ];
        for (die, window, r) in cases {
            let dis = FixedDissection::new(die, window, r).expect("valid dissection");
            let mut map = DensityMap::zeros(&dis);
            let grid = dis.tiles();
            map.add_tile_areas(grid.indices().map(|c| (c, rng.gen_range(0..1_000_000i64))));
            for w in dis.windows() {
                assert_eq!(
                    map.window_area(w),
                    naive_window_area(&map, w),
                    "window {w:?} under {die:?} w={window} r={r}"
                );
            }
            // Mutate a few tiles one at a time and re-verify: the table
            // must track incremental updates, not just bulk builds.
            for _ in 0..8 {
                let ix = rng.gen_range(0..grid.nx());
                let iy = rng.gen_range(0..grid.ny());
                map.add_tile_area((ix, iy), rng.gen_range(-500_000..500_000i64));
            }
            for w in dis.windows() {
                assert_eq!(map.window_area(w), naive_window_area(&map, w));
            }
        }
    }

    /// The chunked two-pass fold must be bit-identical to the retained
    /// scalar reference for every lane width, on square, ragged, and
    /// single-row/column grids.
    /// The original scalar summed-area build, retained as the oracle for
    /// the chunked fold's bit-identity test.
    fn rebuild_prefix_reference(map: &mut DensityMap) {
        let grid = map.dissection.tiles();
        let (nx, ny) = (grid.nx(), grid.ny());
        map.prefix.clear();
        map.prefix.resize((nx + 1) * (ny + 1), 0);
        for iy in 0..ny {
            let mut row_sum = 0i64;
            for ix in 0..nx {
                row_sum += map.area[iy * nx + ix];
                map.prefix[(iy + 1) * (nx + 1) + ix + 1] =
                    map.prefix[iy * (nx + 1) + ix + 1] + row_sum;
            }
        }
    }

    #[test]
    fn chunked_prefix_is_bit_identical_across_lane_widths() {
        use pilfill_prng::{Rng, SeedableRng};
        let mut rng = pilfill_prng::rngs::StdRng::seed_from_u64(0xFA_CADE);
        let cases = [
            (Rect::new(0, 0, 32_000, 32_000), 8_000i64, 2usize),
            (Rect::new(0, 0, 10_500, 9_100), 4_000, 2),
            (Rect::new(-5_000, -3_000, 27_000, 29_000), 8_000, 4),
            (Rect::new(0, 0, 24_000, 4_000), 4_000, 2),
            (Rect::new(0, 0, 4_000, 24_000), 4_000, 2),
        ];
        for (die, window, r) in cases {
            let dis = FixedDissection::new(die, window, r).expect("valid dissection");
            let mut map = DensityMap::zeros(&dis);
            let grid = dis.tiles();
            map.add_tile_areas(
                grid.indices()
                    .map(|c| (c, rng.gen_range(-1_000_000..1_000_000i64))),
            );
            rebuild_prefix_reference(&mut map);
            let want = map.prefix.clone();
            for lanes in [1usize, 2, 4, 8] {
                map.prefix.clear();
                map.rebuild_prefix_chunked(lanes);
                assert_eq!(
                    map.prefix, want,
                    "lane width {lanes} diverged under {die:?} w={window} r={r}"
                );
            }
            // And the production width, in case it ever departs from the
            // swept set.
            map.rebuild_prefix_chunked(PREFIX_CHUNK);
            assert_eq!(map.prefix, want);
        }
    }

    /// `recompute` must reproduce `compute` exactly while reusing buffers.
    #[test]
    fn recompute_matches_fresh_compute() {
        let d = one_wire_design();
        let dis = dissection(d.die);
        let fresh = DensityMap::compute(&d, LayerId(0), &dis);
        let mut reused = DensityMap::zeros(&dis);
        reused.add_tile_area((3, 3), 123_456); // dirty the buffers first
        reused.recompute(&d, LayerId(0));
        assert_eq!(reused, fresh);
    }

    #[test]
    #[should_panic(expected = "different dissections")]
    fn sum_with_mismatched_dissections_panics() {
        let d = one_wire_design();
        let a = DensityMap::zeros(&dissection(d.die));
        let b = DensityMap::zeros(&FixedDissection::new(d.die, 16_000, 2).expect("valid"));
        let _ = a.sum_with(&b);
    }
}
