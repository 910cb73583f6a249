//! Fill DRC verification: checks a fill placement against the design
//! rules the way a signoff deck would — die containment, buffer distance
//! to wires and obstructions, fill-to-fill spacing, and overlaps.
//!
//! The flow's own placements satisfy these by construction (the scan-line
//! enforces them); the verifier exists for *imported* fill (e.g. read back
//! from GDSII with `pilfill_stream::GdsLibrary::fill_features`) and as
//! an independent check in tests and the `pilfill verify` CLI command.
//!
//! [`check_fill`] runs in near-linear time and `O(K + F)` memory for `K`
//! keepouts (buffered wires and obstructions) and `F` features. The
//! keepouts sit in a flat uniform grid keyed by the feature origins that
//! would crowd them, capped at `4·(K + F)` cells and slots, so each
//! feature probes one cell. Spacing pairs come from one sort of the
//! features by bucket. The report's violation order is a contract, fixed
//! by input order and design order and independent of the grid; the
//! function docs spell it out.

use crate::FillFeature;
use pilfill_geom::{Coord, Rect};
use pilfill_layout::{Design, FillRules, LayerId};

/// One design-rule violation found by [`check_fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrcViolation {
    /// A feature extends beyond the die.
    OffDie {
        /// The offending feature.
        feature: FillFeature,
    },
    /// A feature is within the buffer distance of a wire.
    BufferToWire {
        /// The offending feature.
        feature: FillFeature,
        /// The wire rectangle it crowds.
        wire: Rect,
    },
    /// A feature is within the buffer distance of an obstruction.
    BufferToObstruction {
        /// The offending feature.
        feature: FillFeature,
        /// The obstruction rectangle it crowds.
        obstruction: Rect,
    },
    /// Two features are closer than the fill-to-fill gap (overlapping
    /// features also report as this).
    FillSpacing {
        /// First feature.
        a: FillFeature,
        /// Second feature.
        b: FillFeature,
    },
}

impl std::fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrcViolation::OffDie { feature } => {
                write!(f, "fill at ({}, {}) off die", feature.x, feature.y)
            }
            DrcViolation::BufferToWire { feature, wire } => write!(
                f,
                "fill at ({}, {}) within buffer of wire {wire}",
                feature.x, feature.y
            ),
            DrcViolation::BufferToObstruction {
                feature,
                obstruction,
            } => write!(
                f,
                "fill at ({}, {}) within buffer of obstruction {obstruction}",
                feature.x, feature.y
            ),
            DrcViolation::FillSpacing { a, b } => write!(
                f,
                "fill at ({}, {}) and ({}, {}) closer than the fill gap",
                a.x, a.y, b.x, b.y
            ),
        }
    }
}

/// Result of a fill DRC run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a DRC run is pure; dropping the report discards the verdict"]
pub struct DrcReport {
    /// Features checked.
    pub checked: usize,
    /// All violations found (empty = clean).
    pub violations: Vec<DrcViolation>,
}

impl DrcReport {
    /// `true` when no rule is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks `features` (placed on `layer`) against `design`'s rules.
///
/// # Violation order
///
/// The report lists, for each feature in input order, its
/// [`DrcViolation::OffDie`] (if any), then one
/// [`DrcViolation::BufferToWire`] per crowded wire in
/// [`Design::segments_on_layer`] order, then one
/// [`DrcViolation::BufferToObstruction`] per crowded obstruction in
/// [`Design::obstructions_on_layer`] order. After every feature come the
/// [`DrcViolation::FillSpacing`] pairs `(features[i], features[j])`,
/// `i < j`, ordered by `i`, then by the neighbouring spacing bucket
/// (column offset, then row offset, each `-1..=1`; the bucket side is the
/// site pitch), then by `j`. A feature whose square does not fit the
/// `i64` coordinate range (`x + size` or `y + size` overflows) is reported
/// as off the die and takes no further checks.
///
/// # Cost
///
/// With `F` features and `K` keepouts (wires and obstructions on the
/// layer, each grown by the buffer distance), building the keepout grid
/// takes `O(K log D + F)` time, `D` being the die-scale extent over the site
/// pitch, and at most `4·(K + F)` cells and `4·(K + F)` keepout slots,
/// so the check's memory stays `O(K + F)` whatever the input. Each feature
/// probes one cell; the spacing check sorts the features once,
/// `O(F log F)`, and sweeps the sorted order with one pointer pair per
/// neighbouring bucket column. A legal placement (one feature per site,
/// keepouts spread over the die) thus checks in near-linear time; pairs
/// that share a cell or bucket, which only crowded or hostile inputs
/// produce in bulk, are tested one by one.
pub fn check_fill(design: &Design, layer: LayerId, features: &[FillFeature]) -> DrcReport {
    let rules = design.rules;
    let size = rules.feature_size;
    let pitch = spacing_pitch(&rules);
    let keepouts = keepouts(design, layer);
    let index = KeepoutIndex::new(&keepouts, size, pitch, features.len());
    let mut violations = Vec::new();
    for &f in features {
        let Some(rect) = feature_rect(f, size) else {
            violations.push(DrcViolation::OffDie { feature: f });
            continue;
        };
        if !design.die.contains_rect(&rect) {
            violations.push(DrcViolation::OffDie { feature: f });
        }
        for &id in index.candidates(f.x, f.y) {
            let keepout = &keepouts[slot_index(id)];
            if rect.overlaps(&keepout.zone) {
                violations.push(keepout.violation(f));
            }
        }
    }
    spacing_violations(features, size, pitch, rules.gap, &mut violations);
    DrcReport {
        checked: features.len(),
        violations,
    }
}

/// The drawn square of `f`, or `None` when it does not fit the `i64`
/// coordinate range.
fn feature_rect(f: FillFeature, size: Coord) -> Option<Rect> {
    Some(Rect::new(
        f.x,
        f.y,
        f.x.checked_add(size)?,
        f.y.checked_add(size)?,
    ))
}

/// `r` grown by `margin` on all four sides, clamped to the `i64` range.
/// Clamping loses nothing: a representable feature square never reaches
/// past `i64::MIN` or `i64::MAX` either.
fn grown_saturating(r: Rect, margin: Coord) -> Rect {
    Rect::new(
        r.left.saturating_sub(margin),
        r.bottom.saturating_sub(margin),
        r.right.saturating_add(margin),
        r.top.saturating_add(margin),
    )
}

/// Side of the fill-to-fill spacing buckets: the site pitch (feature plus
/// gap), so every feature that can crowd another sits in one of the nine
/// buckets around it.
fn spacing_pitch(rules: &FillRules) -> Coord {
    rules.feature_size.saturating_add(rules.gap).max(1)
}

/// What a keepout zone protects.
#[derive(Debug, Clone, Copy)]
enum KeepoutKind {
    Wire,
    Obstruction,
}

/// A wire or obstruction and the zone around it that fill must not touch.
#[derive(Debug)]
struct Keepout {
    /// The drawn rectangle, as reported in violations.
    drawn: Rect,
    /// `drawn` grown by the buffer distance.
    zone: Rect,
    kind: KeepoutKind,
}

impl Keepout {
    fn violation(&self, feature: FillFeature) -> DrcViolation {
        match self.kind {
            KeepoutKind::Wire => DrcViolation::BufferToWire {
                feature,
                wire: self.drawn,
            },
            KeepoutKind::Obstruction => DrcViolation::BufferToObstruction {
                feature,
                obstruction: self.drawn,
            },
        }
    }
}

/// The keepouts of `layer`: its wires, then its obstructions, each in
/// design order. A keepout's position here is its id in the index.
fn keepouts(design: &Design, layer: LayerId) -> Vec<Keepout> {
    let buffer = design.rules.buffer;
    let keepout = |drawn: Rect, kind| Keepout {
        drawn,
        zone: grown_saturating(drawn, buffer),
        kind,
    };
    design
        .segments_on_layer(layer)
        .map(|(_, _, s)| keepout(s.rect(), KeepoutKind::Wire))
        .chain(
            design
                .obstructions_on_layer(layer)
                .map(|o| keepout(o.rect, KeepoutKind::Obstruction)),
        )
        .collect()
}

/// The feature origins `[x_lo, y_lo, x_hi, y_hi]` (inclusive) whose
/// `size`-square overlaps `zone`, or `None` for an empty zone. Exact in
/// `i128`: the bounds may lie outside the `i64` range.
fn origin_region(zone: &Rect, size: Coord) -> Option<[i128; 4]> {
    if zone.is_empty() {
        return None;
    }
    let size = i128::from(size);
    Some([
        i128::from(zone.left) - size + 1,
        i128::from(zone.bottom) - size + 1,
        i128::from(zone.right) - 1,
        i128::from(zone.top) - 1,
    ])
}

/// A keepout id as an index (`u32` always fits `usize` on the platforms
/// the workspace supports).
fn slot_index(id: u32) -> usize {
    id as usize // audited: u32 widens into usize on 32- and 64-bit hosts; pilfill: allow(as-cast)
}

/// Keepouts bucketed by feature origin on a uniform grid, in CSR form.
///
/// Each keepout is listed in every cell its [`origin_region`] touches, so
/// the keepouts a feature can crowd are all in the one cell holding the
/// feature's lower-left corner, in ascending id order. The cell side
/// starts at eight site pitches and doubles until both the cell count and
/// the slot count are at most `4·(K + F)`; at the limit the grid is a
/// single cell holding every keepout once.
#[derive(Debug)]
struct KeepoutIndex {
    /// Feature origin at the lower-left corner of cell `(0, 0)`.
    origin: [i128; 2],
    /// Cell side in database units.
    side: i128,
    /// Cells per row.
    nx: usize,
    /// Cell rows.
    ny: usize,
    /// `ids[starts[c]..starts[c + 1]]` are the keepouts of row-major cell
    /// `c`.
    starts: Vec<usize>,
    ids: Vec<u32>,
}

impl KeepoutIndex {
    fn new(keepouts: &[Keepout], size: Coord, pitch: Coord, features: usize) -> Self {
        let regions = || keepouts.iter().filter_map(|k| origin_region(&k.zone, size));
        let Some(bounds) = regions().reduce(|a, b| {
            [
                a[0].min(b[0]),
                a[1].min(b[1]),
                a[2].max(b[2]),
                a[3].max(b[3]),
            ]
        }) else {
            return KeepoutIndex {
                origin: [0, 0],
                side: 1,
                nx: 0,
                ny: 0,
                starts: vec![0],
                ids: Vec::new(),
            };
        };
        let limit = i128::try_from(keepouts.len().saturating_add(features))
            .unwrap_or(i128::MAX / 8)
            .saturating_mul(4);
        // Terminates: once the side exceeds both extents the grid is one
        // cell and every keepout takes one slot, `K <= limit`.
        let mut side = i128::from(pitch.max(1)) * 8;
        let (nx, ny) = loop {
            let nx = (bounds[2] - bounds[0]) / side + 1;
            let ny = (bounds[3] - bounds[1]) / side + 1;
            if nx * ny <= limit && slots_within(regions(), bounds, side, limit) {
                break (nx, ny);
            }
            side *= 2;
        };
        let mut index = KeepoutIndex {
            origin: [bounds[0], bounds[1]],
            side,
            nx: usize::try_from(nx).unwrap_or(0),
            ny: usize::try_from(ny).unwrap_or(0),
            starts: Vec::new(),
            ids: Vec::new(),
        };
        // Counting pass and prefix sum leave `starts[c]` one past the end
        // of cell `c`; placing the keepouts in descending id order moves
        // it back to the cell's start and lists each cell ascending.
        let mut starts = vec![0usize; index.nx * index.ny + 1];
        for region in regions() {
            index.for_each_cell(&region, |c| starts[c] += 1);
        }
        let mut total = 0;
        for s in &mut starts {
            total += *s;
            *s = total;
        }
        let mut ids = vec![0u32; total];
        for (id, keepout) in keepouts.iter().enumerate().rev() {
            let Some(region) = origin_region(&keepout.zone, size) else {
                continue;
            };
            // A layer cannot hold 2^32 keepouts: at over 70 bytes each
            // they would need hundreds of gigabytes.
            let id = u32::try_from(id).expect("keepout ids fit u32"); // pilfill: allow(unwrap)
            index.for_each_cell(&region, |c| {
                starts[c] -= 1;
                ids[starts[c]] = id;
            });
        }
        index.starts = starts;
        index.ids = ids;
        index
    }

    /// Calls `visit` with every row-major cell `region` touches.
    fn for_each_cell(&self, region: &[i128; 4], mut visit: impl FnMut(usize)) {
        let cell = |v: i128, axis: usize| {
            usize::try_from((v - self.origin[axis]) / self.side).unwrap_or(0)
        };
        let (x0, x1) = (cell(region[0], 0), cell(region[2], 0));
        for cy in cell(region[1], 1)..=cell(region[3], 1) {
            for cx in x0..=x1 {
                visit(cy * self.nx + cx);
            }
        }
    }

    /// The keepouts a feature with lower-left corner `(x, y)` may crowd,
    /// in ascending id order.
    fn candidates(&self, x: Coord, y: Coord) -> &[u32] {
        let cell = |v: Coord, axis: usize, n: usize| {
            usize::try_from((i128::from(v) - self.origin[axis]).div_euclid(self.side))
                .ok()
                .filter(|&c| c < n)
        };
        match (cell(x, 0, self.nx), cell(y, 1, self.ny)) {
            (Some(cx), Some(cy)) => {
                let c = cy * self.nx + cx;
                &self.ids[self.starts[c]..self.starts[c + 1]]
            }
            _ => &[],
        }
    }

    #[cfg(test)]
    fn cells(&self) -> usize {
        self.nx * self.ny
    }

    #[cfg(test)]
    fn slots(&self) -> usize {
        self.ids.len()
    }
}

/// `true` when the regions, gridded from `bounds` with cells of `side`,
/// occupy at most `limit` cell slots in total.
fn slots_within(
    regions: impl Iterator<Item = [i128; 4]>,
    bounds: [i128; 4],
    side: i128,
    limit: i128,
) -> bool {
    let mut slots = 0i128;
    for r in regions {
        let cols = (r[2] - bounds[0]) / side - (r[0] - bounds[0]) / side + 1;
        let rows = (r[3] - bounds[1]) / side - (r[1] - bounds[1]) / side + 1;
        slots += cols * rows;
        if slots > limit {
            return false;
        }
    }
    true
}

/// Appends the fill-to-fill spacing violations in the order
/// [`check_fill`] documents.
///
/// The representable features are sorted by `(bucket x, bucket y,
/// index)`. For a feature in bucket `(bx, by)`, the buckets
/// `(bx + dx, by - 1..=by + 1)` form one contiguous run of that order, and
/// the run only moves forward as the sweep does, so one pointer pair per
/// `dx` finds it. Hits come out in sweep order and a stable sort by `i`
/// restores the documented order.
fn spacing_violations(
    features: &[FillFeature],
    size: Coord,
    pitch: Coord,
    gap: Coord,
    out: &mut Vec<DrcViolation>,
) {
    let mut order: Vec<(Coord, Coord, usize)> = features
        .iter()
        .enumerate()
        .filter(|(_, f)| feature_rect(**f, size).is_some())
        .map(|(i, f)| (f.x.div_euclid(pitch), f.y.div_euclid(pitch), i))
        .collect();
    order.sort_unstable();
    let mut hits: Vec<(usize, DrcViolation)> = Vec::new();
    let mut lo = [0usize; 3];
    let mut hi = [0usize; 3];
    for &(bx, by, i) in &order {
        let Some(rect) = feature_rect(features[i], size) else {
            continue;
        };
        let zone = grown_saturating(rect, gap);
        for (d, dx) in (-1..=1).enumerate() {
            let Some(col) = bx.checked_add(dx) else {
                continue;
            };
            let first = (col, by.saturating_sub(1), 0);
            let last = (col, by.saturating_add(1), usize::MAX);
            while lo[d] < order.len() && order[lo[d]] < first {
                lo[d] += 1;
            }
            hi[d] = hi[d].max(lo[d]);
            while hi[d] < order.len() && order[hi[d]] <= last {
                hi[d] += 1;
            }
            for &(_, _, j) in &order[lo[d]..hi[d]] {
                if j > i && feature_rect(features[j], size).is_some_and(|r| zone.overlaps(&r)) {
                    hits.push((
                        i,
                        DrcViolation::FillSpacing {
                            a: features[i],
                            b: features[j],
                        },
                    ));
                }
            }
        }
    }
    hits.sort_by_key(|&(i, _)| i);
    out.extend(hits.into_iter().map(|(_, v)| v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilfill_geom::{Dir, Point};
    use pilfill_layout::{DesignBuilder, Layer, Net, Obstruction, Segment};
    use pilfill_prng::rngs::StdRng;
    use pilfill_prng::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The brute-force checker the index replaced: every feature against
    /// every keepout, spacing through hashed buckets. The oracle for the
    /// property suites below.
    fn check_fill_reference(
        design: &Design,
        layer: LayerId,
        features: &[FillFeature],
    ) -> DrcReport {
        let rules = design.rules;
        let size = rules.feature_size;
        let mut violations = Vec::new();

        // Die containment + keepouts.
        let wires: Vec<(Rect, Rect)> = design
            .segments_on_layer(layer)
            .map(|(_, _, s)| (s.rect(), grown_saturating(s.rect(), rules.buffer)))
            .collect();
        let obstructions: Vec<(Rect, Rect)> = design
            .obstructions_on_layer(layer)
            .map(|o| (o.rect, grown_saturating(o.rect, rules.buffer)))
            .collect();
        for &f in features {
            let Some(rect) = feature_rect(f, size) else {
                violations.push(DrcViolation::OffDie { feature: f });
                continue;
            };
            if !design.die.contains_rect(&rect) {
                violations.push(DrcViolation::OffDie { feature: f });
            }
            for (wire, zone) in &wires {
                if rect.overlaps(zone) {
                    violations.push(DrcViolation::BufferToWire {
                        feature: f,
                        wire: *wire,
                    });
                }
            }
            for (obstruction, zone) in &obstructions {
                if rect.overlaps(zone) {
                    violations.push(DrcViolation::BufferToObstruction {
                        feature: f,
                        obstruction: *obstruction,
                    });
                }
            }
        }

        // Fill-to-fill spacing via bucket grid (bucket side = pitch).
        let pitch = spacing_pitch(&rules);
        let mut buckets: HashMap<(Coord, Coord), Vec<usize>> = HashMap::new();
        for (i, f) in features.iter().enumerate() {
            if feature_rect(*f, size).is_some() {
                buckets
                    .entry((f.x.div_euclid(pitch), f.y.div_euclid(pitch)))
                    .or_default()
                    .push(i);
            }
        }
        for (i, f) in features.iter().enumerate() {
            let Some(rect) = feature_rect(*f, size) else {
                continue;
            };
            let rect = grown_saturating(rect, rules.gap);
            let (bx, by) = (f.x.div_euclid(pitch), f.y.div_euclid(pitch));
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let (Some(cx), Some(cy)) = (bx.checked_add(dx), by.checked_add(dy)) else {
                        continue;
                    };
                    let Some(others) = buckets.get(&(cx, cy)) else {
                        continue;
                    };
                    for &j in others {
                        if j <= i {
                            continue;
                        }
                        let other = feature_rect(features[j], size).expect("bucketed");
                        if rect.overlaps(&other) {
                            violations.push(DrcViolation::FillSpacing {
                                a: *f,
                                b: features[j],
                            });
                        }
                    }
                }
            }
        }

        DrcReport {
            checked: features.len(),
            violations,
        }
    }

    fn design() -> Design {
        DesignBuilder::new("d", Rect::new(0, 0, 10_000, 10_000))
            .layer("m3", Dir::Horizontal)
            .obstruction("m3", Rect::new(6_000, 6_000, 8_000, 8_000))
            .net("a", Point::new(300, 3_000))
            .segment("m3", Point::new(300, 3_000), Point::new(9_000, 3_000), 280)
            .sink(Point::new(9_000, 3_000))
            .build()
            .expect("valid")
    }

    #[test]
    fn clean_placement_passes() {
        let d = design();
        let features = vec![
            FillFeature { x: 1_000, y: 5_000 },
            FillFeature { x: 1_450, y: 5_000 },
            FillFeature { x: 1_000, y: 5_450 },
        ];
        let report = check_fill(&d, LayerId(0), &features);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.checked, 3);
    }

    #[test]
    fn off_die_detected() {
        let d = design();
        let report = check_fill(&d, LayerId(0), &[FillFeature { x: 9_900, y: 0 }]);
        assert!(matches!(
            report.violations.as_slice(),
            [DrcViolation::OffDie { .. }]
        ));
    }

    #[test]
    fn wire_buffer_violation_detected() {
        let d = design();
        // Wire band is y [2860, 3140); buffer 150 -> keepout to 3290.
        let report = check_fill(&d, LayerId(0), &[FillFeature { x: 1_000, y: 3_200 }]);
        assert!(matches!(
            report.violations.as_slice(),
            [DrcViolation::BufferToWire { .. }]
        ));
    }

    #[test]
    fn obstruction_buffer_violation_detected() {
        let d = design();
        let report = check_fill(&d, LayerId(0), &[FillFeature { x: 5_800, y: 6_500 }]);
        assert!(matches!(
            report.violations.as_slice(),
            [DrcViolation::BufferToObstruction { .. }]
        ));
    }

    #[test]
    fn spacing_violation_detected_once_per_pair() {
        let d = design();
        let a = FillFeature { x: 1_000, y: 5_000 };
        let b = FillFeature { x: 1_100, y: 5_000 }; // 100 < gap 150 apart... overlapping actually
        let report = check_fill(&d, LayerId(0), &[a, b]);
        assert_eq!(
            report
                .violations
                .iter()
                .filter(|v| matches!(v, DrcViolation::FillSpacing { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn flow_output_is_always_clean() {
        use crate::flow::{run_flow, FlowConfig};
        use crate::methods::GreedyFill;
        use pilfill_layout::synth::{synthesize, SynthConfig};
        let d = synthesize(&SynthConfig::small_test(17));
        let cfg = FlowConfig::new(8_000, 2).expect("config");
        let outcome = run_flow(&d, &cfg, &GreedyFill).expect("flow");
        let report = check_fill(&d, cfg.layer, &outcome.features);
        assert!(
            report.is_clean(),
            "{:?}",
            &report.violations[..3.min(report.violations.len())]
        );
    }

    /// A feature whose square overflows `i64` is off the die (it used to
    /// wrap to an empty rect and pass in release builds).
    #[test]
    fn feature_at_i64_boundary_is_off_die() {
        let d = design();
        let edge = FillFeature {
            x: i64::MAX - 10,
            y: i64::MAX - 10,
        };
        let report = check_fill(&d, LayerId(0), &[edge, edge]);
        assert_eq!(
            report.violations,
            vec![
                DrcViolation::OffDie { feature: edge },
                DrcViolation::OffDie { feature: edge },
            ]
        );
        assert_eq!(report, check_fill_reference(&d, LayerId(0), &[edge, edge]));
    }

    /// Builds the keepout index of a case, asserts its cell and slot
    /// counts stay within `4·(K + F)`, and returns the cell count.
    fn index_cells(design: &Design, layer: LayerId, features: usize) -> usize {
        let keepouts = keepouts(design, layer);
        let rules = &design.rules;
        let index = KeepoutIndex::new(
            &keepouts,
            rules.feature_size,
            spacing_pitch(rules),
            features,
        );
        let bound = 4 * (keepouts.len() + features);
        assert!(index.cells() <= bound, "{} cells > {bound}", index.cells());
        assert!(index.slots() <= bound, "{} slots > {bound}", index.slots());
        index.cells()
    }

    /// Asserts the indexed check equals the reference on one case and
    /// tallies the violation kinds seen, `[off die, wire, obstruction,
    /// spacing]`.
    fn assert_matches_reference(
        name: &str,
        design: &Design,
        layer: LayerId,
        features: &[FillFeature],
        kinds: &mut [usize; 4],
    ) {
        let got = check_fill(design, layer, features);
        let want = check_fill_reference(design, layer, features);
        assert_eq!(got.checked, want.checked, "{name}");
        assert_eq!(got.violations.len(), want.violations.len(), "{name}");
        for (k, (g, w)) in got.violations.iter().zip(&want.violations).enumerate() {
            assert_eq!(g, w, "{name}: violation {k}");
        }
        for v in &got.violations {
            kinds[match v {
                DrcViolation::OffDie { .. } => 0,
                DrcViolation::BufferToWire { .. } => 1,
                DrcViolation::BufferToObstruction { .. } => 2,
                DrcViolation::FillSpacing { .. } => 3,
            }] += 1;
        }
    }

    /// `base` plus jittered copies, exact duplicates, features straddling
    /// or beyond the die edge, and features at the corners of every
    /// keepout, shuffled into a seeded order.
    fn perturbed(design: &Design, base: &[FillFeature], rng: &mut StdRng) -> Vec<FillFeature> {
        let rules = design.rules;
        let pitch = rules.site_pitch();
        let die = design.die;
        let mut out = base.to_vec();
        for _ in 0..400 {
            let f = base[rng.gen_range(0..base.len())];
            out.push(FillFeature {
                x: f.x + rng.gen_range(-pitch..=pitch),
                y: f.y + rng.gen_range(-pitch..=pitch),
            });
        }
        for _ in 0..50 {
            out.push(base[rng.gen_range(0..base.len())]);
        }
        for _ in 0..50 {
            out.push(FillFeature {
                x: rng.gen_range(die.left - 4 * pitch..die.right + 4 * pitch),
                y: rng.gen_range(die.bottom - 4 * pitch..die.top + 4 * pitch),
            });
        }
        let keepouts: Vec<Rect> = design
            .segments_on_layer(LayerId(0))
            .map(|(_, _, s)| s.rect())
            .chain(design.obstructions_on_layer(LayerId(0)).map(|o| o.rect))
            .collect();
        let mut targets: Vec<Rect> = design
            .obstructions_on_layer(LayerId(0))
            .map(|o| o.rect)
            .collect();
        for _ in 0..100 {
            targets.push(keepouts[rng.gen_range(0..keepouts.len())]);
        }
        for k in targets {
            let reach = rules.buffer + rules.feature_size;
            out.push(FillFeature {
                x: k.left - reach + rng.gen_range(0i64..=2),
                y: k.bottom - reach + rng.gen_range(0i64..=2),
            });
        }
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }

    /// The indexed check reproduces the reference report, violation for
    /// violation, on flow output and perturbed placements across small
    /// designs, T1, T2 and a vertical layer; the grid stays bounded.
    #[test]
    fn check_fill_matches_reference_on_seeded_cases() {
        use crate::flow::{run_flow, FlowConfig};
        use crate::methods::GreedyFill;
        use pilfill_layout::synth::{synthesize, SynthConfig};

        let mut rng = StdRng::seed_from_u64(0xD2C_0001);
        let mut kinds = [0usize; 4];
        let cases = [
            (SynthConfig::small_test(3), 8_000),
            (SynthConfig::small_test(11), 8_000),
            (SynthConfig::small_test(29), 8_000),
            (SynthConfig::t1(), 32_000),
            (SynthConfig::t2(), 32_000),
        ];
        for (synth, window) in cases {
            let d = synthesize(&synth);
            let cfg = FlowConfig::new(window, 2).expect("config");
            let outcome = run_flow(&d, &cfg, &GreedyFill).expect("flow");
            let flow = &outcome.features;
            assert_matches_reference(&d.name, &d, cfg.layer, flow, &mut kinds);
            // A real die spreads its keepouts over many cells.
            assert!(index_cells(&d, cfg.layer, flow.len()) > 16, "{}", d.name);
            let features = perturbed(&d, flow, &mut rng);
            assert_matches_reference(&d.name, &d, cfg.layer, &features, &mut kinds);

            // The same placement on the design mirrored about the
            // diagonal: layer 0 routes vertically there.
            let t = d.transposed();
            assert_eq!(t.layers[0].dir, Dir::Vertical);
            let mirrored: Vec<FillFeature> = features
                .iter()
                .map(|f| FillFeature { x: f.y, y: f.x })
                .collect();
            let name = format!("{} transposed", d.name);
            assert_matches_reference(&name, &t, cfg.layer, &mirrored, &mut kinds);
        }
        assert!(kinds.iter().all(|&n| n > 0), "kinds hit: {kinds:?}");
    }

    /// Ten thousand die-spanning wires on an `i64`-wide die, corner
    /// obstructions and features spread to the `i64` extremes: no panic,
    /// the grid stays within `4·(K + F)` cells and slots, and the report
    /// matches the reference. [`Design::validate`] rejects a die this
    /// wide, but `check_fill` takes any `Design`, so the design is put
    /// together without it.
    #[test]
    fn hostile_input_keeps_index_bounded() {
        let die = Rect::new(i64::MIN, i64::MIN, i64::MAX, i64::MAX);
        let mut rng = StdRng::seed_from_u64(0xD2C_0002);
        let m3 = LayerId(0);
        let mut d = Design {
            name: "hostile".into(),
            die,
            tech: Default::default(),
            rules: Default::default(),
            layers: vec![Layer {
                name: "m3".into(),
                dir: Dir::Horizontal,
            }],
            nets: Vec::new(),
            obstructions: [
                Rect::new(i64::MIN, i64::MIN, i64::MIN + 1_000, i64::MIN + 1_000),
                Rect::new(i64::MAX - 1_000, i64::MAX - 1_000, i64::MAX, i64::MAX),
            ]
            .map(|rect| Obstruction { layer: m3, rect })
            .to_vec(),
        };
        assert!(d.validate().is_err(), "the die's width overflows i64");
        let mut wire_ys = Vec::new();
        for n in 0..10_000 {
            let y = rng.gen_range(i64::MIN / 2..i64::MAX / 2);
            wire_ys.push(y);
            d.nets.push(Net {
                name: format!("n{n}"),
                source: Point::new(i64::MIN, y),
                sinks: vec![Point::new(i64::MAX, y)],
                segments: vec![Segment {
                    layer: m3,
                    start: Point::new(i64::MIN, y),
                    end: Point::new(i64::MAX, y),
                    width: 280,
                }],
            });
        }

        let mut features = Vec::new();
        for _ in 0..2_000 {
            features.push(FillFeature {
                x: rng.gen(),
                y: rng.gen(),
            });
        }
        for &y in wire_ys.iter().take(200) {
            features.push(FillFeature { x: rng.gen(), y });
        }
        for (x, y) in [
            (i64::MIN, i64::MIN),
            (i64::MAX, i64::MAX),
            (i64::MAX - 10, i64::MAX - 10),
            (i64::MIN, i64::MAX - 299),
            (i64::MAX - 300, i64::MIN),
        ] {
            features.push(FillFeature { x, y });
            features.push(FillFeature { x, y });
        }

        index_cells(&d, LayerId(0), features.len());
        let mut kinds = [0usize; 4];
        assert_matches_reference("hostile", &d, LayerId(0), &features, &mut kinds);
        assert!(kinds.iter().all(|&n| n > 0), "kinds hit: {kinds:?}");
    }
}
