//! Lateral coupling capacitance of parallel active lines and its
//! perturbation by floating square fill (paper Section 3, Eqs. (3)-(7)).

use crate::{EPS0, METERS_PER_DBU};
use pilfill_geom::{units, Coord};
use pilfill_layout::{FillRules, Tech};

/// Parallel-plate coupling model between coplanar parallel lines.
///
/// The paper folds the conductor geometry into an "overlap area" `a`; for
/// coplanar lines of thickness `t` coupled over unit length, `a = t`. All
/// capacitances are in farads; distances are accepted in dbu and converted
/// internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingModel {
    /// Effective permittivity `eps0 * eps_r` in F/m.
    eps: f64,
    /// Metal thickness in meters (the paper's `a` per unit length).
    thickness_m: f64,
}

impl CouplingModel {
    /// Builds the model from technology parameters.
    pub fn new(tech: &Tech) -> Self {
        Self {
            eps: EPS0 * tech.eps_r,
            thickness_m: tech.thickness as f64 * METERS_PER_DBU,
        }
    }

    /// Per-unit-length coupling capacitance `C_B = eps * a / d` (Eq. 3)
    /// between two lines `d` dbu apart, in F/m.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not positive.
    pub fn cb_per_m(&self, d: Coord) -> f64 {
        assert!(d > 0, "line spacing must be positive (got {d})");
        self.eps * self.thickness_m / (d as f64 * METERS_PER_DBU)
    }

    /// Exact per-unit-length coupling with `m` fill features of width `w`
    /// stacked in a column between the lines: `f(m, d) = eps * a / (d - m w)`
    /// (Eq. 5), in F/m.
    ///
    /// # Panics
    ///
    /// Panics if `m * w >= d` (fill may not close the gap; capacity limits
    /// from [`max_fill_features`] prevent this).
    pub fn f_exact(&self, m: u32, d: Coord, w: Coord) -> f64 {
        let remaining = d - m as i64 * w;
        assert!(remaining > 0, "fill column over-full: m={m} w={w} d={d}");
        self.eps * self.thickness_m / (remaining as f64 * METERS_PER_DBU)
    }

    /// Incremental column capacitance of `m` features: the exact
    /// `(f(m, d) - C_B) * w` over the column footprint `w` (Eq. 7 rewritten
    /// as an increment), in farads.
    pub fn delta_cap_exact(&self, m: u32, d: Coord, w: Coord) -> f64 {
        if m == 0 {
            return 0.0;
        }
        let w_m = w as f64 * METERS_PER_DBU;
        (self.f_exact(m, d, w) - self.cb_per_m(d)) * w_m
    }

    /// Linearized incremental column capacitance (Eq. 6 over the footprint):
    /// `eps * a * w^2 * m / d^2`, in farads. Used by ILP-I only; it
    /// underestimates the exact value, increasingly so as `m w -> d`.
    pub fn delta_cap_linear(&self, m: u32, d: Coord, w: Coord) -> f64 {
        let d_m = d as f64 * METERS_PER_DBU;
        let w_m = w as f64 * METERS_PER_DBU;
        self.eps * self.thickness_m * w_m * w_m * m as f64 / (d_m * d_m)
    }
}

/// Maximum number of fill features that fit in a column between two lines
/// `gap` dbu apart under `rules` (feature size, inter-feature gap, buffer
/// distance): `m` features need `m*w + (m-1)*g + 2*buf <= gap`.
///
/// # Examples
///
/// ```
/// use pilfill_rc::max_fill_features;
/// use pilfill_layout::FillRules;
///
/// let rules = FillRules { feature_size: 400, gap: 200, buffer: 300 };
/// assert_eq!(max_fill_features(400 + 600, rules), 1);   // exactly one fits
/// assert_eq!(max_fill_features(999, rules), 0);
/// assert_eq!(max_fill_features(2 * 400 + 200 + 600, rules), 2);
/// ```
pub fn max_fill_features(gap: Coord, rules: FillRules) -> u32 {
    let usable = gap - 2 * rules.buffer + rules.gap;
    if usable <= 0 {
        return 0;
    }
    units::saturating_count((usable / rules.site_pitch()).max(0) as u64)
}

/// The exact incremental column capacitances `delta_cap_exact(m, d, w)`
/// for `m = 0..=capacity` (the paper's `f(n, d)` table backing ILP-II,
/// Sec. 5.3), evaluated in closed form on each lookup.
///
/// The table is plain `Copy` data — the model, the column's `d` and `w`,
/// and its capacity — so the tens of thousands of tile columns a flow
/// builds own no heap memory. Every lookup is the same deterministic
/// expression a materialized table would have stored, so the values are
/// bit-identical to an eagerly built `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapTable {
    model: CouplingModel,
    d: Coord,
    w: Coord,
    capacity: u32,
}

impl CapTable {
    /// The table for a column at line spacing `d` with feature width `w`
    /// and geometric `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity allows `m * w >= d` (the caller must derive
    /// capacity from [`max_fill_features`], which guarantees clearance).
    pub fn build(model: &CouplingModel, d: Coord, w: Coord, capacity: u32) -> Self {
        // `d - m w` is monotone in `m`, so positive `d` and clearance at
        // `m = capacity` give every count's lookup a valid gap.
        assert!(
            capacity == 0 || (d > 0 && d - i64::from(capacity) * w > 0),
            "fill column over-full: capacity={capacity} w={w} d={d}"
        );
        Self {
            model: *model,
            d,
            w,
            capacity,
        }
    }

    /// Incremental capacitance for `m` features.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the capacity the table was built for.
    pub fn delta_cap(&self, m: u32) -> f64 {
        assert!(
            m <= self.capacity,
            "m={m} over table capacity {}",
            self.capacity
        );
        self.model.delta_cap_exact(m, self.d, self.w)
    }

    /// Column capacity the table covers.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Marginal cost of the `m`-th feature (difference of consecutive
    /// entries), used by greedy heuristics and convexity checks.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or exceeds capacity.
    pub fn marginal(&self, m: u32) -> f64 {
        assert!(m >= 1, "marginal cost needs m >= 1");
        self.delta_cap(m) - self.delta_cap(m - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CouplingModel {
        CouplingModel::new(&Tech::default_180nm())
    }

    fn rules() -> FillRules {
        FillRules {
            feature_size: 400,
            gap: 200,
            buffer: 300,
        }
    }

    #[test]
    fn cb_scales_inversely_with_distance() {
        let m = model();
        let c1 = m.cb_per_m(1_000);
        let c2 = m.cb_per_m(2_000);
        assert!((c1 / c2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cb_has_plausible_magnitude() {
        // eps0*3.9 * 500nm / 1000nm ~ 1.7e-11 F/m — order of 10-20 aF/um.
        let c = model().cb_per_m(1_000);
        assert!(c > 1e-12 && c < 1e-9, "C_B = {c}");
    }

    #[test]
    fn f_exact_reduces_to_cb_at_zero_fill() {
        let m = model();
        assert_eq!(m.f_exact(0, 3_000, 400), m.cb_per_m(3_000));
        assert_eq!(m.delta_cap_exact(0, 3_000, 400), 0.0);
    }

    #[test]
    fn delta_cap_exact_is_increasing_and_convex_in_m() {
        let m = model();
        let d = 5_000;
        let w = 400;
        let caps: Vec<f64> = (0..=8).map(|k| m.delta_cap_exact(k, d, w)).collect();
        for pair in caps.windows(2) {
            assert!(pair[1] > pair[0], "not increasing: {pair:?}");
        }
        // Convexity: marginals increase.
        for triple in caps.windows(3) {
            let m1 = triple[1] - triple[0];
            let m2 = triple[2] - triple[1];
            assert!(m2 > m1, "not convex: {triple:?}");
        }
    }

    #[test]
    fn linear_model_underestimates_exact() {
        let m = model();
        for k in 1..=6u32 {
            let exact = m.delta_cap_exact(k, 4_000, 400);
            let linear = m.delta_cap_linear(k, 4_000, 400);
            assert!(linear < exact, "m={k}: linear {linear} >= exact {exact}");
            // But it is a decent approximation when m*w << d.
            if k == 1 {
                assert!((exact - linear) / exact < 0.15);
            }
        }
    }

    #[test]
    fn linear_model_is_linear() {
        let m = model();
        let base = m.delta_cap_linear(1, 4_000, 400);
        for k in 2..=5u32 {
            assert!((m.delta_cap_linear(k, 4_000, 400) - k as f64 * base).abs() < 1e-25);
        }
    }

    #[test]
    #[should_panic(expected = "over-full")]
    fn overfull_column_panics() {
        let _ = model().f_exact(10, 3_000, 400);
    }

    #[test]
    fn max_fill_features_respects_geometry() {
        let r = rules();
        // m features need m*400 + (m-1)*200 + 600 <= gap.
        assert_eq!(max_fill_features(0, r), 0);
        assert_eq!(max_fill_features(999, r), 0);
        assert_eq!(max_fill_features(1_000, r), 1);
        assert_eq!(max_fill_features(1_599, r), 1);
        assert_eq!(max_fill_features(1_600, r), 2);
        assert_eq!(max_fill_features(10_000, r), 16); // 16*400+15*200+600 = 10000
    }

    #[test]
    fn max_fill_never_closes_the_gap() {
        let r = rules();
        for gap in (700..20_000).step_by(137) {
            let m = max_fill_features(gap, r);
            if m > 0 {
                assert!(
                    (m as i64) * r.feature_size < gap,
                    "gap {gap}: {m} features of {} dbu close the gap",
                    r.feature_size
                );
            }
        }
    }

    #[test]
    fn cap_table_matches_model() {
        let m = model();
        let d = 6_000;
        let w = 400;
        let cap = max_fill_features(d, rules());
        let table = CapTable::build(&m, d, w, cap);
        assert_eq!(table.capacity(), cap);
        for k in 0..=cap {
            assert_eq!(table.delta_cap(k), m.delta_cap_exact(k, d, w));
        }
        for k in 1..=cap {
            assert!(table.marginal(k) > 0.0);
        }
    }
}
