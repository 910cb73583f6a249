//! Randomized tests for the capacitance and Elmore models, driven by the
//! in-repo seeded PRNG so every run explores the same cases.

use pilfill_layout::{FillRules, Tech};
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};
use pilfill_rc::{max_fill_features, CapTable, CouplingModel, RcChain};

fn model() -> CouplingModel {
    CouplingModel::new(&Tech::default_180nm())
}

#[test]
fn delta_cap_exact_increasing_and_convex() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(0x2C_0001);
    let mut checked = 0;
    while checked < 128 {
        let d = rng.gen_range(700i64..30_000);
        let w = rng.gen_range(100i64..500);
        let max_m = ((d - 1) / w).min(12) as u32;
        if max_m < 2 {
            continue;
        }
        checked += 1;
        let caps: Vec<f64> = (0..=max_m).map(|k| m.delta_cap_exact(k, d, w)).collect();
        for pair in caps.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        for triple in caps.windows(3) {
            assert!(triple[2] - triple[1] >= triple[1] - triple[0]);
        }
    }
}

#[test]
fn linear_underestimates_exact_everywhere() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(0x2C_0002);
    let mut checked = 0;
    while checked < 128 {
        let d = rng.gen_range(700i64..30_000);
        let w = rng.gen_range(100i64..500);
        let k = rng.gen_range(1u32..10);
        if (k as i64) * w >= d {
            continue;
        }
        checked += 1;
        assert!(m.delta_cap_linear(k, d, w) < m.delta_cap_exact(k, d, w));
    }
}

/// The eager table `CapTable` used to materialize: one stored
/// `delta_cap_exact` per count, marginals as differences of stored
/// entries. The oracle the closed-form table is held bit-identical to.
struct EagerTable {
    entries: Vec<f64>,
}

impl EagerTable {
    fn build(model: &CouplingModel, d: i64, w: i64, capacity: u32) -> Self {
        Self {
            entries: (0..=capacity)
                .map(|m| model.delta_cap_exact(m, d, w))
                .collect(),
        }
    }

    fn delta_cap(&self, m: u32) -> f64 {
        self.entries[m as usize]
    }

    fn marginal(&self, m: u32) -> f64 {
        self.entries[m as usize] - self.entries[m as usize - 1]
    }
}

#[test]
fn cap_table_agrees_with_model() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(0x2C_0007);
    for case in 0..512 {
        let w = rng.gen_range(1i64..600);
        let (d, cap) = if case % 2 == 0 {
            // At the clearance limit: `cap` is the largest count with
            // `cap * w < d` (the residual gap is 1..=w dbu).
            let cap = rng.gen_range(1u32..=64);
            (i64::from(cap) * w + rng.gen_range(1..=w), cap)
        } else {
            let d = rng.gen_range(1i64..40_000);
            (d, rng.gen_range(0..=((d - 1) / w).min(64) as u32))
        };
        let table = CapTable::build(&m, d, w, cap);
        let eager = EagerTable::build(&m, d, w, cap);
        assert_eq!(table.capacity(), cap);
        for k in 0..=cap {
            assert_eq!(
                table.delta_cap(k).to_bits(),
                eager.delta_cap(k).to_bits(),
                "d={d} w={w} cap={cap} m={k}"
            );
        }
        for k in 1..=cap {
            assert_eq!(
                table.marginal(k).to_bits(),
                eager.marginal(k).to_bits(),
                "d={d} w={w} cap={cap} m={k}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "over-full")]
fn cap_table_build_rejects_a_capacity_that_closes_the_gap() {
    // 10 features of 400 dbu exactly fill a 4000 dbu gap.
    let _ = CapTable::build(&model(), 4_000, 400, 10);
}

#[test]
#[should_panic(expected = "over table capacity")]
fn cap_table_lookup_past_capacity_panics() {
    let table = CapTable::build(&model(), 4_000, 400, 9);
    let _ = table.delta_cap(10);
}

#[test]
fn max_fill_features_fits_and_is_maximal() {
    let mut rng = StdRng::seed_from_u64(0x2C_0004);
    for _ in 0..256 {
        let gap = rng.gen_range(0i64..30_000);
        let feature = rng.gen_range(100i64..600);
        let space = rng.gen_range(0i64..400);
        let buffer = rng.gen_range(0i64..500);
        let rules = FillRules {
            feature_size: feature,
            gap: space,
            buffer,
        };
        let m = max_fill_features(gap, rules) as i64;
        // m features fit: m*f + (m-1)*s + 2*b <= gap.
        if m > 0 {
            assert!(m * feature + (m - 1) * space + 2 * buffer <= gap);
        }
        // m+1 features do not fit.
        let m1 = m + 1;
        assert!(m1 * feature + (m1 - 1) * space + 2 * buffer > gap);
    }
}

#[test]
fn chain_delays_monotone_and_additive() {
    let mut rng = StdRng::seed_from_u64(0x2C_0005);
    for _ in 0..128 {
        let n = rng.gen_range(2usize..12);
        let r = rng.gen_range(0.1f64..50.0);
        let c = rng.gen_range(1e-16f64..1e-13);
        let inject = rng.gen_range(0usize..12) % n;
        let dc = rng.gen_range(1e-16f64..1e-14);
        let chain = RcChain::uniform(n, r, c);
        let before = chain.delays();
        for pair in before.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        // Eq. (9) additivity against recomputation.
        let caps: Vec<f64> = (0..n)
            .map(|i| if i == inject { c + dc } else { c })
            .collect();
        let after = RcChain::new(vec![r; n], caps).delays();
        for k in 0..n {
            let predicted = chain.delay_increment(k, inject, dc);
            let got = after[k] - before[k];
            assert!(
                (got - predicted).abs() <= 1e-9 * predicted.max(1e-30),
                "stage {k}: {got} vs {predicted}"
            );
        }
    }
}

#[test]
fn cb_positive_and_decreasing_in_distance() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(0x2C_0006);
    for _ in 0..256 {
        let d = rng.gen_range(100i64..100_000);
        let c1 = m.cb_per_m(d);
        let c2 = m.cb_per_m(d + 100);
        assert!(c1 > 0.0);
        assert!(c2 < c1);
    }
}
