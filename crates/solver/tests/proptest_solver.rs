//! Randomized tests: the MILP solver must agree with exhaustive
//! enumeration on random small pure-integer programs — on the optimum,
//! and on the incumbent itself where costs are jittered to make it
//! unique — and LP solutions must dominate every sampled feasible point.
//! Driven by the in-repo seeded PRNG so every run explores the same cases.

use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};
use pilfill_solver::{Model, Objective, Sense, SolveError};

#[derive(Debug, Clone)]
struct RandomIp {
    maximize: bool,
    objs: Vec<f64>,
    caps: Vec<i64>,
    /// (coeffs, sense, rhs)
    cons: Vec<(Vec<f64>, Sense, f64)>,
}

/// Round to quarters to avoid near-degenerate float comparisons between
/// solver and brute force.
fn quarters(x: f64) -> f64 {
    (x * 4.0).round() / 4.0
}

fn rand_sense(rng: &mut StdRng) -> Sense {
    match rng.gen_range(0u32..3) {
        0 => Sense::Le,
        1 => Sense::Ge,
        _ => Sense::Eq,
    }
}

fn rand_ip(rng: &mut StdRng) -> RandomIp {
    let n = rng.gen_range(2usize..5);
    let objs: Vec<f64> = (0..n)
        .map(|_| quarters(rng.gen_range(-5.0f64..5.0)))
        .collect();
    let caps: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..4)).collect();
    let n_cons = rng.gen_range(0usize..3);
    let cons = (0..n_cons)
        .map(|_| {
            let coeffs: Vec<f64> = (0..n)
                .map(|_| quarters(rng.gen_range(-3.0f64..3.0)))
                .collect();
            let sense = rand_sense(rng);
            let rhs = quarters(rng.gen_range(-6.0f64..10.0));
            (coeffs, sense, rhs)
        })
        .collect();
    RandomIp {
        maximize: rng.gen::<bool>(),
        objs,
        caps,
        cons,
    }
}

/// A random pure-integer program with jittered costs, so the integer
/// optimum is (with overwhelming probability under the fixed seed)
/// unique — letting a test demand the exhaustive argbest itself, not just
/// a matching objective.
fn rand_jittered_ip(rng: &mut StdRng) -> RandomIp {
    let n = rng.gen_range(2usize..6);
    let maximize = rng.gen::<bool>();
    let mut caps = Vec::with_capacity(n);
    let mut objs = Vec::with_capacity(n);
    for _ in 0..n {
        caps.push(rng.gen_range(0i64..4));
        // A distinct jitter per variable breaks objective ties.
        objs.push(quarters(rng.gen_range(-4.0f64..4.0)) + rng.gen_range(0.0f64..1.0) * 1e-3);
    }
    let cons = (0..rng.gen_range(1usize..3))
        .map(|_| {
            let coeffs: Vec<f64> = (0..n)
                .map(|_| quarters(rng.gen_range(-2.0f64..3.0)))
                .collect();
            let sense = match rng.gen_range(0u32..4) {
                0 | 1 => Sense::Le,
                2 => Sense::Ge,
                _ => Sense::Eq,
            };
            let rhs = quarters(rng.gen_range(-2.0f64..8.0));
            (coeffs, sense, rhs)
        })
        .collect();
    RandomIp {
        maximize,
        objs,
        caps,
        cons,
    }
}

/// The best objective over every integer point in the box, and the first
/// point (in odometer order) that attains it.
fn enumerate_best(ip: &RandomIp) -> Option<(f64, Vec<i64>)> {
    let n = ip.caps.len();
    let mut best: Option<(f64, Vec<i64>)> = None;
    let mut x = vec![0i64; n];
    loop {
        let feasible = ip.cons.iter().all(|(coeffs, sense, rhs)| {
            let lhs: f64 = coeffs.iter().zip(&x).map(|(c, &v)| c * v as f64).sum();
            match sense {
                Sense::Le => lhs <= rhs + 1e-7,
                Sense::Ge => lhs >= rhs - 1e-7,
                Sense::Eq => (lhs - rhs).abs() < 1e-7,
            }
        });
        if feasible {
            let obj: f64 = ip.objs.iter().zip(&x).map(|(c, &v)| c * v as f64).sum();
            let better = best
                .as_ref()
                .is_none_or(|(b, _)| if ip.maximize { obj > *b } else { obj < *b });
            if better {
                best = Some((obj, x.clone()));
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            x[i] += 1;
            if x[i] <= ip.caps[i] {
                break;
            }
            x[i] = 0;
            i += 1;
        }
    }
}

fn build_model(ip: &RandomIp) -> Model {
    let mut m = Model::new(if ip.maximize {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<_> = ip
        .objs
        .iter()
        .zip(&ip.caps)
        .map(|(&o, &c)| m.add_integer_var(0.0, c as f64, o))
        .collect();
    for (coeffs, sense, rhs) in &ip.cons {
        m.add_constraint(vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)), *sense, *rhs);
    }
    m
}

#[test]
fn milp_matches_exhaustive_enumeration() {
    let mut rng = StdRng::seed_from_u64(0x501_7E51);
    for case in 0..128 {
        let ip = rand_ip(&mut rng);
        let model = build_model(&ip);
        let brute = enumerate_best(&ip);
        match (model.solve(), brute) {
            (Ok(sol), Some((best, _))) => {
                assert!(
                    (sol.objective - best).abs() < 1e-5,
                    "case {case}: solver={} brute={} ip={:?}",
                    sol.objective,
                    best,
                    ip
                );
                // The reported point must itself be feasible and integral.
                for (v, cap) in sol.values.iter().zip(&ip.caps) {
                    assert!((v - v.round()).abs() < 1e-6);
                    assert!(v.round() >= -1e-9 && v.round() <= *cap as f64 + 1e-9);
                }
            }
            (Err(SolveError::Infeasible), None) => {}
            (got, want) => {
                panic!("case {case}: solver {got:?} vs brute {want:?} on {ip:?}");
            }
        }
    }
}

/// 96 random jittered-cost integer programs: branch-and-bound must return
/// the exhaustive argbest itself, not just its objective.
#[test]
fn milp_incumbents_match_exhaustive_argbest() {
    let mut rng = StdRng::seed_from_u64(0xEAE_0002);
    for case in 0..96 {
        let ip = rand_jittered_ip(&mut rng);
        match (build_model(&ip).solve(), enumerate_best(&ip)) {
            (Ok(sol), Some((best, argbest))) => {
                assert!(
                    (sol.objective - best).abs() <= 1e-6 * (1.0 + best.abs()),
                    "case {case}: solver obj {} vs brute {best} on {ip:?}",
                    sol.objective
                );
                let incumbent: Vec<i64> = sol.values.iter().map(|v| v.round() as i64).collect();
                assert_eq!(
                    incumbent, argbest,
                    "case {case}: incumbents differ on {ip:?}"
                );
            }
            (Err(SolveError::Infeasible), None) => {}
            (got, want) => panic!("case {case}: solver {got:?} vs brute {want:?} on {ip:?}"),
        }
    }
}

#[test]
fn lp_relaxation_dominates_integer_points() {
    let mut rng = StdRng::seed_from_u64(0x501_7E52);
    for case in 0..128 {
        let ip = rand_ip(&mut rng);
        let model = build_model(&ip);
        // LP optimum must be at least as good as every feasible integer
        // point.
        if let (Ok(lp), Some((best, _))) = (model.solve_lp(), enumerate_best(&ip)) {
            if ip.maximize {
                assert!(
                    lp.objective >= best - 1e-5,
                    "case {case}: lp {} < best integer {}",
                    lp.objective,
                    best
                );
            } else {
                assert!(
                    lp.objective <= best + 1e-5,
                    "case {case}: lp {} > best integer {}",
                    lp.objective,
                    best
                );
            }
        }
    }
}
