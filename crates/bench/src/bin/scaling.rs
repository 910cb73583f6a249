// Offline benchmark driver: inputs are fixed and a failed step should
// abort loudly rather than be handled. pilfill: allow-file(unwrap)
//! Multicore scaling gate: times the pooled context build and the pooled
//! ILP-II run on T2 (W = 32k, r = 2) at 1 lane and at `LANE` lanes, and
//! judges each speedup against a floor.
//!
//! Usage: `cargo run --release -p pilfill-bench --bin scaling -- <LANE>`
//!
//! Both pools are persistent and created outside the timed region, so the
//! figures measure steady-state dispatch rather than thread spawn-up.
//! A timed call takes well under a millisecond, so each sample is a batch
//! of back-to-back calls lasting at least 10 ms, read as nanoseconds per
//! call. Each measurement is the median of 15 samples after one untimed
//! batch, and the 1-lane and `LANE`-lane samples are taken in turn (in
//! alternating order), so a slow spell on the host hits both sides of a
//! speedup alike. A speedup is printed in permille of the 1-lane median (2000 = a clean
//! 2x). It is judged against the floor only when the host has at least 4
//! CPUs and `LANE` fits the host; otherwise the lanes cannot all run at
//! once, the sweep measures scheduling overhead, and the key is printed
//! as informational. The exit status is the number of judged keys below
//! the floor (2 on a usage error).

use pilfill_core::flow::{FlowConfig, FlowContext};
use pilfill_core::methods::IlpTwo;
use pilfill_core::WorkerPool;
use pilfill_layout::synth::{synthesize, SynthConfig};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Speedup floor in permille of the 1-lane median (+20%).
const FLOOR_PERMILLE: u64 = 1200;
/// Fewest host CPUs on which a speedup is judged.
const MIN_JUDGED_HOST: usize = 4;
/// Timed batches per measurement.
const SAMPLES: usize = 15;
/// Shortest timed batch.
const MIN_BATCH: Duration = Duration::from_millis(10);
/// Widest pool the driver accepts.
const MAX_LANE: usize = 64;

/// How one speedup key fares against the gate rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The host cannot run every lane at once; printed, never judged.
    Informational,
    /// Judged and at or above the floor.
    Pass,
    /// Judged and below the floor.
    BelowFloor,
}

/// The gate rule: a `lane`-lane speedup of `permille` on a host with
/// `host` CPUs.
fn judge(host: usize, lane: usize, permille: u64) -> Verdict {
    if host < MIN_JUDGED_HOST || lane > host {
        Verdict::Informational
    } else if permille < FLOOR_PERMILLE {
        Verdict::BelowFloor
    } else {
        Verdict::Pass
    }
}

/// Runs `f` back to back until the batch has lasted at least `min`;
/// returns the mean nanoseconds per call.
fn batch_ns<T>(min: Duration, mut f: impl FnMut() -> T) -> u64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        black_box(f());
        calls += 1;
        let elapsed = start.elapsed();
        if elapsed >= min {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            return ns / calls;
        }
    }
}

/// The median of `samples` (sorted in place).
fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lane = match args.as_slice() {
        [lane] => lane
            .parse::<usize>()
            .ok()
            .filter(|n| (2..=MAX_LANE).contains(n)),
        _ => None,
    };
    let Some(lane) = lane else {
        eprintln!("usage: scaling <LANE>   (LANE = 2..={MAX_LANE})");
        return ExitCode::from(2);
    };
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let design = synthesize(&SynthConfig::t2());
    let cfg = FlowConfig::new(32_000, 2).expect("config");
    let ctx = FlowContext::build(&design, &cfg).expect("context");
    let pools = [WorkerPool::new(1), WorkerPool::new(lane)];
    // One batch of key `k` (0 = build, 1 = run) on `pool`, in ns per call.
    let sample = |pool: &WorkerPool, k: usize| {
        if k == 0 {
            batch_ns(MIN_BATCH, || {
                FlowContext::build_pool(&design, &cfg, pool).expect("context")
            })
        } else {
            batch_ns(MIN_BATCH, || {
                ctx.run_pool(&cfg, &IlpTwo, pool).expect("run")
            })
        }
    };
    for pool in &pools {
        sample(pool, 0);
        sample(pool, 1);
    }
    // samples[pool][key]
    let mut samples: [[Vec<u64>; 2]; 2] = Default::default();
    for round in 0..SAMPLES {
        // Alternate which pool goes first, so neither side always runs
        // right after the other.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for p in order {
            for (k, key) in samples[p].iter_mut().enumerate() {
                key.push(sample(&pools[p], k));
            }
        }
    }
    let medians = samples.map(|keys| keys.map(|mut s| median(&mut s)));
    for (pool, [build, run]) in pools.iter().zip(&medians) {
        let lanes = pool.lanes();
        println!("{lanes} lane(s): context_build_t2 {build} ns, run_ilp2_t2 {run} ns");
    }

    println!("host_parallelism = {host}, floor = {FLOOR_PERMILLE} permille");
    let mut verdicts = Vec::new();
    for (k, key) in ["context_build_t2", "run_ilp2_t2"].into_iter().enumerate() {
        let permille = medians[0][k].saturating_mul(1000) / medians[1][k].max(1);
        let verdict = judge(host, lane, permille);
        let note = match verdict {
            Verdict::Informational => format!("informational (host too narrow for lane {lane})"),
            Verdict::Pass => "ok".to_string(),
            Verdict::BelowFloor => format!("BELOW FLOOR {FLOOR_PERMILLE}"),
        };
        let name = format!("{key}/speedup@{lane}");
        println!("  {name:<30} {permille:>6}  {note}");
        verdicts.push(verdict);
    }
    let below = below_floor(&verdicts);
    println!("{below} key(s) below floor");
    ExitCode::from(below)
}

/// The exit status: how many judged keys fell below the floor.
fn below_floor(verdicts: &[Verdict]) -> u8 {
    let n = verdicts
        .iter()
        .filter(|&&v| v == Verdict::BelowFloor)
        .count();
    u8::try_from(n).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exit status of a run whose two keys read `permilles`.
    fn exit_status(host: usize, lane: usize, permilles: [u64; 2]) -> u8 {
        below_floor(&permilles.map(|p| judge(host, lane, p)))
    }

    #[test]
    fn narrow_host_is_informational() {
        assert_eq!(judge(3, 2, 0), Verdict::Informational);
        assert_eq!(exit_status(3, 2, [0, 1199]), 0);
    }

    #[test]
    fn lane_wider_than_host_is_informational() {
        assert_eq!(judge(4, 8, 0), Verdict::Informational);
        assert_eq!(exit_status(4, 8, [0, 1199]), 0);
    }

    #[test]
    fn judged_key_below_floor_fails() {
        assert_eq!(judge(4, 4, 1199), Verdict::BelowFloor);
        assert_eq!(exit_status(4, 4, [1199, 1199]), 2);
        assert_eq!(exit_status(8, 2, [1199, 5000]), 1);
    }

    /// Spins until `d` has passed.
    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn batch_lasts_at_least_the_minimum() {
        let mut calls = 0u64;
        let ns = batch_ns(Duration::from_millis(2), || {
            calls += 1;
            spin(Duration::from_micros(100));
        });
        assert!((2..=20).contains(&calls), "{calls} calls of 100 µs in 2 ms");
        assert!(ns >= 100_000, "{ns} ns per call is below the spin time");
        assert!(ns * calls + calls >= 2_000_000, "{calls} x {ns} ns < 2 ms");
    }

    #[test]
    fn slow_call_is_a_batch_of_one() {
        let mut calls = 0u64;
        let ns = batch_ns(Duration::from_millis(1), || {
            calls += 1;
            spin(Duration::from_millis(3));
        });
        assert_eq!(calls, 1);
        assert!(ns >= 3_000_000, "{ns} ns for a 3 ms call");
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(&mut [5, 1, 9, 3, 7]), 5);
        assert_eq!(median(&mut [4, 2]), 4);
    }

    #[test]
    fn judged_key_at_floor_passes() {
        assert_eq!(judge(4, 4, 1200), Verdict::Pass);
        assert_eq!(exit_status(4, 4, [1200, 1200]), 0);
    }
}
