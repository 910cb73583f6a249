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
//! Each measurement is the median of 7 timed calls after 2 untimed ones.
//! A speedup is printed in permille of the 1-lane median (2000 = a clean
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
use std::time::Instant;

/// Speedup floor in permille of the 1-lane median (+20%).
const FLOOR_PERMILLE: u64 = 1200;
/// Fewest host CPUs on which a speedup is judged.
const MIN_JUDGED_HOST: usize = 4;
/// Timed calls per measurement.
const SAMPLES: usize = 7;
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

/// Median wall-clock nanoseconds of `SAMPLES` calls of `f`, after
/// `ceil(SAMPLES / 4)` untimed warm-up calls.
fn median_ns<T>(mut f: impl FnMut() -> T) -> u64 {
    for _ in 0..SAMPLES.div_ceil(4) {
        black_box(f());
    }
    let mut ns: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    ns.sort_unstable();
    ns[SAMPLES / 2]
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
    let mut medians = Vec::new();
    for lanes in [1, lane] {
        let pool = WorkerPool::new(lanes);
        let build = median_ns(|| FlowContext::build_pool(&design, &cfg, &pool).expect("context"));
        let run = median_ns(|| ctx.run_pool(&cfg, &IlpTwo, &pool).expect("run"));
        println!("{lanes} lane(s): context_build_t2 {build} ns, run_ilp2_t2 {run} ns");
        medians.push([build, run]);
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

    #[test]
    fn judged_key_at_floor_passes() {
        assert_eq!(judge(4, 4, 1200), Verdict::Pass);
        assert_eq!(exit_status(4, 4, [1200, 1200]), 0);
    }
}
