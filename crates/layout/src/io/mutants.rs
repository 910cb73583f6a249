//! Structure-aware mutator suite for the text reader, seeded from
//! `pilfill-prng`.
//!
//! Mutants start from the texts of T1, T2 and `small_test` designs and
//! carry one to three of: truncation at a byte offset, line deletion,
//! token deletion, duplication and swaps, directives moved out of or into `NET` blocks,
//! numerals at and past ±i64, huge widths, segments pushed onto the i64
//! boundary, `#` inside tokens, NBSP and U+3000 separators, and CRLF line
//! endings. On every mutant, [`Design::from_text`]
//!
//! - does not panic (the suite runs under debug overflow checks too);
//! - allocates at most [`BYTES_PER_INPUT_BYTE`] bytes per input byte plus
//!   [`BYTES_FIXED`], counted per thread by this test binary's allocator;
//! - returns the same `Result` as the collect-all oracle in
//!   `super::reference`: the same design, or the same error variant,
//!   message and line;
//! - when it accepts, writes text that reads back and writes the same
//!   bytes again.
//!
//! A second suite checks [`Net::walk_tree`] against [`Net::topology`] on
//! mutated nets, verdicts and traversal both, and its per-sink segment
//! lookup against a linear scan.

use super::reference;
use crate::synth::{synthesize, SynthConfig};
use crate::{Design, LayoutError, Net, Segment, TreeWalk};
use pilfill_geom::Point;
use pilfill_prng::rngs::StdRng;
use pilfill_prng::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // A const-initialised `Cell<u64>` has no destructor, so the slot is
    // usable for the thread's whole life; `try_with` still never panics.
    let _ = BYTES.try_with(|b| b.set(b.get().saturating_add(bytes as u64)));
}

/// A [`System`]-backed allocator that adds the bytes of every `alloc`,
/// `alloc_zeroed` and `realloc` (its new size) to the calling thread's
/// [`BYTES`]. Per-thread counting keeps concurrently running tests out of
/// a measured window.
struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is forwarded verbatim under the caller's
        // `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator (i.e. `System`) with
        // `layout`, per the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it allocated.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Allocation allowed per input byte: a parsed segment (48 bytes) comes
/// from a `SEG` line of at least 15 bytes, and validation's tree walk
/// keeps about 65 bytes per segment; growth by doubling at most doubles
/// both.
const BYTES_PER_INPUT_BYTE: u64 = 16;
/// Allocation allowed regardless of length: first buffer growths and an
/// error message.
const BYTES_FIXED: u64 = 4096;

fn allocation_bound(text: &str) -> u64 {
    BYTES_PER_INPUT_BYTE * text.len() as u64 + BYTES_FIXED
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate,
    DeleteLine,
    DeleteToken,
    DuplicateToken,
    SwapTokens,
    MoveOutOfNet,
    MoveIntoNet,
    Numeral,
    HugeWidth,
    BoundarySegment,
    HashInToken,
    UnicodeSpace,
    Crlf,
}

const MUTATIONS: [Mutation; 13] = [
    Mutation::Truncate,
    Mutation::DeleteLine,
    Mutation::DeleteToken,
    Mutation::DuplicateToken,
    Mutation::SwapTokens,
    Mutation::MoveOutOfNet,
    Mutation::MoveIntoNet,
    Mutation::Numeral,
    Mutation::HugeWidth,
    Mutation::BoundarySegment,
    Mutation::HashInToken,
    Mutation::UnicodeSpace,
    Mutation::Crlf,
];

/// Numerals at and just past the ends of `i64`, plus sign oddities.
const BOUNDARY_NUMERALS: [&str; 8] = [
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551616",
    "+9223372036854775807",
    "-0",
    "+1",
];

const HUGE_WIDTHS: [&str; 4] = [
    "9223372036854775807",
    "9223372036854775806",
    "4611686018427387904",
    "1099511627776",
];

/// Directives that belong outside a `NET` block.
const TOP_LEVEL: [&str; 9] = [
    "PILFILL",
    "DESIGN",
    "DIE",
    "TECH",
    "RULES",
    "LAYER",
    "OBS",
    "NET",
    "ENDDESIGN",
];

fn tokens(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_owned).collect()
}

fn first_token(line: &str) -> Option<&str> {
    line.split_whitespace().next()
}

/// A random index among the lines whose first token satisfies `keep`.
fn pick_line(rng: &mut StdRng, lines: &[String], keep: impl Fn(&str) -> bool) -> Option<usize> {
    let hits: Vec<usize> = (0..lines.len())
        .filter(|&i| first_token(&lines[i]).is_some_and(&keep))
        .collect();
    (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
}

/// Applies `f` to the tokens of one random non-blank line and rejoins
/// them with single spaces.
fn edit_tokens(
    rng: &mut StdRng,
    lines: &mut [String],
    f: impl FnOnce(&mut StdRng, &mut Vec<String>),
) {
    if let Some(i) = pick_line(rng, lines, |_| true) {
        let mut toks = tokens(&lines[i]);
        f(rng, &mut toks);
        lines[i] = toks.join(" ");
    }
}

fn mutate(text: &str, m: Mutation, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_owned).collect();
    match m {
        Mutation::Truncate => {
            let mut cut = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
        Mutation::DeleteLine => {
            if let Some(i) = pick_line(rng, &lines, |_| true) {
                lines.remove(i);
            }
        }
        Mutation::DeleteToken => edit_tokens(rng, &mut lines, |rng, toks| {
            toks.remove(rng.gen_range(0..toks.len()));
        }),
        Mutation::DuplicateToken => edit_tokens(rng, &mut lines, |rng, toks| {
            let j = rng.gen_range(0..toks.len());
            toks.insert(j, toks[j].clone());
        }),
        Mutation::SwapTokens => {
            let (Some(a), Some(b)) = (
                pick_line(rng, &lines, |_| true),
                pick_line(rng, &lines, |_| true),
            ) else {
                return lines.join("\n");
            };
            let mut ta = tokens(&lines[a]);
            let ja = rng.gen_range(0..ta.len());
            if a == b {
                let jb = rng.gen_range(0..ta.len());
                ta.swap(ja, jb);
            } else {
                let mut tb = tokens(&lines[b]);
                let jb = rng.gen_range(0..tb.len());
                std::mem::swap(&mut ta[ja], &mut tb[jb]);
                lines[b] = tb.join(" ");
            }
            lines[a] = ta.join(" ");
        }
        Mutation::MoveOutOfNet => {
            if let Some(i) = pick_line(rng, &lines, |t| t == "SEG" || t == "SINK") {
                let moved = lines.remove(i);
                // Right after an `ENDNET`, or before everything.
                let to = pick_line(rng, &lines, |t| t == "ENDNET").map_or(0, |e| e + 1);
                lines.insert(to, moved);
            }
        }
        Mutation::MoveIntoNet => {
            if let Some(i) = pick_line(rng, &lines, |t| TOP_LEVEL.contains(&t)) {
                let moved = lines.remove(i);
                if let Some(n) = pick_line(rng, &lines, |t| t == "NET") {
                    lines.insert(n + 1, moved);
                } else {
                    lines.push(moved);
                }
            }
        }
        Mutation::Numeral => {
            let numeric: Vec<(usize, usize)> = lines
                .iter()
                .enumerate()
                .flat_map(|(i, l)| {
                    l.split_whitespace()
                        .enumerate()
                        .filter(|(_, t)| t.parse::<i64>().is_ok())
                        .map(move |(j, _)| (i, j))
                })
                .collect();
            if !numeric.is_empty() {
                let (i, j) = numeric[rng.gen_range(0..numeric.len())];
                let mut toks = tokens(&lines[i]);
                toks[j] = BOUNDARY_NUMERALS[rng.gen_range(0..BOUNDARY_NUMERALS.len())].into();
                lines[i] = toks.join(" ");
            }
        }
        Mutation::HugeWidth => {
            if let Some(i) = pick_line(rng, &lines, |t| t == "SEG") {
                let mut toks = tokens(&lines[i]);
                if let Some(w) = toks.get_mut(6) {
                    *w = HUGE_WIDTHS[rng.gen_range(0..HUGE_WIDTHS.len())].into();
                }
                lines[i] = toks.join(" ");
            }
        }
        Mutation::BoundarySegment => {
            // Push a segment's track coordinate onto the i64 boundary, where
            // its drawn edge overflows. Half the time also stretch the die:
            // over the whole half of i64 on that edge's side (as wide as a
            // valid die may be), so only the overflow check can reject the
            // segment, or over all of i64, which the die check rejects.
            let edges = [i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1];
            let edge = edges[rng.gen_range(0..edges.len())];
            if rng.gen_bool(0.5) {
                if let Some(d) = pick_line(rng, &lines, |t| t == "DIE") {
                    let (lo, hi) = match (rng.gen_bool(0.5), edge > 0) {
                        (true, true) => (0, i64::MAX),
                        (true, false) => (i64::MIN, -1),
                        (false, _) => (i64::MIN, i64::MAX),
                    };
                    lines[d] = format!("DIE {lo} {lo} {hi} {hi}");
                }
            }
            if let Some(i) = pick_line(rng, &lines, |t| t == "SEG") {
                let mut toks = tokens(&lines[i]);
                if toks.len() == 7 {
                    // Horizontal segments share y (tokens 3 and 5), vertical
                    // ones share x (tokens 2 and 4).
                    let (a, b) = if toks[3] == toks[5] { (3, 5) } else { (2, 4) };
                    toks[a] = edge.to_string();
                    toks[b] = edge.to_string();
                }
                lines[i] = toks.join(" ");
            }
        }
        Mutation::HashInToken => edit_tokens(rng, &mut lines, |rng, toks| {
            let j = rng.gen_range(0..toks.len());
            let cuts: Vec<usize> = toks[j]
                .char_indices()
                .map(|(k, _)| k)
                .chain([toks[j].len()])
                .collect();
            toks[j].insert(cuts[rng.gen_range(0..cuts.len())], '#');
        }),
        Mutation::UnicodeSpace => {
            if let Some(i) = pick_line(rng, &lines, |_| true) {
                let space = if rng.gen_bool(0.5) {
                    "\u{a0}"
                } else {
                    "\u{3000}"
                };
                lines[i] = if rng.gen_bool(0.5) {
                    lines[i].replace(' ', space)
                } else {
                    lines[i].replacen(' ', space, 1)
                };
            }
        }
        Mutation::Crlf => {
            let all = rng.gen_bool(0.5);
            for l in &mut lines {
                if all || rng.gen_bool(0.3) {
                    l.push('\r');
                }
            }
            // The last piece follows the final `\n`; a `\r` there would not
            // be a line ending.
            if let Some(last) = lines.last_mut() {
                if last == "\r" {
                    last.clear();
                }
            }
        }
    }
    lines.join("\n")
}

/// Applies one to three random mutations; returns the text and their
/// names for failure messages.
fn mutant(base: &str, rng: &mut StdRng) -> (String, Vec<Mutation>) {
    let mut text = base.to_owned();
    let mut applied = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let m = MUTATIONS[rng.gen_range(0..MUTATIONS.len())];
        text = mutate(&text, m, rng);
        applied.push(m);
    }
    (text, applied)
}

/// Verdict counts over a batch of mutants, so the suite can show it
/// exercised both sides of the reader.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    parse_errors: usize,
    validation_errors: usize,
}

/// Runs every check on one mutant; `label` names it in failure messages.
fn check_mutant(text: &str, label: &str, tally: &mut Tally) {
    let (got, bytes) = bytes_allocated(|| Design::from_text(text));
    let bound = allocation_bound(text);
    assert!(
        bytes <= bound,
        "{label}: from_text allocated {bytes} bytes for {} input bytes (bound {bound})",
        text.len()
    );
    assert_eq!(got, reference::from_text(text), "{label}: oracle disagrees");
    match got {
        Ok(design) => {
            tally.accepted += 1;
            let written = design.to_text();
            let again = Design::from_text(&written).map(|back| back.to_text());
            assert_eq!(again.as_ref(), Ok(&written), "{label}: round trip");
        }
        Err(LayoutError::Parse { .. }) => tally.parse_errors += 1,
        Err(_) => tally.validation_errors += 1,
    }
}

fn bases() -> Vec<(String, String)> {
    let mut configs = vec![SynthConfig::t1(), SynthConfig::t2()];
    configs.extend((0..6).map(SynthConfig::small_test));
    configs
        .iter()
        .map(|c| (c.name.clone(), synthesize(c).to_text()))
        .collect()
}

#[test]
fn mutated_texts_match_the_oracle_without_panic_or_overallocation() {
    let mut rng = StdRng::seed_from_u64(0x10_0CAF);
    let mut tally = Tally::default();
    for (name, base) in bases() {
        // The unmutated text is accepted and round-trips too.
        check_mutant(&base, &format!("{name} unmutated"), &mut tally);
        let count = if base.len() > 100_000 { 24 } else { 64 };
        for case in 0..count {
            let (text, applied) = mutant(&base, &mut rng);
            check_mutant(
                &text,
                &format!("{name} case {case} {applied:?}"),
                &mut tally,
            );
        }
    }
    // Both sides of the reader are exercised.
    assert!(tally.accepted > 20, "{tally:?}");
    assert!(tally.parse_errors > 20, "{tally:?}");
    assert!(tally.validation_errors > 20, "{tally:?}");
}

#[test]
fn each_mutation_alone_matches_the_oracle() {
    // One mutation per mutant on a small text, every kind many times, so a
    // kind that the random mixes above rarely pick still runs alone.
    let base = synthesize(&SynthConfig::small_test(3)).to_text();
    let mut rng = StdRng::seed_from_u64(0x10_0B0B);
    let mut tally = Tally::default();
    for m in MUTATIONS {
        for case in 0..24 {
            let text = mutate(&base, m, &mut rng);
            check_mutant(&text, &format!("{m:?} case {case}"), &mut tally);
        }
    }
    assert!(
        tally.accepted > 0 && tally.validation_errors > 0,
        "{tally:?}"
    );
}

/// One random structural edit of a net.
fn mutate_net(net: &mut Net, rng: &mut StdRng) {
    let n = net.segments.len();
    let endpoint = |net: &Net, rng: &mut StdRng| -> Point {
        let s = net.segments[rng.gen_range(0..net.segments.len())];
        if rng.gen_bool(0.5) {
            s.start
        } else {
            s.end
        }
    };
    match rng.gen_range(0..8u32) {
        0 if n > 0 => {
            net.segments.remove(rng.gen_range(0..n));
        }
        1 if n > 0 => {
            let s = net.segments[rng.gen_range(0..n)];
            net.segments.insert(rng.gen_range(0..=n), s);
        }
        2 if n > 0 => {
            let s = &mut net.segments[rng.gen_range(0..n)];
            std::mem::swap(&mut s.start, &mut s.end);
        }
        3 if n > 0 => {
            // A segment from an endpoint back to the source: a cycle when
            // the source has children.
            let from = endpoint(net, rng);
            net.segments.push(Segment {
                start: from,
                end: net.source,
                ..net.segments[0]
            });
        }
        4 if n > 0 => {
            let p = endpoint(net, rng);
            net.sinks.push(p);
        }
        5 => net
            .sinks
            .push(Point::new(rng.gen_range(-5..5), rng.gen_range(-5..5))),
        6 if n > 0 => net.source = endpoint(net, rng),
        _ if n > 1 => {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            net.segments.swap(a, b);
        }
        _ => net.sinks.clear(),
    }
}

#[test]
fn tree_walk_matches_topology_on_mutated_nets() {
    let mut rng = StdRng::seed_from_u64(0x10_7EE);
    let mut walk = TreeWalk::default();
    let (mut ok, mut err) = (0usize, 0usize);
    let designs: Vec<Design> = [SynthConfig::t2()]
        .into_iter()
        .chain((0..6).map(SynthConfig::small_test))
        .map(|c| synthesize(&c))
        .collect();
    for d in &designs {
        for (i, base) in d.nets.iter().enumerate() {
            for round in 0..4 {
                let mut net = base.clone();
                for _ in 0..rng.gen_range(1..=3usize) {
                    mutate_net(&mut net, &mut rng);
                }
                let label = format!("{} net {i} round {round}", d.name);
                let want = net.topology();
                let got = net.walk_tree(&mut walk);
                assert_eq!(
                    got,
                    want.as_ref().map(|_| ()).map_err(Clone::clone),
                    "{label}"
                );
                if got.is_ok() {
                    // Each sink's segment is the first match of a linear
                    // scan over the segment ends.
                    for (j, sink) in net.sinks.iter().enumerate() {
                        let first = net.segments.iter().position(|s| s.end == *sink);
                        assert_eq!(walk.sink_segment(j), first, "{label} sink {j}");
                    }
                }
                if let Ok(topo) = want {
                    ok += 1;
                    let order: Vec<usize> = topo.order.iter().map(|s| s.0).collect();
                    assert_eq!(walk.order(), order.as_slice(), "{label}");
                    for k in 0..net.segments.len() {
                        let parent = topo.upstream[k].last().map(|s| s.0);
                        assert_eq!(walk.parent(k), parent, "{label} segment {k}");
                    }
                } else {
                    err += 1;
                }
            }
        }
    }
    assert!(ok > 100 && err > 100, "ok {ok} err {err}");
}
