#!/usr/bin/env bash
# Full offline CI pass: formatting, lints, repo audit, build, tests,
# paper-table and ablation reproduction, the perfbench smoke, model
# checking, serve and DRC smokes, and (when the toolchain provides them)
# miri + TSan gates. Every step that runs can fail the pass.
# The workspace has zero external dependencies, so everything here runs
# without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> pilfill-audit lint (deny warnings, JSON report)"
cargo run -q -p xtask -- lint --deny-warnings --json > lint-report.json
cargo run -q -p xtask -- lint --deny-warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The external-fill evaluator's feature-locate overflow guard, the text
# reader's i64-boundary segment check and the counting-allocator claims
# behave differently with and without debug assertions and overflow
# checks, so the crates that carry them are tested in release too; the
# fill budget's seeded scan-oracle suite, the text-reader mutator suite,
# the GDS writer's exact-size check and the flow's count-scoring oracle
# (proptest_flow: every method, definition, budget and weighting scored
# from counts against the feature-locating evaluator) also run as
# optimised code.
echo "==> cargo test --release (pilfill-rc, pilfill-core, pilfill-density, pilfill-layout, pilfill-stream, proptest_flow)"
cargo test --release -q -p pilfill-rc -p pilfill-core -p pilfill-density \
  -p pilfill-layout -p pilfill-stream
cargo test --release -q -p pil-fill --test proptest_flow

# Paper tables smoke: table1/table2 --smoke run one cell per testcase,
# exit non-zero if ILP-II's delay exceeds Normal's on any row or if a row
# differs from the matching row of the committed results/table{1,2}.csv
# in any column but cpu_s (so a change that drifts the paper tables fails
# here), and must leave the committed full-grid CSVs untouched.
echo "==> paper tables smoke (table1/table2 --smoke)"
tables_before=$(cksum results/table1.csv results/table2.csv)
./target/release/table1 --smoke >/dev/null
./target/release/table2 --smoke >/dev/null
[ "$(cksum results/table1.csv results/table2.csv)" = "$tables_before" ] ||
  { echo "a --smoke run rewrote results/table{1,2}.csv"; exit 1; }

# Ablation and extension reruns: the three ablations and ext_budgets take
# about a second together, carry no timing column and are deterministic,
# so a rerun must rewrite their committed CSVs byte for byte. ext_budgets
# is also the only caller that runs branch-and-bound with a non-default
# node limit.
echo "==> ablation/extension CSVs reproduce (ext_budgets, ablation_*)"
for bin in ext_budgets ablation_slackdef ablation_granularity ablation_greedy_bound; do
  "./target/release/$bin" >/dev/null
done
git diff --exit-code -- results/ext_budgets.csv results/ablation_slackdef.csv \
  results/ablation_granularity.csv results/ablation_greedy_bound.csv ||
  { echo "a rerun changed a committed ablation/extension CSV"; exit 1; }

# Benchmark gate. perfbench is a separate cargo package that drives the
# crates through their public API; it must build from this checkout and
# its smoke run (tiny inputs, every workload, traced and untraced, ~7 s)
# must come back correct with no failed operations. Deleting or renaming
# a public item the benchmark uses fails here, not in a later benchmark
# run.
echo "==> perfbench build + smoke"
smoke=$(python3 perfbench/run.py --smoke) || { echo "$smoke"; echo "perfbench smoke failed"; exit 1; }
echo "$smoke" | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)
' || { echo "$smoke"; echo "perfbench smoke: expected correct with 0 failed"; exit 1; }

# Concurrency gates. The bounded model checker explores the pool's
# protocol invariants (epoch publication, cursor claiming, slot merges,
# gate streaming, panic propagation) under a fixed seed and budget; its
# JSON report lands next to lint-report.json. The three concurrency
# audit rules (unsafe-no-safety-comment, atomic-ordering, layering)
# already gate above as part of the pilfill-audit lint step.
echo "==> pilfill-check model suite (bounded budget, JSON report)"
cargo run --release -q -p pilfill-check -- --out check-report.json

# The same engine driving the REAL WorkerPool through the cfg'd sync
# shim. A separate target dir keeps the --cfg flag from thrashing the
# main build cache.
echo "==> model-checked pool tests (cfg pilfill_check)"
RUSTFLAGS="--cfg pilfill_check" CARGO_TARGET_DIR=target/check \
  cargo test -q -p pilfill-exec --test model_pool

# Serve smoke: the daemon answers a cold upload, a warm by-hash repeat
# (byte-for-byte identical outcome blob), and one-net edits riding the
# cached context through the rebuild path, then shuts down cleanly; a
# second daemon builds the last edit cold and must reply the same blob. The
# cold/warm pair runs for Greedy and for ILP-II (closed-form tile solves
# plus the branch-and-bound fallback); ILP-II uses another `r`, so its
# context is built cold. A real gate — determinism of the serving layer
# is an invariant, not a perf number.
echo "==> serve smoke (unix socket: cold / warm-repeat / one-net-edit)"
serve_dir=$(mktemp -d)
serve_sock="$serve_dir/pilfill-ci.sock"
./target/release/pilfill synth --preset small --seed 33 --out "$serve_dir/smoke.pfl" >/dev/null
./target/release/pilfill serve --listen "unix:$serve_sock" --threads 2 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
request() {
  ./target/release/pilfill request "$serve_dir/smoke.pfl" \
    --connect "unix:$serve_sock" --window 8000 "$@"
}
cold_warm() {
  local tag=$1
  shift
  out=$(request "$@" --dump "$serve_dir/cold-$tag.blob")
  echo "$out" | grep -q "status cold" || { echo "expected a cold $tag fill: $out"; exit 1; }
  out=$(request "$@" --by-hash --dump "$serve_dir/warm-$tag.blob")
  echo "$out" | grep -q "status warm" || { echo "expected a warm $tag fill: $out"; exit 1; }
  cmp "$serve_dir/cold-$tag.blob" "$serve_dir/warm-$tag.blob" ||
    { echo "warm $tag reply must match cold byte-for-byte"; exit 1; }
}
cold_warm greedy --r 2 --method greedy
cold_warm ilp2 --r 4 --method ilp2
out=$(request --r 2 --method greedy --edit dup-sink:0)
echo "$out" | grep -q "status rebuild-" || { echo "expected a rebuild: $out"; exit 1; }
# A widen edit on the same context must stay incremental; its reply is
# checked against a cold build of the same edit below.
out=$(request --r 2 --method greedy --edit widen:0,0,40 --dump "$serve_dir/incr.blob")
echo "$out" | grep -q "status rebuild-incr" || { echo "expected an incremental rebuild: $out"; exit 1; }
# The same edit again is a warm hit that replays the blob cached after
# the rebuild; it must be the rebuild's blob, not the base's.
out=$(request --r 2 --method greedy --edit widen:0,0,40 --dump "$serve_dir/incr-warm.blob")
echo "$out" | grep -q "status warm" || { echo "expected a warm repeat of the edit: $out"; exit 1; }
cmp "$serve_dir/incr.blob" "$serve_dir/incr-warm.blob" ||
  { echo "a warm repeat of the edit must reply the rebuild's blob"; exit 1; }
shutdown_daemon() {
  ./target/release/pilfill request --connect "unix:$serve_sock" --shutdown |
    grep -q "shutdown acknowledged" || { echo "shutdown not acknowledged"; exit 1; }
  wait "$serve_pid"
  [ ! -e "$serve_sock" ] || { echo "socket file not unlinked on shutdown"; exit 1; }
}
shutdown_daemon
# Rebuild against a cold build: a fresh daemon holds the base only under
# r = 4, so the same r = 2 edit is built cold and must reply the
# incremental rebuild's blob byte for byte.
./target/release/pilfill serve --listen "unix:$serve_sock" --threads 2 &
serve_pid=$!
out=$(request --r 4 --method greedy)
echo "$out" | grep -q "status cold" || { echo "expected a cold upload: $out"; exit 1; }
out=$(request --r 2 --method greedy --edit widen:0,0,40 --dump "$serve_dir/cold-edit.blob")
echo "$out" | grep -q "status cold" || { echo "expected a cold build of the edit: $out"; exit 1; }
cmp "$serve_dir/incr.blob" "$serve_dir/cold-edit.blob" ||
  { echo "the incremental rebuild must reply what a cold build does"; exit 1; }
shutdown_daemon
trap - EXIT
rm -rf "$serve_dir"

# DRC smoke: an ILP-II fill under each slack-column definition, exported
# to GDSII and read back, must pass `pilfill verify` (exit 0, "DRC clean").
echo "==> DRC smoke (pilfill fill --def 1|2|3 --gds, then pilfill verify)"
drc_dir=$(mktemp -d)
trap 'rm -rf "$drc_dir"' EXIT
./target/release/pilfill synth --preset small --seed 7 --out "$drc_dir/drc.pfl" >/dev/null
for def in 1 2 3; do
  ./target/release/pilfill fill "$drc_dir/drc.pfl" --method ilp2 --def "$def" \
    --gds "$drc_dir/drc.gds" >/dev/null
  out=$(./target/release/pilfill verify "$drc_dir/drc.pfl" --gds "$drc_dir/drc.gds") ||
    { echo "pilfill verify failed under --def $def: $out"; exit 1; }
  echo "$out" | grep -q "DRC clean" || { echo "expected DRC clean under --def $def: $out"; exit 1; }
done
trap - EXIT
rm -rf "$drc_dir"

# Optional soundness gates: run only when the host toolchain has the
# nightly components (offline containers usually don't; the GitHub
# workflow installs them and runs these for real).
if cargo +nightly miri --version >/dev/null 2>&1; then
  echo "==> miri (pilfill-geom, pilfill-solver)"
  cargo +nightly miri test -p pilfill-geom -p pilfill-solver
else
  echo "==> miri unavailable (skipping; CI runs it)"
fi

if [ -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]; then
  echo "==> ThreadSanitizer (FlowOutcome determinism, pooled build, run and streamed, served store)"
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -p pilfill-core --lib -- --test-threads 1 parallel_run_is_bit_identical \
    streamed_run_is_bit_identical_to_serial_for_every_lane_count \
    pooled_build_and_streamed_run_match_serial_for_every_def_frame_and_lane_count \
    budget_error_is_the_same_at_every_lane_count
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -p pilfill-serve --lib -- --test-threads 1 partly_solved_store_completes_to_the_one_shot_blob \
    no_stale_blob_after_
else
  echo "==> nightly rust-src unavailable (skipping TSan; CI runs it)"
fi

echo "CI OK"
