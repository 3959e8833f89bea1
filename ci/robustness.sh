#!/usr/bin/env bash
# CI job `robustness`: mid-cycle kills under chaos on both placements, and the
# real pool's phase-boundary protocol under load. Artefacts: ci-out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
out=ci-out && mkdir -p $out && bin=target/release

cargo build --release -p spam-psm -p tlp-bench \
  --bin spamctl --bin bench_exec --bin benchdiff

# Chaos runs: seed 42 (3 mid-cycle kills, each retried from scratch), the
# same on the chunked deques with stealing, then a second seed with more kills.
$bin/spamctl chaos dc --seed 42 --kills 3
$bin/spamctl chaos dc --seed 42 --kills 3 --exec real
# The calling thread is task process 0: at one worker no resident is leased
# and every attempt, killed or not, runs on it; at two it shares the pool.
$bin/spamctl chaos dc --seed 42 --kills 3 --exec real --workers 1
$bin/spamctl chaos dc --seed 42 --kills 3 --exec real --workers 2
$bin/spamctl chaos dc --seed 1337 --kills 5
# Each of those kills RTF, LCC, FA and MODEL in turn. Level 1's one-cycle
# tasks, and a non-default seed on another scene.
$bin/spamctl chaos dc --level 1 --seed 42
$bin/spamctl chaos moff --seed 7 --kills 4

# Pool unit tests, ten times over, 16 test threads.
for i in $(seq 1 10); do
  cargo test --release -q -p spam-psm --lib exec:: -- --test-threads 16
done
# Executor bench (bit-identical to sequential at every worker count).
$bin/bench_exec $out/BENCH_exec.json --reps 3
$bin/benchdiff crates/bench/baselines/BENCH_exec.json \
  $out/BENCH_exec.json --ignore wall --ignore reps
