#!/usr/bin/env bash
# CI job `observability`: every artefact the observers write goes through the
# checker that belongs to it, then the overhead harness. Artefacts: ci-out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
out=ci-out && mkdir -p $out && bin=target/release

cargo build --release -p spam-psm -p tlp-bench \
  --bin spamctl --bin tracecheck --bin bench_overhead --bin benchdiff

# Flight-recorder trace (small scene), coverage >= 99%: central queue, then
# measured on the real work-stealing pool.
$bin/spamctl run dc --workers 4 --obs full \
  --trace-out $out/trace.json --metrics-out $out/metrics.json --quiet
$bin/tracecheck $out/trace.json --min-coverage 0.99
$bin/spamctl run dc --exec real --workers 4 --obs full \
  --trace-out $out/exec_trace.json --quiet
$bin/tracecheck $out/exec_trace.json --min-coverage 0.99

# A chaotic scene traced to a file: the trace checked, then the scene's id
# (the first "trace_id" argument in it) followed to its attempts.
$bin/spamctl run dc --workers 4 --retries 1 \
  --task-panic-rate 0.08 --fault-seed 42 \
  --trace-out $out/chaos_trace.json --quiet
$bin/tracecheck $out/chaos_trace.json
TID=$(awk -F'"trace_id":"' 'NF > 1 { split($2, id, "\""); print id[1]; exit }' \
  $out/chaos_trace.json)
test -n "$TID"
$bin/spamctl trace "$TID" --from $out/chaos_trace.json

# Every observer's overhead against `off` (budget 2%; a FAIL needs a resolved
# difference), and its deterministic sections against the committed baseline,
# exactly: they are counts of the same run, not timings.
$bin/bench_overhead $out/BENCH_overhead.json --check-overhead 2
$bin/benchdiff crates/bench/baselines/BENCH_overhead.json \
  $out/BENCH_overhead.json --threshold 0 --ignore wall
