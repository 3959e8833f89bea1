#!/usr/bin/env bash
# CI job `observability`: every artefact the observers write goes through the
# checker that belongs to it, then the overhead harness. Artefacts: ci-out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
out=ci-out && mkdir -p $out && bin=target/release

cargo build --release -p spam-psm -p tlp-obs -p tlp-bench \
  --bin spamctl --bin tracecheck --bin expocheck --bin bench_overhead --bin benchdiff

# Flight-recorder trace (small scene), coverage >= 99%: central queue, then
# measured on the real work-stealing pool.
$bin/spamctl run dc --workers 4 --obs full \
  --trace-out $out/trace.json --metrics-out $out/metrics.json --quiet
$bin/tracecheck $out/trace.json --min-coverage 0.99
$bin/spamctl run dc --exec real --workers 4 --obs full \
  --trace-out $out/exec_trace.json --quiet
$bin/tracecheck $out/exec_trace.json --min-coverage 0.99

# A scene's final metrics as OpenMetrics text, through the exposition
# validator.
$bin/spamctl run dc --workers 4 --metrics-snapshot $out/expo.txt --quiet
$bin/expocheck $out/expo.txt

# A chaotic scene traced to a file: the span trees checked, then the first
# retained trace (traces[0].trace_id) followed to its span tree.
$bin/spamctl run dc --workers 4 --retries 1 \
  --task-panic-rate 0.08 --fault-seed 42 \
  --traces-out $out/traces.json --quiet
$bin/tracecheck --spans $out/traces.json
TID=$(grep -m1 -o '"trace_id":"[0-9a-f]*"' $out/traces.json | cut -d'"' -f4)
test -n "$TID"
$bin/spamctl trace "$TID" --from $out/traces.json

# Every observer's overhead against `off` (budget 2%; a FAIL needs a resolved
# difference), and its deterministic sections against the committed baseline.
$bin/bench_overhead $out/BENCH_overhead.json --check-overhead 2
$bin/benchdiff crates/bench/baselines/BENCH_overhead.json \
  $out/BENCH_overhead.json --threshold 5 --ignore wall
