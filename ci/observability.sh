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

# A scene under the live telemetry endpoint: one `spamctl top` frame, then
# /metrics + /healthz scraped and the exposition validated, scrape and file.
$bin/spamctl run dc --workers 4 --serve 127.0.0.1:9184 \
  --serve-linger-ms 30000 --metrics-snapshot $out/expo.txt --quiet &
served=$! && sleep 5
$bin/spamctl top --url http://127.0.0.1:9184 --iters 1
curl -sf http://127.0.0.1:9184/metrics -o $out/scraped.txt
curl -sf http://127.0.0.1:9184/healthz
$bin/expocheck $out/scraped.txt
$bin/expocheck $out/expo.txt
kill $served && wait $served || true

# A chaotic scene traced + served: follow the retained trace listed at
# /traces to its span tree, then validate the exposition and the trace file.
$bin/spamctl run dc --workers 4 --retries 1 \
  --task-panic-rate 0.08 --fault-seed 42 \
  --serve 127.0.0.1:9185 --serve-linger-ms 30000 \
  --traces-out $out/traces.json --quiet &
served=$! && sleep 5
curl -sf http://127.0.0.1:9185/metrics -o $out/scraped.om
curl -sf http://127.0.0.1:9185/traces -o $out/listing.json
# retained[0].trace_id: the listing's first `trace_id` field.
TID=$(grep -m1 -o '"trace_id":"[0-9a-f]*"' $out/listing.json | cut -d'"' -f4)
test -n "$TID"
curl -sf "http://127.0.0.1:9185/trace/$TID" -o $out/one_trace.json
$bin/tracecheck --spans $out/one_trace.json
$bin/spamctl trace "$TID" --url http://127.0.0.1:9185
kill $served && wait $served || true
$bin/expocheck $out/scraped.om
$bin/tracecheck --spans $out/traces.json

# Every observer's overhead against `off` (budget 2%; a FAIL needs a resolved
# difference), and its deterministic sections against the committed baseline.
$bin/bench_overhead $out/BENCH_overhead.json --check-overhead 2
$bin/benchdiff crates/bench/baselines/BENCH_overhead.json \
  $out/BENCH_overhead.json --threshold 5 --ignore wall
