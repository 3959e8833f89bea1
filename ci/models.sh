#!/usr/bin/env bash
# CI job `models`: the two-machine SVM accountant and the what-if profiler
# against their committed baselines. Artefacts: ci-out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
out=ci-out && mkdir -p $out && bin=target/release

cargo build --release -p spam-psm -p tlp-bench \
  --bin spamctl --bin tracecheck --bin bench_whatif --bin benchdiff

# Overhead accountant (SF Level 3): effective processors lost in [1, 2]; the
# stitched trace covers >= 99% with no causal inversions.
$bin/spamctl svm-report --check-loss 1.0:2.0 \
  --json $out/BENCH_svm.json --trace-out $out/svm_trace.json
$bin/tracecheck $out/svm_trace.json --min-coverage 0.99
$bin/benchdiff crates/bench/baselines/BENCH_svm.json \
  $out/BENCH_svm.json --threshold 5

# What-if bench (predicted vs measured Rete win within +/-15%).
$bin/bench_whatif $out/BENCH_whatif.json --check-tolerance 15
$bin/benchdiff crates/bench/baselines/BENCH_whatif.json \
  $out/BENCH_whatif.json --threshold 5 --ignore wall_ms
# Ranked what-if report (unshared trace, single-target check).
$bin/spamctl whatif dc --level 4 --unshared --json $out/whatif_report.json
$bin/spamctl whatif dc --level 4 --unshared --target match --scale 71 \
  --json $out/whatif_match.json
