#!/usr/bin/env bash
# CI job `test`: the workspace's tests, and benchmarks/e2e — a package of its
# own (not a workspace member) — with a two-round smoke run of every workload,
# each round checked bit for bit against the sequential oracle.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

cargo build --release --workspace
cargo test -q --workspace
cargo test --manifest-path benchmarks/e2e/Cargo.toml --offline
bash benchmarks/e2e/run.sh --quick
