#!/usr/bin/env bash
# CI job `lint`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

# The interpreter only counts: whoever watches an engine reads it from outside
# (`spam::watch`), so nothing under `crates/ops5` may name a telemetry type.
if grep -rn "tlp_obs" crates/ops5/src crates/ops5/tests; then
  echo "lint: crates/ops5 names tlp_obs; the engine has no observer (see spam::watch)" >&2
  exit 1
fi
