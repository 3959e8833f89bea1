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

# The supervised executor is generic: what a worker keeps from task to task is
# its caller's `S`, so `core::exec` names nothing under `spam::`.
if grep -n "spam::" crates/core/src/exec.rs; then
  echo "lint: crates/core/src/exec.rs names spam::; a worker's state is the caller's S" >&2
  exit 1
fi

# A task process owns its engine as a value (`spam::task::TaskProcess`): a
# thread-local would outlive the task that panicked in it.
if grep -rn "thread_local!" crates/spam/src; then
  echo "lint: crates/spam/src has a thread_local!; task state lives in a TaskProcess" >&2
  exit 1
fi

# One drive loop lives in `spam::watch` (`Watch::drive`): nothing under
# `crates/core/src` advances an engine cycle by cycle itself, test modules
# aside.
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
        !test && /\.step\(\)/ { print FILENAME ":" FNR ":" $0; hit = 1 }
        END { exit !hit }' $(find crates/core/src -name '*.rs'); then
  echo "lint: crates/core/src calls .step(); one drive loop lives in spam::watch" >&2
  exit 1
fi

# One phase entry: `tlp::run_phase` is the only caller of the supervised
# executor under `crates/core/src` (`exec.rs` defines it), test modules aside.
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
        !test && /(^|[^_[:alnum:]])execute\(/ { print FILENAME ":" FNR ":" $0; hit = 1 }
        END { exit !hit }' $(find crates/core/src -name '*.rs' ! -name tlp.rs ! -name exec.rs); then
  echo "lint: crates/core/src calls execute( outside tlp::run_phase, the one phase entry" >&2
  exit 1
fi
