#!/usr/bin/env bash
# CI job `lint`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Every intra-doc link resolves and points at something public.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The interpreter only counts: whoever watches an engine reads it from outside
# (`spam::watch`), so nothing under `crates/ops5` may name a telemetry type.
if grep -rn "tlp_obs" crates/ops5/src crates/ops5/tests; then
  echo "lint: crates/ops5 names tlp_obs; the engine has no observer (see spam::watch)" >&2
  exit 1
fi

# The supervised executor is generic: it keeps nothing of a task's (a task's
# engine is its thread's), so `core::exec` names nothing under `spam::`.
if grep -n "spam::" crates/core/src/exec.rs; then
  echo "lint: crates/core/src/exec.rs names spam::; the executor keeps no task state" >&2
  exit 1
fi

# A task process owns its engine as a value (`spam::task::TaskProcess`), and
# each thread has one: the single thread-local under `crates/spam/src` is
# `task.rs`'s, which lends the process out for a call, so a task that
# panics takes it with it. Any other would outlive such a task.
if [ "$(grep -rn "thread_local!" crates/spam/src | grep -vc "^crates/spam/src/task.rs:")" != 0 ] ||
  [ "$(grep -c "thread_local!" crates/spam/src/task.rs)" != 1 ]; then
  grep -rn "thread_local!" crates/spam/src >&2
  echo "lint: crates/spam/src may have one thread_local!, task.rs's TaskProcess" >&2
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

# A run's metrics are one JSON file (`--metrics-out`), and a task's watch
# publishes its engine's work once, when the run ends: no second format, no
# mid-run mirror.
if git grep -n "openmetrics\|expocheck\|metrics-snapshot\|LIVE_MIRROR_EVERY" -- \
  crates README.md EXPERIMENTS.md DESIGN.md .claude .github; then
  echo "lint: the OpenMetrics exposition and the live mirror are gone; metrics are --metrics-out JSON" >&2
  exit 1
fi

# The registry keeps whole-run totals and histograms: no sliding windows, no
# logical epochs (a run's metrics file once reported the last 8 tasks'
# latencies as the run's).
if git grep -n "advance_epoch\|DEFAULT_WINDOW\|windowed" -- \
  crates README.md EXPERIMENTS.md DESIGN.md; then
  echo "lint: the registry's windows and epochs are gone; a series covers the whole run" >&2
  exit 1
fi

# A run writes one trace: a scene's trace is the Chrome trace's events under
# its id, so the span store, its JSON file and its checker stay gone (the
# smoke test names the flag only to see it rejected).
if git grep -n -E "traces-out|tracecheck --spans|RetainedTrace|SpanSink|TRACE_WINDOW_EVERY|validate_span_tree" -- \
  crates README.md EXPERIMENTS.md DESIGN.md .claude ci \
  ':!ci/lint.sh' ':!crates/core/tests/spamctl_smoke.rs'; then
  echo "lint: scene traces are Chrome trace events under a trace id; the span store and --traces-out are gone" >&2
  exit 1
fi
