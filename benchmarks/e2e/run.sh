#!/usr/bin/env bash
# The one command: builds the benchmark (release, offline) and runs it.
# With no arguments every workload runs in a process of its own; see
# README.md for --workload, --seed, --seconds, --trace, --quick, --selfcheck.
# cargo reports the build on stderr, so the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
