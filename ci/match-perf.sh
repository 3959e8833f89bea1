#!/usr/bin/env bash
# CI job `match-perf`: the match path may change how fast the engine goes,
# never what it does. Artefacts: ci-out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
out=ci-out && mkdir -p $out && bin=target/release

cargo build --release -p spam-psm -p tlp-bench --bin spamctl --bin bench_rete --bin benchdiff

# Rete bench (shared vs unshared, LCC Level 4 DC, reduction >= 25%).
$bin/bench_rete $out/BENCH_rete.json --check-reduction 25
$bin/benchdiff crates/bench/baselines/BENCH_rete.json \
  $out/BENCH_rete.json --threshold 5 \
  --ignore shared.wall_ms --ignore unshared.wall_ms
# As the benchmark builds them (release: no debug assertions, wrapping
# arithmetic): the allocation budget of the recognize-act cycle, the exact LCC
# work totals of the benchmark inputs (netted instantiations included), the
# once-per-firing conflict feed vs the per-change one and the Rete drained
# every 1..8 changes vs a full re-match, rollback-to-mark vs reset + replay
# of the base (engine by engine, then task process by task process against a
# fresh engine per task), alpha dispatch vs a linear walk and hash_key vs
# ops_eq; and the one network per program: an engine's own allocation budget
# (alloc_budget), engines on one shared network vs one each (properties), a
# program moved to the other config runs on that network (sharing).
# Null right activations are charged as the visits they replace: work_pins
# holds Σ match_chunks per level, the unprofiled LCC phase (the benchmark's
# seq arm) equal to the profiled one in work and chunks, RTF / FA / MODEL
# work and chunks, and the null count itself; properties holds a profiled
# and an unprofiled engine to the same work, NetStats and cycle log after
# every move, through reset / mark / rollback / restore; the --lib tests
# hold one null activation against the visit, count by count, and a
# population an earlier successor filled mid-walk as paired, not null.
cargo test --release -p ops5 --test alloc_budget
cargo test --release -p spam --test work_pins --test sharing
cargo test --release -p ops5 --test properties --test mark
cargo test --release -p spam --test reuse
cargo test --release -p ops5 --lib -- \
  dispatch_agrees_with_a_linear_walk hash_key_has_no_false_negatives \
  a_null_right_activation_is_charged_as_the_visit_it_replaces \
  a_population_an_earlier_successor_filled_is_paired_against
# Speedup doctor (DC Level 2, match-fraction band gate).
$bin/spamctl profile dc --level 2 --check-band 0.30:0.50 --json $out/profile.json
