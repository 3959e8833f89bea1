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
# arithmetic): a warm firing allocates nothing - the Rete writes an
# instantiation's lists once into the engine's one event batch, the conflict
# set copies them into a slot's own buffers, a made WME takes a departed
# one's field box - so alloc_budget pins the cycle's allocations exactly and
# alloc_pins the LCC phase's (the benchmark's seq arm) at Levels 4, 3 and 1;
# the conflict set's ranking, with each slot's primary tag carried inline in
# the rank list, is held against a linear scan under compare across LEX / MEA
# switches (ranking_agrees_with_a_linear_scan_under_compare); the exact LCC
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
# An alpha memory's hash index is built by the first probe and unbuilt when
# the memory empties: work_pins pins the index insertions of the LCC phase;
# properties holds every probe to the memory it indexes after every move,
# built before the move or during it; the --lib test holds the build /
# unbuild cycle.
# A right-index entry carries a fingerprint of its token's other equality
# keys, and a candidate skipped on its fingerprint is charged as the
# evaluation it replaces: every event, work total and pinned count is
# unchanged. work_pins pins the skips themselves (fingerprint_skips); the
# --lib test holds a skipping network against one that evaluates every
# candidate, unit by unit and chunk by chunk, each skip counted once;
# properties holds joins on two and three equality keys - over equal
# values of different representation and unequal values of one key - to
# the naive re-match after every move, through mark, rollback and reset,
# and a twin fed the other representations to the same work and skips.
cargo test --release -p ops5 --test alloc_budget
cargo test --release -p spam --test alloc_pins
cargo test --release -p ops5 --lib -- conflict::tests::ranking_agrees_with_a_linear_scan_under_compare
cargo test --release -p spam --test work_pins --test sharing
cargo test --release -p ops5 --test properties --test mark
cargo test --release -p ops5 --test properties -- alpha_index_probes_equal_the_memory_after_every_move
cargo test --release -p spam --test reuse
cargo test --release -p ops5 --lib -- \
  dispatch_agrees_with_a_linear_walk hash_key_has_no_false_negatives \
  a_null_right_activation_is_charged_as_the_visit_it_replaces \
  a_population_an_earlier_successor_filled_is_paired_against \
  slot_index_is_built_by_a_probe_and_unbuilt_when_its_memory_empties \
  a_fingerprint_skip_is_charged_as_the_evaluation_it_replaces \
  two_integers_compare_exactly_above_two_to_the_53
cargo test --release -p ops5 --test properties -- \
  fingerprinted_joins_equal_the_naive_match_after_every_move
cargo test --release -p spam --test work_pins -- alpha_index_insertions_are_counted
# The conflict set finds an instantiation by the name its matcher gave it,
# not by hashing (production, wmes). The contract (ops5::matcher): an insert
# carries a name no other live instantiation from that matcher holds for its
# production; a retraction carries its insert's name and still its key; a
# name may be reused once its retraction is written, later in the same batch
# or in a later one; a retraction of a name the set does not hold (one
# `select` took) is a no-op; reset and rollback free every name. The Rete
# names by terminal token slot, the naive matcher and the threaded pool take
# names from a SlotCursor. properties folds every drain of the Rete (shared
# and unshared), the naive matcher and the per-change feed into name -> key
# through WM changes, firings, reset, mark and rollback; the --lib proptest
# holds the set, by name, against a linear scan under compare, retractions
# of selected names included; the paraops5 cases retract, after a respawn
# and after a degrade, what a dead worker delivered.
cargo test --release -p ops5 --test properties -- every_matcher_keeps_the_naming_contract
cargo test --release -p ops5 --lib -- \
  conflict::tests::ranking_agrees_with_a_linear_scan_under_compare \
  conflict::tests::a_retraction_of_a_fired_name_is_a_no_op
cargo test --release -p paraops5 --lib -- \
  a_retraction_after_a_respawn_names_what_the_dead_worker_delivered \
  a_retraction_after_a_degrade_names_what_the_dead_worker_delivered
# Speedup doctor (DC Level 2, match-fraction band gate).
$bin/spamctl profile dc --level 2 --check-band 0.30:0.50 --json $out/profile.json
