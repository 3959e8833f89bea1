#!/usr/bin/env bash
# Alternating pairs of the wall-clock ledger (benchmarks/e2e), parent commit
# against the working tree:
#
#   bash ci/pairs.sh PARENT [--pairs N] [--seconds S] [--seed-base B] [--workload W]...
#
# Exports PARENT's committed files (git archive), builds each side's
# benchmarks/e2e into a target directory of its own, then runs N pairs per
# workload through each side's own run.sh (`--trace 0`, pair i on seed B+i,
# which side goes first alternating) and prints, per workload and end-to-end
# metric of BENCHMARK.json, each side's median [q1–q3], the change in median,
# the pairs the change won and a verdict:
#
#   gain            the change won at least 9/10 of the pairs (ties count for
#                   neither) and its median is better than the parent's by
#                   more than the parent's interquartile range;
#   WORSE           its median is worse by more than the metric's bound;
#   unresolved      the parent's own spread (IQR / median) exceeds the bound;
#   within bound    anything else.
#
# Defaults: 10 pairs, the run_seconds of BENCHMARK.json, seed base 1000 (pick
# one the change was not written against), every workload. Nothing under
# benchmarks/e2e is written to but its out/ directory. PAIRS_DIR (default
# ci-out/pairs) holds the export, both target directories and each run's
# result line; do not build or test anything else while it runs.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

usage="usage: ci/pairs.sh PARENT [--pairs N] [--seconds S] [--seed-base B] [--workload W]..."
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
parent=$(git rev-parse --verify "$1^{commit}")
shift
pairs=10
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)
seed_base=1000
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed-base) seed_base=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)
fi

dir=${PAIRS_DIR:-ci-out/pairs}
rm -rf "$dir/parent" "$dir/runs"
mkdir -p "$dir/parent" "$dir/runs"
dir=$(cd "$dir" && pwd)
git archive "$parent" | tar -x -C "$dir/parent"
sides=(parent change)
declare -A root=([parent]="$dir/parent" [change]="$PWD")

run() { # side workload seed
  CARGO_TARGET_DIR="$dir/target-$1" bash "${root[$1]}/benchmarks/e2e/run.sh" \
    --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1
}

echo "pairs: parent $(git rev-parse --short "$parent") vs the working tree," \
  "$pairs pairs x ${seconds} s, seeds $seed_base..$((seed_base + pairs - 1))" >&2
for side in "${sides[@]}"; do
  echo "building $side ..." >&2
  CARGO_TARGET_DIR="$dir/target-$side" cargo build --release --offline --quiet \
    --manifest-path "${root[$side]}/benchmarks/e2e/Cargo.toml"
done
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed_base + i))
    order=("${sides[@]}")
    [ $((i % 2)) -eq 1 ] && order=(change parent)
    for side in "${order[@]}"; do
      echo "$w pair $((i + 1))/$pairs seed $seed: $side" >&2
      run "$side" "$w" "$seed" > "$dir/runs/$w.$i.$side.json" || true
    done
  done
done

# One line per run: workload pair side failed metric=value ...
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    for side in "${sides[@]}"; do
      f="$dir/runs/$w.$i.$side.json"
      line=$(cat "$f")
      failed=$(printf '%s' "$line" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p')
      metrics=$(printf '%s' "$line" |
        grep -o '"[a-z_0-9.]*": *{"value": *[-0-9.eE+]*' |
        sed 's/"\([^"]*\)": *{"value": *\(.*\)/\1=\2/' | tr '\n' ' ')
      echo "$w $i $side ${failed:-missing} $metrics"
    done
  done
done > "$dir/runs.txt"

# BENCHMARK.json's end-to-end metrics: name better bound, one per line.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' BENCHMARK.json > "$dir/metrics.txt"

awk -v n="$pairs" '
  function sorted(src, k, out,   i, j, v) {
    for (i = 1; i <= k; i++) out[i] = src[i]
    for (i = 2; i <= k; i++) {
      v = out[i]
      for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]
      out[j + 1] = v
    }
  }
  function q(a, k, p,   x, lo) {
    x = 1 + p * (k - 1); lo = int(x)
    return lo >= k ? a[k] : a[lo] + (x - lo) * (a[lo + 1] - a[lo])
  }
  FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
  {
    w = $1; if (!(w in seen)) { seen[w] = 1; wl[++nw] = w }
    if ($4 != "0") bad[w] = bad[w] " " $3 "#" ($2 + 1) "(" $4 ")"
    for (f = 5; f <= NF; f++) {
      split($f, kv, "=")
      val[w, kv[1], $3, $2 + 1] = kv[2]
    }
  }
  END {
    print "| workload | metric | parent median [q1–q3] | change median [q1–q3] | Δ median | change won | verdict |"
    print "|---|---|---|---|---|---|---|"
    for (a = 1; a <= nw; a++) for (b = 1; b <= nm; b++) {
      w = wl[a]; m = order[b]; k = 0; won = 0
      for (i = 1; i <= n; i++) {
        if (!((w, m, "parent", i) in val) || !((w, m, "change", i) in val)) continue
        k++; p[k] = val[w, m, "parent", i] + 0; c[k] = val[w, m, "change", i] + 0
        if (better[m] == "lower" ? c[k] < p[k] : c[k] > p[k]) won++
      }
      if (k == 0) { printf "| `%s` | `%s` | – | – | – | – | no runs |\n", w, m; continue }
      sorted(p, k, ps); sorted(c, k, cs)
      pm = q(ps, k, 0.5); cm = q(cs, k, 0.5); iqr = q(ps, k, 0.75) - q(ps, k, 0.25)
      d = pm == 0 ? 0 : (cm - pm) / pm
      gain = better[m] == "lower" ? pm - cm : cm - pm
      if (won >= 0.9 * k && gain > iqr) verdict = "gain"
      else if (-gain > bound[m] * (pm < 0 ? -pm : pm)) verdict = "WORSE than bound"
      else if (pm != 0 && iqr / (pm < 0 ? -pm : pm) > bound[m]) verdict = "unresolved"
      else verdict = "within bound"
      printf "| `%s` | `%s` | %.4g [%.4g–%.4g] | %.4g [%.4g–%.4g] | %+.1f%% | %d/%d | %s |\n",
        w, m, pm, q(ps, k, 0.25), q(ps, k, 0.75), cm, q(cs, k, 0.25), q(cs, k, 0.75),
        100 * d, won, k, verdict
    }
    for (a = 1; a <= nw; a++) if (wl[a] in bad) printf "failed runs in %s:%s\n", wl[a], bad[wl[a]]
  }' "$dir/metrics.txt" "$dir/runs.txt" | tee "$dir/table.md"
