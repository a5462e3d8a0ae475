#!/usr/bin/env bash
# Paired A/B of one benchmark workload: a base checkout against this
# working tree (choosing-metrics §8). A host-time claim in CHANGES.md is
# the table this prints, not a single run against the 25% bound.
#
#   scripts/bench_pairs.sh <base-checkout> <workload|all> [pairs=10] [seconds=8] [moves] [seed=101]
#
# `all` runs every workload BENCHMARK.json names, one table each: a claim
# on one workload needs the other four beside it.
#
# Builds each side's benchmark/ once into a target directory of its own
# under .bench_build/pairs (ignored by git; nothing under benchmark/ is
# written), then runs `--workload W --trace 0` once per side per pair,
# alternating which side goes first, with a fresh seed per pair shared by
# both sides: `seed`, `seed + 1`, … (pick ones the change was not
# developed on). A pair whose `correct`, `attempted`, `failed` or any
# `sim_mbs.*` differs between the sides is refused (exit 1): the two
# programs did not do the same work, so their host times do not compare.
# A change that is meant to move a simulated result names it in `moves`,
# a `|`-separated list (e.g. `sim_mbs.raidx`): those metrics may differ
# and are tabulated with the host ones; every other one still refuses.
# Prints each side's quartiles of host_rep_s, setup_s, host_peak_rss_mb
# and the `moves` metrics, and how many pairs the change won (lower wins
# a host metric, higher a simulated one; a tie counts for neither). Each
# `change` row ends with the §8 verdict: the gap between the medians
# (change - base, and as a share of base), the base side's interquartile
# range, and `resolved` when one side won at least nine tenths of all
# pairs and the gap exceeds that range (`resolved worse` when that side
# is the base) — otherwise `unresolved`, whatever the medians say.
#
# On a 2-core box one table is not a verdict: the same binaries and seeds
# have read `resolved worse` in one 10-pair table and `unresolved` in the
# next, from machine load alone. There a claim or a refusal rests on two
# back-to-back tables that agree; when they disagree, neither stands.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 6 ]; then
  echo "usage: scripts/bench_pairs.sh <base-checkout> <workload|all> [pairs=10] [seconds=8] [moves] [seed=101]" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$(cd "$1" && pwd)"
workloads="$2"
pairs="${3:-10}"
seconds="${4:-8}"
moves="${5:-}"
seed0="${6:-101}"
work="$root/.bench_build/pairs"
mkdir -p "$work"
if [ "$workloads" = all ]; then
  workloads="$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' "$root/BENCHMARK.json")"
fi

checkout_of() { if [ "$1" = base ]; then echo "$base"; else echo "$root"; fi; }

for side in base change; do
  echo "building $side: $(checkout_of "$side")/benchmark" >&2
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --quiet --offline \
    --manifest-path "$(checkout_of "$side")/benchmark/Cargo.toml"
done

# One run; prints the driver's JSON object (the benchmark's last line).
run() { # side seed
  (cd "$(checkout_of "$1")" && "$work/target-$1/release/benchmark" --out-dir "$work/out-$1" \
    --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
}
host='host_rep_s|setup_s|host_peak_rss_mb'
# The metrics allowed to differ between the sides, host ones first.
free="$host${moves:+|$moves}"
# Their values in a JSON object, in that order.
free_values() {
  for m in ${free//|/ }; do
    printf '%s ' "$(printf '%s\n' "$1" | sed -n "s/.*\"${m//./\\.}\": {\"value\": \([^,}]*\).*/\1/p")"
  done
}
# The object with those metrics blanked: everything that must be equal.
work_done() { printf '%s' "$1" | sed -E "s/\"(${free//./\\.})\": \{\"value\": [^,}]*/\"\1\": {/g"; }

for workload in $workloads; do
  rows="$work/rows-$workload.txt"
  : >"$rows"
  for pair in $(seq 1 "$pairs"); do
    seed=$((seed0 + pair - 1))
    if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
      json="$(run "$side" "$seed")"
      if [ "$side" = base ]; then json_base="$json"; else json_change="$json"; fi
      echo "$side $(free_values "$json")" >>"$rows"
    done
    if [ "$(work_done "$json_base")" != "$(work_done "$json_change")" ]; then
      echo "pair $pair (seed $seed) refused: the two sides did different work" >&2
      echo "  base:   $json_base" >&2
      echo "  change: $json_change" >&2
      exit 1
    fi
    echo "pair $pair/$pairs seed $seed ($order): ok" >&2
  done

  echo "$workload: $pairs pairs, --seconds $seconds, seeds $seed0..$((seed0 + pairs - 1)), work identical in every pair${moves:+ but for $moves}"
  awk -v names="$free" '
    function quartile(v, n, p,    h, lo) {
      h = (n - 1) * p; lo = int(h)
      return v[lo + 1] + (h - lo) * (v[(lo + 2 > n ? n : lo + 2)] - v[lo + 1])
    }
    { n[$1]++; for (m = 2; m <= NF; m++) val[$1, m - 1, n[$1]] = $m }
    END {
      metrics = split(names, name, "|")
      printf "%-18s %-7s %10s %10s %10s   %s\n", "metric", "side", "q1", "median", "q3", \
        "change wins, median gap, base IQR, verdict"
      for (m = 1; m <= metrics; m++) {
        wins = 0; ties = 0
        # Lower wins a host metric (the first three), higher a simulated one.
        sign = (m <= 3 ? 1 : -1)
        for (i = 1; i <= n["base"]; i++) {
          if (sign * val["change", m, i] < sign * val["base", m, i]) wins++
          else if (val["change", m, i] == val["base", m, i]) ties++
        }
        losses = n["base"] - wins - ties
        for (s = 1; s <= 2; s++) {
          side = (s == 1 ? "base" : "change")
          for (i = 1; i <= n[side]; i++) v[i] = val[side, m, i]
          # insertion sort: a handful of values
          for (i = 2; i <= n[side]; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
          }
          q1 = quartile(v, n[side], 0.25); q2 = quartile(v, n[side], 0.5); q3 = quartile(v, n[side], 0.75)
          if (s == 1) { base_median = q2; iqr = q3 - q1; note = "" }
          else {
            gap = q2 - base_median; size = (gap < 0 ? -gap : gap)
            verdict = "unresolved"
            if (size > iqr && 10 * wins >= 9 * n["base"]) verdict = "resolved"
            if (size > iqr && 10 * losses >= 9 * n["base"]) verdict = "resolved worse"
            note = sprintf("%d/%d%s  gap %+.4g (%+.1f%%)  IQR %.4g  %s", wins, n["base"], \
              ties ? " (" ties " ties)" : "", gap, (base_median ? 100 * gap / base_median : 0), iqr, verdict)
          }
          printf "%-18s %-7s %10.4g %10.4g %10.4g   %s\n", name[m], side, q1, q2, q3, note
        }
      }
    }' "$rows"
done
