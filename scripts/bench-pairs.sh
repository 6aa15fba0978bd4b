#!/usr/bin/env bash
# Alternating parent / change pairs of one benchmark workload, judged by
# the rule a claimed gain has to meet (choosing-metrics §8).
#
#   scripts/bench-pairs.sh <parent-binary> <change-binary> <workload> \
#       <metric> <seconds> <seed>...
#
# The binaries are prebuilt `exflow-perfbench`es, one per commit, e.g.
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path <parent checkout>/benchmark/Cargo.toml
# Each seed is one pair; odd pairs run the parent first, even pairs the
# change. Prints every pair, each side's median and quartiles, how many
# pairs the change won (ties count for neither side) and PASS when it won
# at least nine tenths of the pairs run with the medians further apart
# than the parent's own inter-quartile distance, FAIL otherwise. Which
# way is better comes from the metric's entry in BENCHMARK.json.
#
# Every run's whole result line is kept, so after the verdict the same
# runs give each side's median of every other end-to-end metric of
# BENCHMARK.json (with how many pairs read the same value on both sides)
# and each side's failed / attempted operation totals: the metrics a
# change must not move, from the one invocation.
#
# Exit: 0 the pairs ran (PASS or FAIL), 1 a run printed "correct": false
# or no value for the metric, 2 usage error.
set -euo pipefail

if [ "$#" -lt 6 ]; then
  sed -n '2,7p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 metric=$4 seconds=$5
shift 5
spec="$(dirname "$0")/../BENCHMARK.json"
better=$(sed -n 's/.*"name": "'"$metric"'".*"better": "\([a-z]*\)".*/\1/p' "$spec")
if [ -z "$better" ]; then
  echo "bench-pairs: BENCHMARK.json declares no metric '$metric'" >&2
  exit 2
fi

runs=$(mktemp) pairs=$(mktemp)
trap 'rm -f "$runs" "$pairs"' EXIT

# One run of binary $2 at seed $3: its result line (the last of stdout),
# kept in $runs as "<side> <line>".
run() {
  local line
  line=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || true
  case "$line" in
    *'"correct": true'*) ;;
    *)
      echo "bench-pairs: $2 --seed $3 did not report \"correct\": true" >&2
      exit 1
      ;;
  esac
  echo "$1 $line" >>"$runs"
}

# The value of metric $2 in each of side $1's runs so far, in run order;
# "-" for a run that printed none.
values() {
  awk -v side="$1" '$1 == side' "$runs" \
    | sed -n 's/.*"'"$2"'": {"value": \([^,}]*\).*/\1/p; t; s/.*/-/p'
}

# Quartiles, by linear interpolation, of the numbers on stdin ("-" skipped).
quartiles() {
  { grep -v '^-$' || true; } | sort -g | awk '
    { v[NR] = $1 }
    function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { if (NR) printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75); else print "- - -" }'
}

n=0
for seed in "$@"; do
  n=$((n + 1))
  if [ $((n % 2)) -eq 1 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
    first=parent
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
    first=change
  fi
  p=$(values parent "$metric" | tail -n 1) c=$(values change "$metric" | tail -n 1)
  if [ "$p" = - ] || [ "$c" = - ]; then
    echo "bench-pairs: a run at --seed $seed printed no $metric" >&2
    exit 1
  fi
  echo "$p $c" >>"$pairs"
  echo "pair $n seed $seed ($first first): parent $p  change $c"
done

read -r p1 p2 p3 < <(cut -d' ' -f1 "$pairs" | quartiles)
read -r c1 c2 c3 < <(cut -d' ' -f2 "$pairs" | quartiles)
echo "$workload $metric (better: $better), $n pairs at --seconds $seconds"
echo "parent  median $p2  quartiles $p1 .. $p3"
echo "change  median $c2  quartiles $c1 .. $c3"
awk -v better="$better" -v pm="$p2" -v cm="$c2" -v iqr="$(awk "BEGIN { print $p3 - $p1 }")" '
  { if ($1 != $2) { if (($2 > $1) == (better == "higher")) wins++; else losses++ } }
  END {
    gap = better == "higher" ? cm - pm : pm - cm
    printf "change won %d, lost %d of %d pairs; medians %.6g apart (x%.3f), parent inter-quartile distance %.6g\n",
      wins, losses, NR, gap, cm / pm, iqr
    print (wins * 10 >= NR * 9 && gap > iqr ? "PASS" : "FAIL")
  }' "$pairs"

echo "the same runs, every other end-to-end metric: parent median -> change median (pairs whose two runs read the same value)"
sed -n '/"end_to_end"/,/\]/s/.*"name": "\([^"]*\)".*/\1/p' "$spec" | while read -r m; do
  [ "$m" = "$metric" ] && continue
  pm=$(values parent "$m" | quartiles | cut -d' ' -f2)
  cm=$(values change "$m" | quartiles | cut -d' ' -f2)
  same=$(paste -d' ' <(values parent "$m") <(values change "$m") | awk '$1 == $2 && $1 != "-"' | wc -l)
  printf '  %-20s %12s -> %-12s (%d / %d)\n' "$m" "$pm" "$cm" "$same" "$n"
done
for side in parent change; do
  awk -v side="$side" '$1 == side' "$runs" \
    | sed -n 's/.*"attempted": \([0-9]*\), "failed": \([0-9]*\).*/\1 \2/p' \
    | awk -v side="$side" '{ a += $1; f += $2 } END { printf "  %s: %d failed of %d operations attempted\n", side, f, a }'
done
