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

# One run: the value of $metric from the result line (the last of stdout).
measure() {
  local line
  line=$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1) || true
  case "$line" in
    *'"correct": true'*) ;;
    *)
      echo "bench-pairs: $1 --seed $2 did not report \"correct\": true" >&2
      exit 1
      ;;
  esac
  sed -n 's/.*"'"$metric"'": {"value": \([^,}]*\).*/\1/p' <<<"$line" | grep . || {
    echo "bench-pairs: $1 --seed $2 printed no $metric" >&2
    exit 1
  }
}

pairs=$(mktemp)
trap 'rm -f "$pairs"' EXIT
n=0
for seed in "$@"; do
  n=$((n + 1))
  if [ $((n % 2)) -eq 1 ]; then
    p=$(measure "$parent" "$seed")
    c=$(measure "$change" "$seed")
    first=parent
  else
    c=$(measure "$change" "$seed")
    p=$(measure "$parent" "$seed")
    first=change
  fi
  echo "$p $c" >>"$pairs"
  echo "pair $n seed $seed ($first first): parent $p  change $c"
done

# Quartiles by linear interpolation over the sorted values of one column.
quartiles() {
  cut -d' ' -f"$1" "$pairs" | sort -g | awk '
    { v[NR] = $1 }
    function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}
read -r p1 p2 p3 < <(quartiles 1)
read -r c1 c2 c3 < <(quartiles 2)
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
