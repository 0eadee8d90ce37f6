#!/usr/bin/env bash
# Compare the repository benchmark between a parent revision and HEAD
# with alternating runs.
#
#   scripts/ab_perfbench.sh <parent-rev> [workload] [pairs]
#
#   workload     pairs | napp | sweep_sharded_obs (default: pairs)
#   pairs        number of parent/HEAD run pairs (default: 10)
#
# Each revision is exported with `git archive` into a temporary
# directory of its own and built there under its own CARGO_TARGET_DIR,
# so neither side shares a build tree, a run directory or the caller's
# working copy (uncommitted changes are not measured). A discarded
# zero-length warm-up run builds each side before timing starts. The
# timed runs take perfbench/run.py's defaults for length and seed, so
# they match the benchmark's own runs. The runs alternate, and the
# side that goes first flips on every pair. The script stops at the
# first run, warm-up included, that does not report
# `correct: true, failed: 0`. At the end it prints, for each end-to-end
# metric, each side's median and quartiles, how many pairs HEAD won
# (ties count for neither side) and whether that supports a claimed
# gain: HEAD wins at least nine pairs in ten and the medians differ by
# more than the parent's interquartile range.
#
# The script only reads perfbench/ and BENCHMARK.json; it never edits
# them. Its checkouts and build trees are removed when it exits.
set -euo pipefail

usage() {
    sed -n '5,8p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] && [ $# -le 3 ] || usage
workload=${2:-pairs}
pairs=${3:-10}

case "$workload" in
  pairs | napp | sweep_sharded_obs) ;;
  *) usage ;;
esac
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
change_sha=$(git -C "$root" rev-parse --verify "HEAD^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
trap 'rm -rf "$work"' EXIT

# measure <side> <out-file> [run.py option...]: one benchmark run of
# <side>; stops the script unless it reports correct: true, failed: 0.
measure() {
    local side=$1 out=$2
    shift 2
    if ! (cd "$work/$side/tree" &&
        CARGO_TARGET_DIR="$work/$side/target" python3 perfbench/run.py \
            --workload "$workload" "$@") >"$out" 2>>"$work/$side/log"; then
        tail -n 20 "$work/$side/log" >&2
        echo "$side: perfbench/run.py failed" >&2
        exit 1
    fi
    python3 - "$side" "$out" <<'EOF'
import json
import sys

side, out = sys.argv[1], sys.argv[2]
lines = open(out).read().splitlines()
doc = json.loads(lines[-1]) if lines else {}
if doc.get("correct") is not True or doc.get("failed") != 0:
    sys.exit("%s: correct=%s failed=%s"
             % (side, doc.get("correct"), doc.get("failed")))
EOF
}

echo "parent $parent_sha"
echo "change $change_sha (HEAD)"
echo "workload $workload, $pairs pairs"
for side in parent change; do
    sha=$parent_sha
    [ "$side" = change ] && sha=$change_sha
    mkdir -p "$work/$side/tree"
    git -C "$root" archive "$sha" | tar -x -C "$work/$side/tree"
    echo "building $side"
    measure "$side" "$work/$side/warmup.out" --seconds 0
done

results="$work/results.tsv"
: >"$results"
for ((i = 1; i <= pairs; i++)); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        out="$work/$side/run-$i.out"
        measure "$side" "$out"
        printf '%s\t%s\t%s\n' "$i" "$side" "$(tail -n 1 "$out")" >>"$results"
    done
    echo "pair $i/$pairs done ($order)"
done

python3 - "$results" "$work/change/tree/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

rows = [line.rstrip("\n").split("\t", 2) for line in open(sys.argv[1])]
better = {m["name"]: m["better"]
          for m in json.load(open(sys.argv[2]))["end_to_end"]}

runs = {}
for pair, side, text in rows:
    runs.setdefault(int(pair), {})[side] = json.loads(text)["metrics"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print("%-12s %10s %10s %10s | %10s %10s %10s | %5s %7s  %s"
      % ("metric", "par q1", "par med", "par q3", "chg q1", "chg med",
         "chg q3", "wins", "delta", "gain claim"))
for name, direction in better.items():
    par = [r["parent"][name]["value"] for r in runs.values()]
    chg = [r["change"][name]["value"] for r in runs.values()]
    sign = -1.0 if direction == "lower" else 1.0
    wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) > 0)
    pq = quartiles(par)
    cq = quartiles(chg)
    delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    holds = (wins * 10 >= 9 * len(par) and
             sign * (cq[1] - pq[1]) > pq[2] - pq[0])
    print("%-12s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | %2d/%-2d %+6.1f%%  %s"
          % (name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2], wins,
             len(par), 100 * delta, "holds" if holds else "no"))
EOF
