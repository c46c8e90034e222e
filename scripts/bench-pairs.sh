#!/usr/bin/env bash
# Alternated parent/change pairs of the benchmark, summarized the way a
# performance change reports them.
#
#   scripts/bench-pairs.sh WORKLOAD PARENT_REF PAIRS FIRST_SEED
#
# PARENT_REF is exported (git archive) into a temporary directory,
# removed on exit. Pair i (seed FIRST_SEED+i) then runs
#   bash benchmark/run.sh --workload WORKLOAD --seed S --seconds 15 --trace 0
# on the parent and on this checkout (the change), the parent first on
# even pairs and the change first on odd ones. Each run's last
# output line is kept under $TMPDIR; the table printed at the end has, per
# end-to-end metric of BENCHMARK.json: both medians, both interquartile
# ranges (Python's statistics.quantiles, n=4), the metric's bound times
# the parent median, in how many pairs the change was better, and a
# verdict, decided in this order:
#   WORSE       the change's median is worse than the parent's by more
#               than the bound;
#   unresolved  the parent's IQR exceeds the bound: the runs spread too
#               widely to tell;
#   gain        the change won at least 9 in 10 pairs and the medians
#               differ by more than the parent's IQR;
#   within      otherwise.
# Then one line per run: seed, side, correct, failed and every metric's
# value.
set -euo pipefail
if [ $# -ne 4 ]; then
    echo "usage: $0 WORKLOAD PARENT_REF PAIRS FIRST_SEED" >&2
    exit 2
fi
workload=$1 parent_ref=$2 pairs=$3 first_seed=$4
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
parent="$tmp/parent"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent"
git -C "$change" archive "$parent_ref" | tar -x -C "$parent"

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    order="parent change"
    [ $((i % 2)) -eq 1 ] && order="change parent"
    for side in $order; do
        dir=$parent
        [ "$side" = change ] && dir=$change
        echo "pair $((i + 1))/$pairs seed $seed: $side" >&2
        # A failed run still prints its result line; keep going.
        (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
            --seconds 15 --trace 0 2>/dev/null | tail -n 1 >"$tmp/$side.$seed.json") || true
    done
done

python3 - "$change/BENCHMARK.json" "$tmp" "$pairs" "$first_seed" <<'EOF'
import json, statistics, sys

spec, tmp, pairs, first = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
seeds = range(first, first + pairs)

def load(side, seed):
    try:
        with open(f"{tmp}/{side}.{seed}.json") as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None

runs = {(side, s): load(side, s) for side in ("parent", "change") for s in seeds}

def values(side, name):
    return [r["metrics"][name]["value"] if r else None for r in (runs[side, s] for s in seeds)]

def median_iqr(xs):
    xs = [x for x in xs if x is not None]
    if not xs:
        return float("nan"), float("nan")
    if len(xs) < 2:
        return xs[0], 0.0
    q = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q[2] - q[0]

def verdict(pm, pi, cm, bound, wins, lower):
    if pm != pm or cm != cm:  # a side without results
        return "no result"
    worse = cm - pm if lower else pm - cm
    if worse > bound:
        return "WORSE"
    if pi > bound:
        return "unresolved"
    if 10 * wins >= 9 * pairs and -worse > pi:
        return "gain"
    return "within"

print(f"{'metric':<22} {'parent':>12} {'IQR':>10} {'change':>12} {'IQR':>10} {'bound':>10} {'wins':>7}  verdict")
for m in json.load(open(spec))["end_to_end"]:
    p, c = values("parent", m["name"]), values("change", m["name"])
    pm, pi = median_iqr(p)
    cm, ci = median_iqr(c)
    lower = m["better"] == "lower"
    wins = sum(1 for a, b in zip(p, c) if a is not None and b is not None and (b < a if lower else b > a))
    bound = m["bound"] * pm
    print(f"{m['name']:<22} {pm:>12.6g} {pi:>10.4g} {cm:>12.6g} {ci:>10.4g} {bound:>10.4g} {wins:>3}/{pairs}  {verdict(pm, pi, cm, bound, wins, lower)}")
print()
for s in seeds:
    for side in ("parent", "change"):
        r = runs[side, s]
        state = "no result"
        if r:
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items()))
            state = f"correct={str(r['correct']).lower()} failed={r['failed']} {values}"
        print(f"seed {s} {side:<6} {state}")
EOF
