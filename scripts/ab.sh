#!/usr/bin/env bash
# ab.sh — compare the benchmark of a base commit with HEAD's, in
# alternating pairs of runs. It builds BASE and HEAD in two git
# worktrees under a temporary directory, then, for every workload that
# BENCHMARK.json declares, runs
#
#   bash perfbench/run.sh --workload W --seconds S --trace 0
#
# PAIRS times in each tree (S is BENCHMARK.json's run_seconds). The tree
# that runs first alternates from pair to pair, so a drift of the host
# weighs on both sides alike. Each run's last stdout line is its result.
#
# For each workload and each end-to-end metric of BENCHMARK.json it
# prints every run of both sides, both medians, the base's interquartile
# range, and in how many pairs HEAD was better. A metric is marked
# "worse" when HEAD's median is worse than the base's by more than the
# metric's bound, and "unresolved" when the base's IQR alone is wider
# than the bound (the runs spread too widely to tell) unless every HEAD
# run is better than every base run ("ok (all runs better)"). The
# failed-op counts of every run close each workload's table. The script
# only reports: it writes nothing in the checkout and removes its
# worktrees.
#
#   scripts/ab.sh BASE [PAIRS]     # PAIRS defaults to 5
#
# Run it from anywhere inside the repository. The worktrees, builds and
# raw outputs go under $TMPDIR (default /tmp). The raw outputs are
# removed on exit unless a run failed; then their directory is kept and
# its path printed.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: scripts/ab.sh BASE [PAIRS]" >&2
	exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify HEAD)
pairs="${2:-5}"
root=$(git rev-parse --show-toplevel)

work=$(mktemp -d)
failed=0
cleanup() {
	git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
	git -C "$root" worktree remove --force "$work/head" 2>/dev/null || true
	git -C "$root" worktree prune
	if [ "$failed" = 1 ]; then
		echo "ab: a run failed; raw outputs kept in $work/runs" >&2
	else
		rm -rf "$work"
	fi
}
trap cleanup EXIT
git -C "$root" worktree add --detach -q "$work/base" "$base"
git -C "$root" worktree add --detach -q "$work/head" "$head"

spec="$work/head/BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
mkdir -p "$work/runs"

run() { # side workload pair
	local out="$work/runs/$2.$1.$3.json"
	if (cd "$work/$1" && bash perfbench/run.sh --workload "$2" --seconds "$seconds" --trace 0) \
		>"$work/runs/$2.$1.$3.out" 2>"$work/runs/$2.$1.$3.err"; then
		tail -n 1 "$work/runs/$2.$1.$3.out" >"$out"
	else
		echo '{"failed_run": true}' >"$out"
		failed=1
		echo "ab: $1 $2 pair $3 failed; see $work/runs/$2.$1.$3.err" >&2
	fi
}

echo "ab: base $base, head $head, $pairs pairs x ${seconds}s per workload" >&2
for w in $workloads; do
	for p in $(seq 1 "$pairs"); do
		if [ $((p % 2)) = 1 ]; then order="base head"; else order="head base"; fi
		for side in $order; do
			echo "ab: $w pair $p $side" >&2
			run "$side" "$w" "$p"
		done
	done
done

python3 - "$spec" "$work/runs" "$pairs" "$workloads" <<'EOF'
import json, os, statistics, sys

spec, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4].split()
metrics = json.load(open(spec))["end_to_end"]

def load(w, side):
    out = []
    for p in range(1, pairs + 1):
        with open(os.path.join(runs, f"{w}.{side}.{p}.json")) as f:
            out.append(json.load(f))
    return out

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for w in workloads:
    base, head = load(w, "base"), load(w, "head")
    print(f"== {w}")
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        b = [r.get("metrics", {}).get(name, {}).get("value") for r in base]
        h = [r.get("metrics", {}).get(name, {}).get("value") for r in head]
        if any(v is None for v in b + h):
            print(f"  {name}: missing in some run (base {b}, head {h})")
            continue
        bm, hm = statistics.median(b), statistics.median(h)
        q1, q3 = quartiles(b)
        iqr = (q3 - q1) / abs(bm) if bm else 0.0
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        change = (hm - bm) / abs(bm) if bm else 0.0
        worse = change > bound if lower else change < -bound
        if iqr <= bound:
            verdict = "worse" if worse else "ok"
        elif (max(h) < min(b)) if lower else (min(h) > max(b)):
            verdict = "ok (all runs better)"
        else:
            verdict = "unresolved"
        print(f"  {name} ({m['unit']}, {m['better']} is better, bound {bound:.0%}): {verdict}")
        print(f"    base  median {bm:.4g}  IQR {q1:.4g}..{q3:.4g} ({iqr:.1%})  runs {' '.join(f'{v:.4g}' for v in b)}")
        print(f"    head  median {hm:.4g}  ({change:+.1%})  wins {wins}/{pairs}  runs {' '.join(f'{v:.4g}' for v in h)}")
    ops = lambda rs: " ".join(f"{r['failed']}/{r['attempted']}" if "failed" in r else "run-failed" for r in rs)
    print(f"  failed/attempted ops: base {ops(base)}  head {ops(head)}")
EOF
