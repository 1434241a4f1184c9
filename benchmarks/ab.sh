#!/usr/bin/env bash
# The repo benchmark (benchmarks/perf), base against head, on one host.
#
#   benchmarks/ab.sh BASE [HEAD [run.py options...]]
#
# 1. BASE and HEAD are checked out into their own worktrees under
#    .bench_ab/, and `pytest benchmarks/perf` runs on HEAD: the
#    benchmark's self-test.
# 2. Counted work: HEAD's benchmarks/workdiff.py profiles three fixed
#    points (`repro profile --output`) in each worktree and prints every
#    counter that differs.  It fails when a side's engines disagree, an
#    `engine_path` changes, or router_cycles_run, alloc_cycles_run,
#    controller_ticks or sm_sends rises.  Counts do not drift with the
#    host, so one run decides; base against base prints no row.
# 3. `benchmarks/perf/run.py --seed 1 --output` runs in each worktree,
#    base first, then head.  HEAD's compare.py judges the pair.  A `worse`
#    row that is not a host timing fails at once: a different
#    sim_fingerprint or simulated metric, a larger fail share, more memory,
#    a missing workload.
# 4. Otherwise, if a host-timed row (gate.json's `host_timed`) reads
#    `worse` or any row `unresolved`, the pair runs once more in the other
#    order, head first.  A host-timed row fails only when it is `worse` in
#    both pairs: one pair cannot tell a slower change from a host that
#    changed speed between the two runs.
#
# The records, compare tables and profile reports stay in .bench_ab/.  Extra arguments go to
# run.py, e.g. `--tiny --seconds 2` for a quick trial of the script itself.
set -euo pipefail

base=${1:?usage: benchmarks/ab.sh BASE [HEAD [run.py options...]]}
head=${2:-HEAD}
shift $(($# < 2 ? $# : 2))
options=("$@")
root=$(git rev-parse --show-toplevel)
work=$root/.bench_ab

remove_worktrees() {
    for side in base head; do
        git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
    done
}
remove_worktrees
rm -rf "$work"
mkdir -p "$work"
trap remove_worktrees EXIT
git -C "$root" worktree add --detach --quiet "$work/base" "$base"
git -C "$root" worktree add --detach --quiet "$work/head" "$head"

(cd "$work/head" && PYTHONPATH=src python3 -m pytest benchmarks/perf -q)
python3 "$work/head/benchmarks/workdiff.py" "$work/base" "$work/head" \
    "$work/workdiff"

run_side() {  # SIDE ROUND
    echo "ab.sh: round $2, $1" >&2
    (cd "$work/$1" && python3 benchmarks/perf/run.py --seed 1 \
        "${options[@]}" --output "$work/$1-$2.json" > "$work/$1-$2.log")
}

# Prints the last round's compare table and exits 0 (pass), 1 (fail) or
# 3 (one pair cannot tell: run another).
judge() {  # ROUND...
    python3 - "$work" "$@" <<'EOF'
import json
import sys

work, rounds = sys.argv[1], sys.argv[2:]
sys.path.insert(0, f"{work}/head/benchmarks/perf")
import compare


def record(side, round_):
    with open(f"{work}/{side}-{round_}.json", encoding="utf-8") as handle:
        return json.load(handle)


timed_worse = None
for round_ in rounds:
    base = record("base", round_)
    rows = compare.compare(base, record("head", round_))
    host_timed = set(base["gate"]["host_timed"])
    worse = {(row["workload"], row["metric"]) for row in rows
             if row["verdict"] == "worse"}
    unresolved = any(row["verdict"] == "unresolved" for row in rows)
    timed_worse = worse if timed_worse is None else timed_worse & worse
table = compare.render(rows)
with open(f"{work}/compare-{rounds[-1]}.txt", "w", encoding="utf-8") as out:
    out.write(table + "\n")
print(table)
if any(metric not in host_timed for _, metric in worse):
    sys.exit(1)
if len(rounds) == 1 and (worse or unresolved):
    sys.exit(3)
for workload, metric in sorted(timed_worse):
    print(f"ab.sh: {workload} {metric} worse in every pair", file=sys.stderr)
sys.exit(1 if timed_worse else 0)
EOF
}

run_side base 1
run_side head 1
status=0
judge 1 || status=$?
if [ "$status" -eq 3 ]; then
    echo "ab.sh: host timings cannot tell; one more pair, head first" >&2
    run_side head 2
    run_side base 2
    status=0
    judge 1 2 || status=$?
fi
exit "$status"
