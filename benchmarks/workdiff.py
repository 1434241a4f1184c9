"""Counted work, base against head: `repro profile` on three fixed points.

    python3 benchmarks/workdiff.py BASE_DIR HEAD_DIR OUT_DIR

BASE_DIR and HEAD_DIR are checkouts of the repo.  In each, `python3 -m
repro.cli profile --output` profiles the three points below under both
engines; the reports land in OUT_DIR as `{base,head}-{point}.json`.  Every
counter of every engine's report (`counters`, the profiler's run/skip and
control-loop counts) is printed with its base value, head value and delta;
a base-vs-base run prints no row.

Exit 1 when a side's engines disagree on a point (`identical_points`),
when an engine's `engine_path` or `fallback_reason` changes, or when one of
`WATCHED` rises: a change meant to make a phase cheaper must not do more
of the work these count.  Exit 0 otherwise.  Counts are deterministic, so
one run of each side is the verdict; host timings are `ab.sh`'s business.
"""

import json
import os
import subprocess
import sys

#: The three fixed points, as `repro profile` arguments.
POINTS = {
    # CI's storm point: a 1-VC 8x8 mesh far past saturation.
    "storm": ["--design", "mesh:minadaptive-spin-1vc", "--pattern",
              "uniform", "--rate", "0.30", "--mesh-side", "8", "--tdd",
              "32", "--warmup", "150", "--measure", "500", "--drain",
              "150"],
    # CI's idle point: most router-cycles are skipped, the tail is
    # fast-forwarded.
    "idle": ["--design", "spin_mesh", "--pattern", "uniform", "--rate",
             "0.01", "--mesh-side", "4", "--tdd", "32", "--warmup", "100",
             "--measure", "2000", "--drain", "2000", "--abort-cycles",
             "500"],
    # CI's west-first point: the object datapath under both engines.
    "westfirst": ["--design", "mesh:westfirst-2vc", "--pattern",
                  "uniform", "--rate", "0.05", "--mesh-side", "4",
                  "--warmup", "100", "--measure", "500", "--drain", "500",
                  "--abort-cycles", "500"],
}

#: Counters that must not rise from base to head.
WATCHED = ("router_cycles_run", "alloc_cycles_run", "controller_ticks",
           "sm_sends")


def profile(checkout: str, point: str, output: str) -> dict:
    """Run one point's profile in a checkout; returns its report file."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("REPRO_ENGINE", None)
    if os.path.exists(output):
        os.remove(output)
    # `profile` exits 1, report written, when the engines disagree.
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "profile", *POINTS[point],
         "--output", output],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if not os.path.exists(output):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workdiff: {point} wrote no report in {checkout}")
    with open(output, encoding="utf-8") as handle:
        return json.load(handle)


def diff(base: dict, head: dict, point: str):
    """``(rows, failures)`` for one point: a row per counter that differs,
    a line per failed rule."""
    rows, failures = [], []
    for side, record in (("base", base), ("head", head)):
        if not record["identical_points"]:
            failures.append(f"{point}: the {side} engines disagree")
    for engine in sorted(set(base["reports"]) | set(head["reports"])):
        old = base["reports"].get(engine, {})
        new = head["reports"].get(engine, {})
        for field in ("engine_path", "fallback_reason"):
            if old.get(field) != new.get(field):
                failures.append(f"{point} {engine}: {field} "
                                f"{old.get(field)!r} -> {new.get(field)!r}")
        old_counts = old.get("counters", {})
        new_counts = new.get("counters", {})
        for name in sorted(set(old_counts) | set(new_counts)):
            was, now = old_counts.get(name, 0), new_counts.get(name, 0)
            if was == now:
                continue
            rows.append((point, engine, name, was, now))
            if name in WATCHED and now > was:
                failures.append(f"{point} {engine}: {name} rose "
                                f"{was} -> {now}")
    return rows, failures


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base_dir, head_dir, out_dir = (os.path.abspath(path) for path in argv)
    os.makedirs(out_dir, exist_ok=True)
    rows, failures = [], []
    for point in POINTS:
        sides = [profile(checkout, point,
                         os.path.join(out_dir, f"{side}-{point}.json"))
                 for side, checkout in (("base", base_dir),
                                        ("head", head_dir))]
        point_rows, point_failures = diff(*sides, point)
        rows += point_rows
        failures += point_failures
    print(f"{'point':<10} {'engine':<10} {'counter':<28} "
          f"{'base':>10} {'head':>10} {'delta':>10}")
    for point, engine, name, was, now in rows:
        print(f"{point:<10} {engine:<10} {name:<28} "
              f"{was:>10} {now:>10} {now - was:>+10}")
    print(f"workdiff: {len(rows)} counter(s) differ over "
          f"{len(POINTS)} points")
    for failure in failures:
        print(f"workdiff: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
