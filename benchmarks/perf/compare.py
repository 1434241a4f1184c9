"""Compare two benchmark records: ``compare.py A.json B.json``.

``A`` is the baseline and ``B`` the candidate, both written by
``run.py --output`` with the same ``--seed``.  One row is printed per
workload x end-to-end metric: both medians, the change, the bound and a
verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``worse`` — it is; the layer metrics that gate.json maps to that metric
  and workload are printed below the row, to say where to look;
* ``unresolved`` — the runs cannot tell: the inter-quartile spread of
  either side exceeds the bound (a noisy host is named as the reason), the
  host's speed probe differs between the two runs by more than the bound,
  or one side has nothing to compare with.

The bounds are A's ``gate.json`` ones, for two records of one seed.  A
bound of 0 means equal: the simulated results must not move at all, so the
two ``sim_fingerprint`` strings and the simulated metrics must be equal.
Exit status is non-zero on any ``worse``, any simulated difference, or a
larger ``fail_share``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def _spread(row: Dict[str, float]) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def _layer_hints(a, b, workload: str, metric: str) -> List[str]:
    """The layer metrics gate.json says move ``metric`` on ``workload``."""
    hints = []
    for name, moves in a["gate"]["moves"].items():
        if moves["metric"] != metric or workload not in moves["workloads"]:
            continue
        before, after = (record["workloads"][workload]["per_layer"].get(name)
                         for record in (a, b))
        if before and after:
            hints.append(f"{name} {before['value']:.6g} -> "
                         f"{after['value']:.6g}")
    return hints


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Dict]:
    """One row per workload x end-to-end metric, plus one per workload for
    the fingerprint and the fail share."""
    bounds = a["gate"]["bounds"]
    rows = []
    for name in list(a["workloads"]) + [
            w for w in b["workloads"] if w not in a["workloads"]]:
        base, cand = a["workloads"].get(name), b["workloads"].get(name)
        if base is None or cand is None:
            rows.append({"workload": name, "metric": "(workload)",
                         "verdict": "unresolved" if cand else "worse",
                         "note": ("only in B: no baseline" if cand
                                  else "missing from B")})
            continue
        noisy = base["noisy"] or cand["noisy"]
        host_shift = (cand["host"]["speed_probe_s"]
                      / base["host"]["speed_probe_s"] - 1.0)
        for metric in a["definitions"]["end_to_end"]:
            key, bound = metric["name"], bounds[metric["name"]]
            before, after = base["end_to_end"][key], cand["end_to_end"][key]
            row = {"workload": name, "metric": key, "unit": metric["unit"],
                   "a": before["value"], "b": after["value"], "bound": bound,
                   "note": ""}
            if before["value"]:
                row["change"] = ((after["value"] - before["value"])
                                 / before["value"])
            if bound == 0:
                same = after["value"] == before["value"]
                row["verdict"] = "ok" if same else "worse"
                row["note"] = "" if same else "simulated statistic moved"
            elif "change" not in row:
                row["verdict"] = "unresolved"
                row["note"] = "baseline is 0"
            elif max(_spread(before), _spread(after)) > bound:
                row["verdict"] = "unresolved"
                row["note"] = "noisy host" if noisy else "spread exceeds bound"
            elif abs(host_shift) > bound and key in a["gate"]["host_timed"]:
                row["verdict"] = "unresolved"
                row["note"] = (f"host speed probe {100 * host_shift:+.0f}% "
                               "during B")
            else:
                worse_by = (row["change"] if metric["better"] == "lower"
                            else -row["change"])
                row["verdict"] = "worse" if worse_by > bound else "ok"
                if row["verdict"] == "worse":
                    row["hints"] = _layer_hints(a, b, name, key)
            rows.append(row)
        same = base["sim_fingerprint"] == cand["sim_fingerprint"]
        rows.append({"workload": name, "metric": "sim_fingerprint",
                     "verdict": "ok" if same else "worse",
                     "note": "" if same else "simulated results differ"})
        grew = (cand["fail_share"] - base["fail_share"]
                > bounds["fail_share"])
        rows.append({"workload": name, "metric": "fail_share",
                     "a": base["fail_share"], "b": cand["fail_share"],
                     "verdict": "worse" if grew else "ok", "note": ""})
    return rows


def render(rows: List[Dict]) -> str:
    lines = [f"{'workload':<22} {'metric':<19} {'A':>12} {'B':>12} "
             f"{'change':>8} {'bound':>6}  verdict"]
    for row in rows:
        a = f"{row['a']:.6g}" if "a" in row else ""
        b = f"{row['b']:.6g}" if "b" in row else ""
        change = f"{100 * row['change']:+.2f}%" if "change" in row else ""
        bound = f"{100 * row['bound']:.0f}%" if "bound" in row else ""
        note = f"  ({row['note']})" if row.get("note") else ""
        lines.append(f"{row['workload']:<22} {row['metric']:<19} {a:>12} "
                     f"{b:>12} {change:>8} {bound:>6}  {row['verdict']}{note}")
        lines += [f"{'':<24}{hint}" for hint in row.get("hints", ())]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    a, b = records
    if (a["seed"], a["tiny"]) != (b["seed"], b["tiny"]):
        print("compare: the records were run with different --seed/--tiny; "
              "their simulated results cannot be set side by side",
              file=sys.stderr)
        return 2
    rows = compare(a, b)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
