"""Compare benchmark runs of a parent commit and of a change.

    python3 perfbench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

The inputs are the records ``run.py`` writes to ``perfbench/results/``,
one per workload run.  Pairs are matched per workload in the order the
files are given: run the parent and the change alternately, at least ten
pairs, on the same seeds, and confirm a claim on a seed not used while
writing the change.

For each workload and metric it prints both sides' median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict:

``improved``
    the change won at least 90% of the pairs and the medians differ, in
    the better direction, by more than the parent's interquartile range;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound in BENCHMARK.json;
``unresolved``
    a side's spread (IQR over median) exceeds the bound, so "unchanged"
    cannot be claimed, unless every change run beats every parent run;
``unchanged``
    none of the above.

Per-layer metrics have no bound and get ``improved``, ``worse`` or
``unchanged`` by the win rule alone.  A gain does not count when the
change failed a larger share of operations; such a verdict is reported as
``unresolved``.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def verdict(
    parent: List[float], change: List[float], better: str, bound: Optional[float]
) -> Dict[str, object]:
    """Compare one metric's paired runs; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    out = {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "win_share": wins / len(pairs) if pairs else 0.0,
    }
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        out["verdict"] = "improved"
    elif bound is None:
        out["verdict"] = "worse" if pairs and losses >= 0.9 * len(pairs) else "unchanged"
    elif -gain > bound * abs(p_med):
        out["verdict"] = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "unchanged"
    return out


def load(paths: List[str]) -> Dict[str, List[dict]]:
    """Records grouped by workload, in the order given."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def failure_share(records: List[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted if attempted else 0.0


def compare(parent_runs, change_runs, spec) -> List[Dict[str, object]]:
    """One row per (workload, metric) present on both sides."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in parent_runs:
        parents, changes = parent_runs[workload], change_runs.get(workload, [])
        if not changes:
            continue
        more_failures = failure_share(changes) > failure_share(parents)
        names = [
            name for name in declared
            if name in parents[0]["result"]["metrics"] and name in changes[0]["result"]["metrics"]
        ]
        for name in names:
            row = verdict(
                [r["result"]["metrics"][name]["value"] for r in parents],
                [r["result"]["metrics"][name]["value"] for r in changes],
                declared[name]["better"],
                declared[name].get("bound"),
            )
            if more_failures and row["verdict"] == "improved":
                row["verdict"] = "unresolved"
            row.update(workload=workload, metric=name)
            rows.append(row)
        rows.append({
            "workload": workload, "metric": "failed_share",
            "parent": (failure_share(parents),) * 3, "change": (failure_share(changes),) * 3,
            "win_share": 0.0, "verdict": "more failures" if more_failures else "unchanged",
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", nargs="+", required=True, help="records of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="records of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change), spec)
    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':14} {'metric':32} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
    for row in rows:
        print(
            f"{row['workload']:14} {row['metric']:32} {cell(row['parent']):>34} "
            f"{cell(row['change']):>34} {row['win_share']:5.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
