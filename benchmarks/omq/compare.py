"""Compare two ``result.json`` files written by ``run.py``.

``python3 benchmarks/omq/compare.py A.json B.json`` prints one row per
(workload, end-to-end metric): both medians with their quartiles, the
ratio B/A with its base, and a verdict —

* ``better``        B's median is better than A's by more than A's spread;
* ``within-bound``  B is not worse than A by more than the metric's bound;
* ``worse``         B is worse than A by more than the bound;
* ``unresolved``    the run-to-run spread (distance between the
                    quartiles, as a share of the median) of either side
                    is wider than the bound, so the data cannot tell.

Quartiles need at least two values a side (``run.py --repeat N``); with
one value there is no spread, only the bound decides, and nothing is
called ``better``.  Per-layer
counts that must repeat exactly are listed when they differ.  Exit code
1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

#: per-layer counts that are exact: any difference is a finding
EXACT = ("rewriting.rules.lin", "rewriting.rules.log", "rewriting.rules.tw",
         "rewriting.width_max", "rewriting.depth_max",
         "datalog.generated_tuples", "engine.answer_rows")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: List[float], b: List[float], bound: float,
            higher_is_better: bool) -> Tuple[str, float]:
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    ratio = b_mid / a_mid
    spread_a = (a_high - a_low) / a_mid
    spread_b = (b_high - b_low) / b_mid
    # positive = B worse, as a share of A's median
    worse_by = (1.0 - ratio) if higher_is_better else (ratio - 1.0)
    if max(spread_a, spread_b) > bound:
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if min(len(a), len(b)) >= 2 and -worse_by > spread_a:
        return "better", ratio
    return "within-bound", ratio


def compare(first: Dict, second: Dict) -> int:
    metrics = {entry["name"]: entry for entry in first["end_to_end"]}
    failed = 0
    print(f"{'workload':16} {'metric':12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7}  verdict")
    for workload, entry in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            print(f"{workload:16} missing from B")
            failed += 1
            continue
        for name, row in entry["metrics"].items():
            if row["kind"] != "end_to_end":
                continue
            a, b = row["values"], other["metrics"][name]["values"]
            bound = metrics[name]["bound"]
            word, ratio = verdict(a, b, bound,
                                  metrics[name]["better"] == "higher")
            failed += word == "worse"
            cells = []
            for values in (a, b):
                low, mid, high = quartiles(values)
                cells.append(f"{mid:12.5g} [{low:9.5g}, {high:9.5g}]")
            print(f"{workload:16} {name:12} {cells[0]:>34} {cells[1]:>34} "
                  f"{ratio:7.3f}  {word} (base A={quartiles(a)[1]:.5g} "
                  f"{row['unit']}, bound {bound:.0%})")
        for name in EXACT:
            a = entry["metrics"].get(name, {}).get("values")
            b = other["metrics"].get(name, {}).get("values")
            if a and b and (set(a) != set(b) or len(set(a)) > 1):
                print(f"{workload:16} {name}: exact count differs: "
                      f"A={sorted(set(a))} B={sorted(set(b))}")
        for side, data in (("A", entry), ("B", other)):
            if data["failed"]:
                print(f"{workload:16} {side}: {data['failed']} of "
                      f"{data['attempted']} operations failed")
                failed += 1
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as a, open(argv[1]) as b:
        return compare(json.load(a), json.load(b))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
