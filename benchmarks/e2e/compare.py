"""Compare two sets of benchmark runs: the parent commit against a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out`` writes, one per
run and workload.  Make at least ten runs a side with the same seeds,
alternating which side runs first.  Runs are paired by seed (then by
file name).  For every (end-to-end metric, workload) the tool prints
each side's median and quartiles, the share of pairs the change won
(ties count for neither side) and a verdict:

* ``improved`` — the change won at least 9 of 10 pairs and its median
  is better than the parent's by more than the parent's inter-quartile
  range;
* ``unresolved`` — otherwise, when either side's spread (IQR / median)
  is wider than the metric's bound, unless every change run beats every
  parent run (then ``improved``);
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``within bound`` — otherwise.

Bounds and directions come from BENCHMARK.json.  Exits 1 when any
pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory: Path) -> dict:
    """workload -> list of (seed, file name, {metric: value}), sorted for pairing."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs[record["workload"]].append((record["seed"], path.name, metrics))
    for items in runs.values():
        items.sort(key=lambda item: item[:2])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare paired samples of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0   # sign * (b - a) > 0: b is worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > (p3 - p1):
        status = "improved"
    elif spread > bound:
        dominated = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        status = "improved" if dominated else "unresolved"
    elif worse > bound:
        status = "regressed"
    else:
        status = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(pairs), "worse": worse, "spread": spread, "verdict": status}


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> list[tuple]:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [m[name] for _, _, m in parent[workload] if name in m]
            b = [m[name] for _, _, m in change[workload] if name in m]
            if a and b:
                rows.append((workload, name, metric["unit"],
                             verdict(a, b, metric["better"], metric["bound"])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.parent, args.change, spec)
    print(f"{'workload':<12} {'metric':<18} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>7} {'worse':>8}  verdict")
    for workload, name, unit, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:<12} {name:<18} {fmt(v['parent']) + ' ' + unit:>30} "
              f"{fmt(v['change']) + ' ' + unit:>30} {v['wins']:>3}/{v['pairs']:<3} "
              f"{v['worse']:>+8.1%}  {v['verdict']}")
    return 1 if any(v["verdict"] == "regressed" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
