"""Compare two sets of benchmark results, a parent's and a change's.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` files of ``run.py`` runs, made in
alternating order (parent, change, parent, ...) with the same ``--seconds``.
Runs are paired in start order.  For every end-to-end metric there is one
row per workload with each side's median and quartiles and a verdict, using
the bound in BENCHMARK.json:

- unresolved: either side's spread between quartiles, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
- REGRESSION: the change's median is worse than the parent's by more than
  the bound;
- WIN: the change wins at least 9 in 10 pairs (ties count for neither) and
  the medians differ by more than the parent's spread between quartiles;
- same: none of these.

The per-op times are also pooled over all runs of a side, with their sample
count, and per-layer medians of traced runs are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]
    return sorted(runs, key=lambda r: r["started_unix"])


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> tuple[str, str]:
    """(verdict, wins as "k/N") for one metric on one workload."""
    sign = 1 if lower else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gain = sign * (pm - cm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) if pm and cm else float("inf")
    everyone_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not everyone_better:
        result = "unresolved"
    elif -gain > bound * abs(pm):
        result = "REGRESSION"
    elif wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        result = "WIN"
    elif spread > bound:
        result = "better (every run)"
    else:
        result = "same"
    return result, f"{wins}/{len(pairs)}"


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:10.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = (load(Path(a)) for a in argv)
    workloads = [w["name"] for w in spec["workloads"]]

    def runs(side: list[dict], workload: str, trace: int) -> list[dict]:
        return [r for r in side if r["workload"] == workload and r["trace"] == trace]

    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})")
        print(f"  {'workload':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} wins   verdict")
        for w in workloads:
            p = [r["metrics"][name] for r in runs(parent, w, 0)]
            c = [r["metrics"][name] for r in runs(change, w, 0)]
            if not p or not c:
                continue
            result, wins = verdict(p, c, bound, metric["better"] == "lower")
            print(f"  {w:<12} {fmt(p):<32} {fmt(c):<32} {wins:<6} {result}")

    for unit, value in (("seconds", lambda op: op["seconds"]), ("ref", lambda op: op["seconds"] / op["ref_s"])):
        print(f"\nper-op {unit} pooled over all runs (p50, p90, samples)")
        for w in workloads:
            row = []
            for side in (parent, change):
                ops = [value(op) for r in runs(side, w, 0) for p in r["pass_samples"] for op in p["ops"]]
                if len(ops) >= 2:
                    cuts = statistics.quantiles(ops, n=10, method="inclusive")
                    row.append(f"{cuts[4]:8.4f} {cuts[8]:8.4f} {len(ops):5d}")
            if len(row) == 2:
                print(f"  {w:<12} parent {row[0]}   change {row[1]}")

    for w in workloads:
        p_runs, c_runs = runs(parent, w, 1), runs(change, w, 1)
        if not p_runs or not c_runs:
            continue
        layer_names = [n for n in p_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        print(f"\nper-layer medians on {w} (traced runs: parent {len(p_runs)}, change {len(c_runs)})")
        for name in layer_names:
            pm = statistics.median(r["metrics"][name] for r in p_runs)
            cm = statistics.median(r["metrics"][name] for r in c_runs)
            print(f"  {name:<30} {pm:14.4f} {cm:14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
