#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark runs.

  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results.json files (searched recursively, paired
in sorted path order) that benchmark/run.py wrote for one commit, e.g.
PARENT_DIR/run01/results.json ... PARENT_DIR/run10/results.json. Collect
them as alternating pairs: parent then change on odd runs, change then
parent on even runs, with the same seed and --seconds on both sides.

For every (workload, end-to-end metric) the report gives each side's
median and quartiles and one verdict:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread exceeds the bound, so "no worse"
              cannot be shown (unless every change run beats every parent
              run);
  same        none of the above.

Under each workload it lists the per-layer median deltas, largest first,
so the layer behind an end-to-end change is named (runs made with
--trace 1, or without --workload, carry the per-layer metrics). Exits 1
when any metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """workload -> [metric -> value], one entry per run in path order.

    Reads both the all-workload results.json and the one-workload file
    that `run.py --workload` writes.
    """
    runs = {}
    for path in sorted(Path(directory).rglob("results.json")):
        data = json.loads(path.read_text())
        for entry in data["runs"] if "runs" in data else [data]:
            runs.setdefault(entry["workload"], []).append(
                {name: m["value"] for name, m in entry["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(cmed, pmed, direction) and abs(cmed - pmed) > p3 - p1):
        return "gain", wins
    worse_by = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if pmed != 0 and worse_by / abs(pmed) > bound:
        return "regression", wins
    if pmed != 0 and (p3 - p1) / abs(pmed) > bound and not all(
            better(c, p, direction) for p in parent for c in change):
        return "unresolved", wins
    return "same", wins


def relative_delta(parent, change):
    pmed = statistics.median(parent)
    cmed = statistics.median(change)
    if pmed == 0:
        return 0.0 if cmed == 0 else float("inf")
    return (cmed - pmed) / abs(pmed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)
    layer_names = [m["name"] for m in spec["per_layer"]]

    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = min(len(parent_runs.get(workload, [])),
                    len(change_runs.get(workload, [])))
        if pairs == 0:
            continue
        note = "" if pairs >= MIN_PAIRS else f"; a gain needs {MIN_PAIRS}"
        print(f"== {workload} ({pairs} pairs{note})")

        def series(runs, name, workload=workload, pairs=pairs):
            values = [run[name] for run in runs[workload][:pairs]
                      if name in run]
            return values if len(values) == pairs else None

        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = series(parent_runs, name)
            change = series(change_runs, name)
            if parent is None or change is None:
                continue
            result, wins = verdict(parent, change, metric["better"],
                                   metric["bound"])
            regressions += result == "regression"
            p1, pmed, p3 = quartiles(parent)
            c1, cmed, c3 = quartiles(change)
            print(f"  {name:20s} parent {pmed:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cmed:.6g} [{c1:.6g}, {c3:.6g}]  "
                  f"{relative_delta(parent, change):+.2%}  "
                  f"wins {wins}/{pairs}  {result}")
        deltas = []
        for layer in layer_names:
            lp = series(parent_runs, layer)
            lc = series(change_runs, layer)
            if lp is not None and lc is not None:
                deltas.append((relative_delta(lp, lc), layer))
        if deltas:
            print("  per-layer median deltas, largest first:")
        deltas.sort(key=lambda d: abs(d[0]), reverse=True)
        for delta, layer in deltas:
            if delta != 0:
                print(f"    {layer:34s} {delta:+.2%}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
