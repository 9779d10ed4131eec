#!/usr/bin/env python3
"""Summarizes a set of benchmark runs into one trajectory point.

  python3 benchmark/baseline.py RESULTS_DIR OUT.json

RESULTS_DIR holds the results.json files benchmark/run.py wrote (searched
recursively, as for compare.py). OUT.json gets, per workload and
end-to-end metric, the median, quartiles and spread (interquartile range
over median) of the runs, plus the seeds, the CPU count and the CPU model
they ran on. benchmark/baseline/ keeps one such file per point of the
end-to-end trajectory.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.dont_write_bytecode = True
from compare import ROOT, load_runs, quartiles  # noqa: E402


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results_dir")
    parser.add_argument("out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load_runs(args.results_dir)
    seeds = sorted({json.loads(p.read_text()).get("seed")
                    for p in Path(args.results_dir).rglob("results.json")})
    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in runs:
            continue
        summary = {}
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs[workload]
                      if metric["name"] in run]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            summary[metric["name"]] = {
                "unit": metric["unit"], "runs": len(values), "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
        workloads[workload] = summary
    Path(args.out).write_text(json.dumps({
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workloads": workloads,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
