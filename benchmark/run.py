#!/usr/bin/env python3
"""Builds and runs the SkipTrain end-to-end benchmark.

  python3 benchmark/run.py [--seed N] [--out DIR]
      every workload with probes and tracing: prints each metric as
      `workload metric value unit`, writes DIR/results.json, exits non-zero
      on any failed check.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one workload; the last stdout line is one JSON object with the keys
      correct, attempted, failed and metrics (the end-to-end metrics with
      --trace 0, the per-layer metrics with --trace 1).

The program is configured and built from source into build-bench/ (see
benchmark/CMakeLists.txt). Each workload runs in its own process with at
most min(4, nproc) busy threads. Metric names and units come from
BENCHMARK.json; a run that emits any other set of names fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "skiptrain_bench"
EXPECTED_DIR = BENCH_DIR / "expected"
GOLDEN_SEED = 42
RUN_TIMEOUT_S = 170

# Spans whose per-pass self time is reported as span.<name>.self_s. Each
# one runs on every workload. round.encode, round.checkpoint and ckpt.write
# run only on chaos_256; sim.encode_share and sim.checkpoint_share cover
# them as shares of phase time, so the workloads that bypass them report a
# share of 0 instead of a time pinned at 0 s.
SELF_TIME_SPANS = (
    "round.setup",
    "round.liveness",
    "round.train",
    "round.gossip",
    "round.eval",
    "gossip.apply_mixing",
)


def thread_cap():
    return max(1, min(4, os.cpu_count() or 1))


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def build():
    """Configures (once) and builds the benchmark program; False on error."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "skiptrain_bench", "-j", str(thread_cap())])
    # The compiler's temporary files stay inside the build tree too.
    tmp_dir = BUILD_DIR / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log(f"run.py: build step failed: {' '.join(step)}")
            return False
    return True


def run_program(workload, seed, seconds, trace, out_dir):
    """Runs one workload in a fresh process inside out_dir."""
    env = dict(os.environ)
    env["SKIPTRAIN_THREADS"] = str(thread_cap())
    # Registry at its default; tracing only where the program starts it.
    env.pop("SKIPTRAIN_OBS", None)
    env.pop("SKIPTRAIN_TRACE", None)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=out_dir, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload}: program exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_times(trace_path):
    """Self time per span name in one trace, in seconds.

    Spans on one thread nest (RAII scopes), so a span's self time is its
    duration minus that of the spans directly inside it on the same thread.
    This is tools/trace_summary.py's stack sweep, repeated so that the
    benchmark changes only when benchmark/ does.
    """
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    totals = {}
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)

    def close(span, stack):
        name, ts, end, child = span
        totals[name] = totals.get(name, 0.0) + (end - ts - child) * 1e-6
        if stack:
            stack[-1][3] += end - ts

    for tid_events in by_tid.values():
        tid_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in tid_events:
            while stack and e["ts"] >= stack[-1][2]:
                close(stack.pop(), stack)
            stack.append([e["name"], e["ts"], e["ts"] + e["dur"], 0.0])
        while stack:
            close(stack.pop(), stack)
    return totals


def span_metrics(workload, traced_passes, out_dir):
    """Median over the traced passes (one trace file each) of self times."""
    per_pass = [self_times(out_dir / f"{workload}.trace.{k}.json")
                for k in range(traced_passes)]
    return {f"span.{name}.self_s":
            statistics.median(p.get(name, 0.0) for p in per_pass)
            for name in SELF_TIME_SPANS}


def run_workload(workload, seed, seconds, trace, out_dir, spec, units):
    """Runs, checks and collects one workload's metrics."""
    result = run_program(workload, seed, seconds, trace, out_dir)
    # The program checks that every pass, traced or not, wrote the same
    # summary CSV; at the golden seed its bytes must also match the commit
    # the benchmark was defined at.
    failures = [f"{c['name']}: {c['detail']}" for c in result["checks"]
                if not c["ok"]]
    if seed == GOLDEN_SEED:
        csv = (out_dir / f"{workload}.csv").read_bytes()
        actual = hashlib.sha256(csv).hexdigest()
        expected = (EXPECTED_DIR / f"{workload}.sha256").read_text().split()[0]
        if actual != expected:
            failures.append(f"summary CSV sha256 {actual} != expected "
                            f"{expected}")
    metrics = dict(result["e2e"])
    expected = [m["name"] for m in spec["end_to_end"]]
    if trace:
        metrics.update(result["layers"])
        metrics.update(span_metrics(workload, result["traced_passes"],
                                    out_dir))
        expected += [m["name"] for m in spec["per_layer"]]
    if sorted(metrics) != sorted(expected):
        failures.append(
            "metric names differ from BENCHMARK.json: extra "
            f"{sorted(set(metrics) - set(expected))}, missing "
            f"{sorted(set(expected) - set(metrics))}")
    for name in metrics:
        if metrics[name] is None:
            failures.append(f"{name} is not a finite number")
    for failure in failures:
        log(f"run.py: {workload}: CHECK FAILED: {failure}")
    return {
        "workload": workload,
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "e2e_passes": result["e2e_passes"],
        "traced_passes": result["traced_passes"],
        "final_accuracy": result["final_accuracy"],
        "raw_per_pass": result["raw_per_pass"],
        "probe_samples": result["probe_samples"],
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in sorted(metrics.items())},
        "failures": failures,
    }


def main():
    spec, units = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (contract mode)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = per-layer metrics "
                             "(default: 1 for all workloads)")
    parser.add_argument("--out", default=str(BUILD_DIR / "out"),
                        help="directory for CSVs, traces and results.json")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if not build():
        return 1
    try:
        if args.workload is not None:
            trace = args.trace if args.trace is not None else 0
            run = run_workload(args.workload, args.seed, args.seconds, trace,
                               out_dir, spec, units)
            section = "per_layer" if trace else "end_to_end"
            names = [m["name"] for m in spec[section]]
            (out_dir / "results.json").write_text(json.dumps(run, indent=2))
            print(json.dumps({
                "correct": not run["failures"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {n: run["metrics"][n] for n in names
                            if n in run["metrics"]},
            }))
            return 0 if not run["failures"] else 1

        trace = args.trace if args.trace is not None else 1
        runs = []
        for workload in workloads:
            log(f"run.py: running {workload}")
            run = run_workload(workload, args.seed, args.seconds, trace,
                               out_dir, spec, units)
            runs.append(run)
            for name, metric in run["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} "
                      f"{metric['unit']}", flush=True)
        (out_dir / "results.json").write_text(json.dumps(
            {"seed": args.seed, "nproc": os.cpu_count(), "runs": runs},
            indent=2))
        failed = [r["workload"] for r in runs if r["failures"]]
        if failed:
            log(f"run.py: checks failed on {', '.join(failed)}")
            return 1
        log(f"run.py: all checks passed; results in {out_dir / 'results.json'}")
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
