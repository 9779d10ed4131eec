#!/usr/bin/env python3
"""Hostile command-line values fail cleanly, run via ctest.

Every flag of sweep_main gets malformed, out-of-range and non-finite
values; each run must exit 2 (a usage error with a message on stderr and
nothing on stdout), never die on a signal such as std::terminate's
SIGABRT. Every run uses --list, so no trial trains and no worker pool
starts. Each other bench harness gets an unknown option, a malformed
--rounds and negative counts, which it must reject the same way before it
prints a banner or a table.

usage: test_cli_hostile.py <bin-dir> [harness ...]
"""

import os
import subprocess
import sys
import unittest

BIN_DIR = ""
HARNESSES = []

LIST_FIG3 = ["--preset", "fig3", "--list"]

# Values no integer flag may accept: garbage, trailing garbage, fractions,
# and magnitudes outside int64 (strtoll would clamp them to INT64_MAX).
BAD_INTS = ["abc", "", "12abc", "1.5", "0x10", "99999999999999999999",
            "-99999999999999999999", "9223372036854775808"]
INT_FLAGS = ["nodes", "rounds", "local-steps", "batch", "eval-every",
             "eval-samples", "seed", "threads", "checkpoint-every",
             "keep-generations", "gamma-max"]
# Count flags that building the grid reads: negatives are rejected too.
COUNT_FLAGS = ["nodes", "rounds", "local-steps", "batch", "eval-every",
               "eval-samples"]
BAD_DOUBLES = ["abc", "", "0.1x", "nan", "inf", "-inf", "1e999", "1e-400"]

HOSTILE = (
    [(flag, value) for flag in INT_FLAGS for value in BAD_INTS]
    + [(flag, "-1") for flag in COUNT_FLAGS]
    + [("seed", "-1")]  # would wrap to 2^64 - 1
    + [("gamma-max", "0"), ("gamma-max", "-1"),
       ("gamma-max", "4000000000"),  # a Γ range past the range cap
       ("gamma-max", "4096")]  # 3 x 4096^2 trials: past the trial cap
    + [("lr", value) for value in BAD_DOUBLES]
    + [("preset", "fig9"), ("dataset", "mnist"), ("dataset", "cifar,mnist"),
       ("faults", "drop:2"), ("faults", "bogus"),
       ("config", "/nonexistent/grid.conf")]  # with --preset: two sources
)


# Count flags each harness reads, so a negative value must stop it.
NEGATIVE_COUNTS = {
    "ablation_budget_spend": ["trials", "seed"],
    "ablation_compression": ["degree", "rounds"],
    "ablation_fairness": ["degree", "batch"],
    "ablation_faults": ["degree", "eval-samples"],
    "ablation_mixing": ["nodes", "local-steps"],
    "ablation_quantization": ["degree", "local-steps"],
    "ablation_scenario": ["degree", "eval-every"],
    "fig1_allreduce": ["rounds", "degree"],
    "fig2_schedule": ["rounds", "gamma-train", "gamma-sync"],
    "fig3_gamma_grid": ["threads", "checkpoint-every"],
    "fig4_oscillation": ["tail", "degree"],
    "fig5_tradeoff": ["keep-generations", "nodes"],
    "fig6_constrained": ["threads", "seed"],
    "fig7_class_dist": ["show-nodes", "nodes"],
    "intro_energy_ratio": ["degree"],
    "table1_hyperparams": ["nodes", "batch"],
    "table3_summary": ["threads", "rounds"],
    "table4_constrained": ["seed", "eval-samples"],
}


def run(binary, args):
    return subprocess.run([os.path.join(BIN_DIR, binary)] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)


class HostileCliValues(unittest.TestCase):
    def assert_usage_error(self, binary, args):
        result = run(binary, args)
        self.assertGreaterEqual(
            result.returncode, 0,
            f"{binary} {args}: killed by signal {-result.returncode}")
        self.assertEqual(result.returncode, 2,
                         f"{binary} {args}: exit {result.returncode}")
        self.assertTrue(result.stderr.strip(), f"{binary} {args}: no message")
        self.assertEqual(result.stdout, b"",
                         f"{binary} {args}: printed before failing")

    def test_baseline_list_succeeds(self):
        self.assertEqual(run("sweep_main", LIST_FIG3).returncode, 0)

    def test_every_sweep_main_flag_rejects_hostile_values(self):
        for flag, value in HOSTILE:
            with self.subTest(flag=flag, value=value):
                self.assert_usage_error("sweep_main",
                                        LIST_FIG3 + [f"--{flag}={value}"])

    def test_malformed_arguments(self):
        for args in (["--bogus"], ["--list=1"], ["--full=yes"],
                     ["--nodes"], ["stray"]):
            with self.subTest(args=args):
                self.assert_usage_error("sweep_main", LIST_FIG3 + args)
        self.assert_usage_error("sweep_main",
                                ["--config", "/nonexistent/grid.conf"])

    def test_every_sweep_flag_is_read_before_output(self):
        # Without --list, sweep_main prints the trial count before running;
        # the runner flags must already have been checked by then.
        for flag in ("threads", "checkpoint-every", "keep-generations"):
            with self.subTest(flag=flag):
                self.assert_usage_error(
                    "sweep_main", ["--preset", "fig3", f"--{flag}=-1"])

    def test_every_harness_rejects_bad_flags(self):
        for harness in HARNESSES:
            for args in (["--no-such-option"], ["--rounds", "x"]):
                with self.subTest(harness=harness, args=args):
                    self.assert_usage_error(harness, args)


    def test_harnesses_read_counts_before_printing(self):
        # A negative count exits 2 with empty stdout: each harness reads
        # and checks every flag before its banner.
        for harness in HARNESSES:
            for flag in NEGATIVE_COUNTS.get(harness, ()):
                with self.subTest(harness=harness, flag=flag):
                    self.assert_usage_error(harness, [f"--{flag}", "-1"])


if __name__ == "__main__":
    BIN_DIR = sys.argv[1]
    HARNESSES = sys.argv[2:]
    unittest.main(argv=sys.argv[:1], verbosity=1)
