#!/usr/bin/env python3
"""Self-test for tools/lint_determinism.py, run via ctest.

Exercises the linter against the committed fixture corpus under
tools/lint_fixtures/ — a miniature src/bench/tests tree seeding one file
per rule plus clean files proving the exemptions and the lint:allow
escape hatch — and asserts EXACT (file, line, rule) hits and exit codes.
Exactness matters both ways: a missed seeded violation means the rule
regressed; an extra hit means a false positive that would block an
innocent PR.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "tools", "lint_determinism.py")
FIXTURES = os.path.join(REPO_ROOT, "tools", "lint_fixtures")

# Every violation the fixture corpus seeds, exactly.
EXPECTED_FIXTURE_HITS = {
    ("src/metrics/bad_float_accum.cpp", 6, "float-accum"),
    ("src/metrics/bad_float_accum.cpp", 7, "float-accum"),
    ("src/obs/bad_atomic.cpp", 12, "atomic-order"),
    ("src/obs/bad_atomic.cpp", 13, "atomic-order"),
    ("src/obs/bad_atomic.cpp", 14, "atomic-order"),
    ("src/obs/bad_atomic.cpp", 15, "atomic-order"),
    ("src/plane/bad_thread.cpp", 7, "raw-thread"),
    ("src/plane/bad_thread.cpp", 12, "omp"),
    ("src/quant/bad_clone_macro_unpinned.cpp", 6, "fp-contract-pin"),
    ("src/quant/bad_clone_unpinned.cpp", 5, "fp-contract-pin"),
    ("src/sim/bad_rng.cpp", 8, "rng"),
    ("src/sim/bad_rng.cpp", 9, "rng"),
    ("src/sim/bad_rng.cpp", 10, "rng"),
    ("src/sim/bad_rng.cpp", 11, "time-seed"),
    ("src/sim/bad_rng.cpp", 12, "time-seed"),
    ("src/sweep/bad_unordered.cpp", 12, "unordered-iter"),
    ("src/sweep/bad_unordered.cpp", 22, "unordered-iter"),
}

# Fixture files that must come back CLEAN (exemptions + escape hatches).
CLEAN_FIXTURES = [
    "src/quant/good_clone_pinned.cpp",
    "src/quant/good_clone_var_pinned.cpp",
    "src/sim/allowed_escapes.cpp",
    "src/tensor/kernel_accum.cpp",
    "src/util/good_thread_util.cpp",
    "tests/test_fixture_scope.cpp",
]


def run_linter(*args):
    return subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True, text=True, check=False)


def parse_hits(stdout):
    hits = set()
    for line in stdout.splitlines():
        if not line.strip():
            continue
        path, lineno, rest = line.split(":", 2)
        rule = rest.split("[", 1)[1].split("]", 1)[0]
        hits.add((path, int(lineno), rule))
    return hits


class LintDeterminismTest(unittest.TestCase):
    def test_fixture_corpus_exact_hits_and_exit_code(self):
        proc = run_linter("--root", FIXTURES)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(parse_hits(proc.stdout), EXPECTED_FIXTURE_HITS)
        self.assertIn(f"{len(EXPECTED_FIXTURE_HITS)} violation(s)",
                      proc.stderr)

    def test_clean_fixtures_exit_zero(self):
        for rel in CLEAN_FIXTURES:
            with self.subTest(rel=rel):
                proc = run_linter("--root", FIXTURES,
                                  os.path.join(FIXTURES, rel))
                self.assertEqual(proc.returncode, 0,
                                 f"{rel}:\n{proc.stdout}{proc.stderr}")
                self.assertEqual(proc.stdout.strip(), "")

    def test_single_bad_file_scan(self):
        bad = os.path.join(FIXTURES, "src", "sim", "bad_rng.cpp")
        proc = run_linter("--root", FIXTURES, bad)
        self.assertEqual(proc.returncode, 1)
        rules = {rule for (_, _, rule) in parse_hits(proc.stdout)}
        self.assertEqual(rules, {"rng", "time-seed"})

    def test_project_wide_pin_covers_every_cloned_tu(self):
        # -ffp-contract=off in add_compile_options pins every TU, so the
        # cloned fixtures that lack a per-TU pin come back clean.
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(os.path.join(FIXTURES, "src", "quant"),
                            os.path.join(root, "src", "quant"))
            with open(os.path.join(root, "CMakeLists.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write("add_compile_options(-Wall -ffp-contract=off)\n")
            proc = run_linter("--root", root)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            with open(os.path.join(root, "CMakeLists.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write("add_compile_options(-Wall -Wextra)\n")
            proc = run_linter("--root", root)
            self.assertEqual(
                parse_hits(proc.stdout),
                {("src/quant/bad_clone_macro_unpinned.cpp", 6,
                  "fp-contract-pin"),
                 ("src/quant/bad_clone_unpinned.cpp", 5, "fp-contract-pin"),
                 ("src/quant/good_clone_pinned.cpp", 5, "fp-contract-pin"),
                 ("src/quant/good_clone_var_pinned.cpp", 6,
                  "fp-contract-pin")})

    def test_missing_path_is_usage_error(self):
        proc = run_linter("--root", FIXTURES, "no/such/file.cpp")
        self.assertEqual(proc.returncode, 2)

    def test_missing_root_is_usage_error(self):
        proc = run_linter("--root", os.path.join(FIXTURES, "absent"))
        self.assertEqual(proc.returncode, 2)

    def test_list_rules_exits_zero_and_names_every_rule(self):
        proc = run_linter("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ["rng", "time-seed", "unordered-iter", "raw-thread",
                     "omp", "atomic-order", "fp-contract-pin",
                     "float-accum"]:
            self.assertIn(rule + ":", proc.stdout)

    def test_real_tree_is_clean(self):
        proc = run_linter("--root", REPO_ROOT)
        self.assertEqual(proc.returncode, 0,
                         "determinism lint violations in the tree:\n"
                         + proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
