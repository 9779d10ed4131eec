#!/usr/bin/env python3
"""Determinism linter: statically enforces skiptrain's reproducibility
contract (byte-identical sweep CSVs at any thread count, through
kill/resume, traced or untraced) over src/, bench/, and tests/.

Runtime smokes catch a determinism break only after it happens and only
on the grids CI runs; this pass rejects the *patterns* that cause them
at review time:

  rng              ad-hoc RNG sources (rand(), std::random_device,
                   std::mt19937, ...) anywhere outside util/rng — every
                   stochastic draw must come from util::Rng /
                   stateless_uniform so it is a pure function of
                   (seed, purpose, node, round).
  time-seed        wall-clock as data (std::chrono::system_clock,
                   time(nullptr), gettimeofday). steady_clock is fine —
                   the obs layer is observational by contract.
  unordered-iter   iteration over std::unordered_{map,set}: iteration
                   order is libstdc++-version- and hash-seed-dependent,
                   so anything derived from it (CSV rows, checkpoint
                   sections, reductions) silently loses bit-identity.
  raw-thread       std::thread / std::jthread construction outside
                   util/ — all parallelism goes through util::ThreadPool
                   so the nested-serial pinning policy holds. Test code
                   may spawn raw threads with an explicit allow.
  omp              #pragma omp outside util/ (same policy as raw-thread;
                   OpenMP schedules are not part of the build).
  atomic-order     atomic operations without an explicit std::memory_order
                   argument (including ++/--/+=/= operator forms, which
                   are seq_cst): every ordering decision must be written
                   down and reviewable. Applies to src/ and bench/;
                   tests keep the conservative seq_cst default.
  fp-contract-pin  a TU defining ISA-cloned kernels (target_clones /
                   __attribute__((target(...))) / the SKIPTRAIN_*_CLONES
                   macros of util/isa.hpp) must be pinned with
                   -ffp-contract=off in CMakeLists.txt, project-wide in
                   add_compile_options or per TU, or wider-FMA clones
                   produce different bits than the scalar clone.
  float-accum      float-typed accumulators (sum/total/acc...) outside
                   the kernel TUs (tensor/, nn/, quant/ own their
                   accumulation-order story): reductions feeding results
                   accumulate in double or go through a kernel.

Escape hatch: append `// lint:allow(<rule>)` (comma-separate several
rules) to the offending line, or place it alone on the line above. Use
it only with a justification comment — the allow is the review record.

Exit codes: 0 clean, 1 violations found, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

SCAN_DIRS = ("src", "bench", "tests")
CPP_EXTENSIONS = (".cpp", ".cc", ".hpp", ".h")

ALLOW_RE = re.compile(r"lint:allow\(([a-z0-9_,\- ]+)\)")

# Rules are scoped by path prefix (POSIX-style, relative to the root).
# `exempt` prefixes override `dirs` prefixes.
RULE_SCOPES = {
    "rng": {"dirs": ("src", "bench", "tests"), "exempt": ("src/util/rng",)},
    "time-seed": {"dirs": ("src", "bench", "tests"), "exempt": ()},
    "unordered-iter": {"dirs": ("src", "bench", "tests"), "exempt": ()},
    "raw-thread": {"dirs": ("src", "bench", "tests"),
                   "exempt": ("src/util/",)},
    "omp": {"dirs": ("src", "bench", "tests"), "exempt": ("src/util/",)},
    "atomic-order": {"dirs": ("src", "bench"), "exempt": ()},
    "fp-contract-pin": {"dirs": ("src",), "exempt": ()},
    "float-accum": {"dirs": ("src",),
                    "exempt": ("src/tensor/", "src/nn/", "src/quant/")},
}

RNG_PATTERN = re.compile(
    r"(?<![\w:])(?:(?:std::)?s?rand\s*\(|std::random_device\b"
    r"|std::mt19937(?:_64)?\b"
    r"|std::default_random_engine\b|std::minstd_rand0?\b"
    r"|std::ranlux\w+\b|std::knuth_b\b)")

TIME_SEED_PATTERN = re.compile(
    r"std::chrono::system_clock\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\bgettimeofday\s*\(")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;)]*)\)")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:multi)?(?:map|set)\s*<[^;{}()]*>[&\s]*(\w+)\s*[;={(,)]")

THREAD_PATTERN = re.compile(r"std::j?thread\b(?!::)")
OMP_PATTERN = re.compile(r"^\s*#\s*pragma\s+omp\b")

ATOMIC_METHOD_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|test_and_set|clear|wait"
    r"|compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_DECL_RE = re.compile(r"std::atomic(?:_flag)?\s*<[^;>]*>\s+(\w+)\s*[;{=]")
ISA_CLONE_RE = re.compile(
    r"target_clones|__attribute__\s*\(\s*\(\s*target\s*\("
    r"|\bSKIPTRAIN_\w+_CLONES\b")
FLOAT_ACCUM_RE = re.compile(
    r"\bfloat\s+(\w*(?:sum|total|accum|acc)\w*)\s*[={]", re.IGNORECASE)


@dataclass
class Violation:
    path: str  # POSIX-relative to root
    line: int  # 1-based
    rule: str
    message: str


@dataclass
class FileContext:
    rel: str
    lines: list[str]
    allows: list[set[str]] = field(default_factory=list)  # per line

    def allowed(self, line_index: int, rule: str) -> bool:
        """True when line `line_index` (0-based) carries or inherits an
        allow for `rule`: same line, or alone on the line above."""
        here = self.allows[line_index]
        if rule in here or "*" in here:
            return True
        if line_index > 0:
            above = self.lines[line_index - 1].strip()
            prev = self.allows[line_index - 1]
            if above.startswith("//") and (rule in prev or "*" in prev):
                return True
        return False


def parse_allows(lines: list[str]) -> list[set[str]]:
    allows: list[set[str]] = []
    for line in lines:
        found: set[str] = set()
        for match in ALLOW_RE.finditer(line):
            for rule in match.group(1).split(","):
                found.add(rule.strip())
        allows.append(found)
    return allows


def in_scope(rel: str, rule: str) -> bool:
    scope = RULE_SCOPES[rule]
    if not rel.startswith(tuple(d + "/" for d in scope["dirs"])):
        return False
    return not rel.startswith(scope["exempt"])


def strip_comments_and_strings(line: str) -> str:
    """Good-enough single-line scrub: drops // comments and the contents
    of string/char literals so patterns never fire on prose. Block
    comments spanning lines are rare in this tree and handled upstream
    by the allow mechanism if they ever false-positive."""
    out = []
    i = 0
    in_string: str | None = None
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == in_string:
                in_string = None
                out.append(ch)
            i += 1
            continue
        if ch in "\"'":
            in_string = ch
            out.append(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < len(line) and line[i + 1] == "/":
            break
        out.append(ch)
        i += 1
    return "".join(out)


def call_args_have_memory_order(ctx: FileContext, line_index: int,
                                open_paren_offset: int) -> bool:
    """Scans the balanced argument list starting at `(` (which may span
    lines) for a std::memory_order mention."""
    depth = 0
    collected: list[str] = []
    i, j = line_index, open_paren_offset
    for _ in range(40):  # arg lists longer than 40 lines do not happen
        line = ctx.lines[i] if i < len(ctx.lines) else ""
        while j < len(line):
            ch = line[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "memory_order" in "".join(collected)
            collected.append(ch)
            j += 1
        collected.append("\n")
        i += 1
        j = 0
        if i >= len(ctx.lines):
            break
    return "memory_order" in "".join(collected)


def pinned_fp_contract_files(root: str) -> set[str]:
    """Files named in a CMakeLists.txt set_source_files_properties(...)
    block that also mentions ffp-contract=off, or {"*"} (every TU) when an
    add_compile_options(...) block carries the flag project-wide.

    One level of variable indirection is resolved: a block referencing
    ${VAR} counts as pinned when some set(VAR ...)/list(APPEND VAR ...)
    in the same file contains the literal flag. (CMake conditionals are
    not evaluated — the flag merely has to appear in the variable's
    construction, which is the honest static approximation.)"""
    cmake_path = os.path.join(root, "CMakeLists.txt")
    try:
        with open(cmake_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return set()
    flag_vars = {
        m.group(1)
        for m in re.finditer(
            r"(?:set|list\s*\(\s*APPEND)\s*\(?\s*(\w+)[^)]*ffp-contract=off",
            text)
    }

    def has_flag(block: str) -> bool:
        return "ffp-contract=off" in block or any(
            "${" + var + "}" in block for var in flag_vars)

    if any(has_flag(block)
           for block in call_blocks(text, "add_compile_options")):
        return {"*"}
    pinned: set[str] = set()
    for block in call_blocks(text, "set_source_files_properties"):
        if has_flag(block):
            pinned.update(re.findall(r"[\w/.+-]+\.(?:cpp|cc)", block))
    return pinned


def call_blocks(text: str, command: str) -> list[str]:
    """The parenthesised argument text of every `command(...)` call."""
    blocks = []
    for match in re.finditer(rf"\b{command}\s*\(", text):
        depth, i = 0, match.end() - 1
        start = i
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        blocks.append(text[start:i])
    return blocks


def last_identifier(expr: str) -> str | None:
    match = re.search(r"([A-Za-z_]\w*)\s*$", expr.strip())
    return match.group(1) if match else None


def lint_file(ctx: FileContext, pinned: set[str]) -> list[Violation]:
    violations: list[Violation] = []
    rel = ctx.rel

    def check(rule: str, line_index: int, pattern_hit: bool, message: str):
        if pattern_hit and in_scope(rel, rule) \
                and not ctx.allowed(line_index, rule):
            violations.append(Violation(rel, line_index + 1, rule, message))

    # Names declared as unordered containers / atomics anywhere in the
    # file (single pre-pass; declarations in this tree are single-line).
    unordered_names: set[str] = set()
    atomic_names: set[str] = set()
    code_lines = [strip_comments_and_strings(line) for line in ctx.lines]
    for code in code_lines:
        for match in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(match.group(1))
        for match in ATOMIC_DECL_RE.finditer(code):
            atomic_names.add(match.group(1))

    file_mentions_atomic = any("atomic" in code for code in code_lines)

    for idx, code in enumerate(code_lines):
        check("rng", idx, bool(RNG_PATTERN.search(code)),
              "ad-hoc RNG source; derive draws from util::Rng / "
              "stateless_uniform (seeded, forkable, checkpointable)")
        check("time-seed", idx, bool(TIME_SEED_PATTERN.search(code)),
              "wall-clock value feeding program state; use a fixed seed "
              "or obs::now_ns for observational timing")
        check("omp", idx, bool(OMP_PATTERN.search(code)),
              "OpenMP pragma outside util/; use util::parallel_for so "
              "the nested-serial pinning policy holds")
        check("raw-thread", idx, bool(THREAD_PATTERN.search(code)),
              "raw std::thread outside util/; use util::ThreadPool "
              "(or annotate deliberate thread-spawning test code)")

        for match in RANGE_FOR_RE.finditer(code):
            range_expr = match.group(2)
            name = last_identifier(range_expr)
            hit = "unordered_" in range_expr or (
                name is not None and name in unordered_names)
            check("unordered-iter", idx, hit,
                  "iteration over an unordered container; order is "
                  "hash-seed-dependent — iterate a sorted/index-ordered "
                  "view instead")

        if in_scope(rel, "atomic-order") and file_mentions_atomic:
            for match in ATOMIC_METHOD_RE.finditer(code):
                open_paren = code.index("(", match.end() - 1)
                if not call_args_have_memory_order(ctx, idx, open_paren):
                    check("atomic-order", idx, True,
                          f".{match.group(1)}() without an explicit "
                          "std::memory_order argument")
            for name in atomic_names:
                op = re.search(
                    rf"(?<![\w.]){re.escape(name)}\s*"
                    rf"(\+\+|--|(?:[-+|&^]|)=(?!=))", code)
                # `type name = init` declares a plain local that happens to
                # share an atomic's name — a preceding type-ish token means
                # declaration, not an atomic store.
                if op and re.search(r"[\w>&*]\s+$", code[:op.start()]):
                    op = None
                if op:
                    check("atomic-order", idx, True,
                          f"operator '{op.group(1)}' on atomic '{name}' "
                          "is seq_cst; spell out the memory order")

        if rel.endswith((".cpp", ".cc")):
            hit = bool(ISA_CLONE_RE.search(code)) and not (
                rel in pinned or "*" in pinned)
            check("fp-contract-pin", idx, hit,
                  "TU defines ISA-cloned kernels but CMakeLists.txt does "
                  "not pin it with -ffp-contract=off; wide-FMA clones "
                  "would contract differently than the default clone")

        accum = FLOAT_ACCUM_RE.search(code)
        check("float-accum", idx, accum is not None,
              f"float accumulator '{accum.group(1) if accum else ''}' in "
              "a non-kernel TU; accumulate in double (or move the "
              "reduction into tensor/)")

    return violations


def collect_files(root: str, paths: list[str]) -> list[str]:
    """Returns POSIX-relative paths of every C++ file to scan."""
    rels: list[str] = []
    if paths:
        roots = paths
    else:
        roots = [os.path.join(root, d) for d in SCAN_DIRS]
    for top in roots:
        if os.path.isfile(top):
            rels.append(os.path.relpath(top, root).replace(os.sep, "/"))
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    rels.append(
                        os.path.relpath(full, root).replace(os.sep, "/"))
    return rels


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="skiptrain determinism linter (see module docstring)")
    parser.add_argument("--root", default=".",
                        help="repo root; scan roots and CMakeLists.txt "
                             "are resolved against it (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and scopes, then exit 0")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to scan instead of the "
                             "default src/ bench/ tests/ under --root")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, scope in RULE_SCOPES.items():
            exempt = f" exempt={','.join(scope['exempt'])}" \
                if scope["exempt"] else ""
            print(f"{rule}: dirs={','.join(scope['dirs'])}{exempt}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"lint_determinism: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(f"lint_determinism: no such path: {path}", file=sys.stderr)
            return 2

    pinned = pinned_fp_contract_files(root)
    violations: list[Violation] = []
    for rel in collect_files(root, args.paths):
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().splitlines()
        except OSError as error:
            print(f"lint_determinism: cannot read {rel}: {error}",
                  file=sys.stderr)
            return 2
        ctx = FileContext(rel=rel, lines=lines, allows=parse_allows(lines))
        violations.extend(lint_file(ctx, pinned))

    for v in violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"lint_determinism: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
