#!/usr/bin/env python3
"""Unit tests for cnvlint's rules against seeded fixture trees.

Run as the ``cnvlint_selftest`` CTest. The production ``cnvlint``
CTest only proves the real tree is clean — it cannot distinguish "no
violations" from "rules silently broken". This script builds a
throwaway mini-tree with violations seeded at known file:line
positions and asserts each is reported with the right rule tag, then
builds a clean mini-tree and asserts zero findings, exercising:

  * rng-source          rand()/srand()/std::random_device outside
                        src/sim/rng.*, and the rng.* allowlist;
  * unordered-iteration range-for over unordered containers in
                        src/driver and src/sim/stats_export.*, the
                        out-of-scope exemption, and suppression via
                        `cnvlint: allow(...)`;
  * raw-simd            intrinsics headers and raw vector types
                        outside src/core/simd.h, the simd.h
                        allowlist, and suppression;
  * arch-dispatch       timing::Arch outside src/timing and src/arch,
                        both allowlisted modules, and suppression;
  * schema-docs         a report field-list path whose last component
                        the schema doc never mentions, next to
                        documented paths, path pieces and a
                        //-comment that must NOT be flagged;
  * cast-ban            a legacy rule, as an engine regression canary.

Usage: check_cnvlint_rules.py [REPO_ROOT]

Exit status: 0 all expectations hold, 1 a rule failed to fire (or
over-fired), 2 setup error.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path


def load_cnvlint(repo_root: Path):
    spec = importlib.util.spec_from_file_location(
        "cnvlint", repo_root / "tools" / "cnvlint.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def seed_violating_tree(root: Path) -> dict[tuple[str, int], str]:
    """Create the fixture; return {(file, line): rule} expectations."""
    # Allowlisted randomness owner: must NOT be flagged.
    write(root, "src/sim/rng.h", "\n".join([
        "/** @file Seeded Rng fixture. */",
        "#ifndef CNV_SIM_RNG_H",
        "#define CNV_SIM_RNG_H",
        "#include <random>",
        "inline unsigned entropy() { std::random_device rd; return rd(); }",
        "#endif // CNV_SIM_RNG_H",
    ]) + "\n")
    # Three rng-source violations at lines 2, 3, 4.
    write(root, "src/nn/bad_rng.cc", "\n".join([
        "#include <cstdlib>",
        "int draw() { return std::rand(); }",
        "void reseed() { srand(7u); }",
        "unsigned hw() { std::random_device rd; return rd(); }",
    ]) + "\n")
    # unordered-iteration: flagged at line 5, suppressed at line 8.
    write(root, "src/driver/bad_report.cc", "\n".join([
        "#include <unordered_map>",
        "int sum() {",
        "    std::unordered_map<int, int> counters;",
        "    int total = 0;",
        "    for (const auto &kv : counters)",
        "        total += kv.second;",
        "    // hash order irrelevant: cnvlint: allow(unordered-iteration)",
        "    for (const auto &kv : counters)",
        "        total -= kv.second;",
        "    return total;",
        "}",
    ]) + "\n")
    # stats_export.* is in scope too: flagged at line 4.
    write(root, "src/sim/stats_export.cc", "\n".join([
        "#include <unordered_set>",
        "int count() {",
        "    std::unordered_set<int> keys;",
        "    for (int k : keys) { (void)k; }",
        "    return 0;",
        "}",
    ]) + "\n")
    # Out of the rule's scope: identical loop, must NOT be flagged.
    write(root, "src/timing/ok_iter.cc", "\n".join([
        "#include <unordered_map>",
        "int walk() {",
        "    std::unordered_map<int, int> scratch;",
        "    for (const auto &kv : scratch) { (void)kv; }",
        "    return 0;",
        "}",
    ]) + "\n")
    # Legacy-rule canary: cast-ban at line 2.
    write(root, "src/core/bad_cast.cc", "\n".join([
        "float punned(long bits) {",
        "    return *reinterpret_cast<float *>(&bits);",
        "}",
    ]) + "\n")
    # Allowlisted SIMD owner: raw intrinsics must NOT be flagged.
    write(root, "src/core/simd.h", "\n".join([
        "/** @file Portable SIMD fixture. */",
        "#ifndef CNV_CORE_SIMD_H",
        "#define CNV_CORE_SIMD_H",
        "#include <immintrin.h>",
        "struct VecFixture { __m256i v; };",
        "#endif // CNV_CORE_SIMD_H",
    ]) + "\n")
    # raw-simd violations: include at line 1, x86 type at line 3,
    # NEON type at line 4; suppressed at line 6.
    write(root, "src/timing/bad_simd.cc", "\n".join([
        "#include <immintrin.h>",
        "int lanes() {",
        "    __m256i acc;",
        "    int16x8_t neon;",
        "    // measured, justified: cnvlint: allow(raw-simd)",
        "    __m128i ok;",
        "    return 0;",
        "}",
    ]) + "\n")
    # arch-dispatch: flagged at line 2, suppressed at line 4.
    write(root, "src/driver/bad_dispatch.cc", "\n".join([
        "#include \"timing/network_model.h\"",
        "int pick(cnv::timing::Arch a) { return static_cast<int>(a); }",
        "// legacy entry point: cnvlint: allow(arch-dispatch)",
        "int legacy(cnv::timing::Arch a) { return static_cast<int>(a); }",
    ]) + "\n")
    # The enum's defining module and the registry records naming it:
    # must NOT be flagged.
    write(root, "src/timing/network_model.h", "\n".join([
        "/** @file Datapath enum fixture. */",
        "#ifndef CNV_TIMING_NETWORK_MODEL_H",
        "#define CNV_TIMING_NETWORK_MODEL_H",
        "namespace cnv::timing { enum class Arch { Baseline, Cnv }; }",
        "inline int first() { return int(cnv::timing::Arch::Baseline); }",
        "#endif // CNV_TIMING_NETWORK_MODEL_H",
    ]) + "\n")
    write(root, "src/arch/arch_model.cc", "\n".join([
        "#include \"timing/network_model.h\"",
        "cnv::timing::Arch datapath() { return cnv::timing::Arch::Cnv; }",
    ]) + "\n")
    # schema-docs: the field list's undocumented leaf at line 4; the
    # documented path, the path pieces and the comment pass.
    write(root, "docs/observability.md",
          "# Schema fixture: summary, cache, tensorHits, archs, cycles\n")
    write(root, "src/driver/run_manifest.cc", "\n".join([
        "std::vector<Field> fields(const std::string &id) {",
        "    return {{\"summary.cache.tensorHits\", 1u, \"known path\"},",
        "            {\"archs.\" + id + \".cycles\", 2u, \"path pieces\"},",
        "            {\"summary.cache.coffeeBreaks\", 3u, \"a new leaf\"},",
        "            // {\"summary.commentedOut\", 4u, \"not emitted\"},",
        "    };",
        "}",
    ]) + "\n")
    return {
        ("src/nn/bad_rng.cc", 2): "rng-source",
        ("src/nn/bad_rng.cc", 3): "rng-source",
        ("src/nn/bad_rng.cc", 4): "rng-source",
        ("src/driver/bad_report.cc", 5): "unordered-iteration",
        ("src/sim/stats_export.cc", 4): "unordered-iteration",
        ("src/core/bad_cast.cc", 2): "cast-ban",
        ("src/timing/bad_simd.cc", 1): "raw-simd",
        ("src/timing/bad_simd.cc", 3): "raw-simd",
        ("src/timing/bad_simd.cc", 4): "raw-simd",
        ("src/driver/bad_dispatch.cc", 2): "arch-dispatch",
        ("src/driver/run_manifest.cc", 4): "schema-docs",
    }


def seed_clean_tree(root: Path) -> None:
    write(root, "src/sim/rng.cc", "\n".join([
        "#include <random>",
        "unsigned seedFromHardware() { std::random_device rd; return rd(); }",
    ]) + "\n")
    write(root, "src/driver/good_report.cc", "\n".join([
        "#include <map>",
        "int sum() {",
        "    std::map<int, int> counters;",
        "    int total = 0;",
        "    for (const auto &kv : counters)",
        "        total += kv.second;",
        "    return total;",
        "}",
    ]) + "\n")
    # unordered-iteration must not fire on either of these, even
    # though both files are in scope and declare unordered names:
    # a classic for-loop whose init clause holds a ternary is not a
    # range-for, and iterating a sorted wrapper's result imposes an
    # order regardless of what was passed in.
    # The portable layer itself: intrinsics are its whole purpose.
    write(root, "src/core/simd.h", "\n".join([
        "/** @file Portable SIMD fixture. */",
        "#ifndef CNV_CORE_SIMD_H",
        "#define CNV_CORE_SIMD_H",
        "#include <immintrin.h>",
        "struct VecFixture { __m128i v; };",
        "#endif // CNV_CORE_SIMD_H",
    ]) + "\n")
    write(root, "src/driver/good_loops.cc", "\n".join([
        "#include <unordered_map>",
        "#include <vector>",
        "std::vector<int> sortedKeys(const std::unordered_map<int, int> &);",
        "int walk(bool flag) {",
        "    std::unordered_map<int, int> counters;",
        "    int total = 0;",
        "    for (int i = flag ? 1 : 0; i < counters.size(); ++i)",
        "        total += i;",
        "    for (int k : sortedKeys(counters))",
        "        total += k;",
        "    return total;",
        "}",
    ]) + "\n")
    write(root, "docs/observability.md", "# Schema fixture\n")


def main(argv: list[str]) -> int:
    repo_root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    if not (repo_root / "tools" / "cnvlint.py").is_file():
        print(f"check_cnvlint_rules: {repo_root} has no tools/cnvlint.py",
              file=sys.stderr)
        return 2
    cnvlint = load_cnvlint(repo_root)
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="cnvlint-fixture-") as tmp:
        fixture = Path(tmp)
        expected = seed_violating_tree(fixture)
        linter = cnvlint.Linter(fixture)
        rc = linter.run()
        if rc != 1:
            failures.append(f"violating fixture: expected exit 1, got {rc}")
        for (rel, line), rule in sorted(expected.items()):
            needle = f"{rel}:{line}: [{rule}]"
            if not any(p.startswith(needle) for p in linter.problems):
                failures.append(f"rule {rule} did not fire at {rel}:{line}")
        for problem in linter.problems:
            loc, rule = problem.split(": [", 1)
            rel, line = loc.rsplit(":", 1)
            if expected.get((rel, int(line))) != rule.split("]", 1)[0]:
                failures.append(f"unexpected finding: {problem}")

    with tempfile.TemporaryDirectory(prefix="cnvlint-fixture-") as tmp:
        fixture = Path(tmp)
        seed_clean_tree(fixture)
        linter = cnvlint.Linter(fixture)
        rc = linter.run()
        if rc != 0:
            failures.append(
                f"clean fixture: expected exit 0, got {rc}: "
                + "; ".join(linter.problems))

    for f in failures:
        print(f"check_cnvlint_rules: FAIL: {f}", file=sys.stderr)
    print(f"check_cnvlint_rules: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
