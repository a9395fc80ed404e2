#!/usr/bin/env python3
"""cnvlint — Cnvlutin-specific invariants no generic linter can know.

Run as a CTest check (see tests/CMakeLists.txt) from the repository
root, or pass the root as the first argument. Eleven rules over
``src/**``:

  magic-16      The brick/lane/unit/filter/bank geometry of the paper
                is 16 everywhere, so a bare literal ``16`` in library
                code is almost always a geometry constant in disguise.
                Literal 16s may only appear in the configuration
                headers that *define* the named constants
                (``src/dadiannao/config.h``, ``src/zfnaf/format.h``),
                in ``constexpr`` constant definitions (the definition
                names the value), or in the network-shape tables under
                ``src/nn/zoo/`` (channel counts, not geometry).
  include-guard Header guards follow ``CNV_<PATH>_H`` derived from the
                path under src/ (e.g. src/sim/error.h ->
                CNV_SIM_ERROR_H), with a matching #define.
  error-style   Library code reports failure through
                ``cnv::sim::PanicError``/``FatalError`` (via
                CNV_PANIC/CNV_FATAL/CNV_ASSERT), never ``assert()``,
                ``abort()`` or ``exit()``. ``static_assert`` is fine;
                the CLI entry point (``src/driver/cnvsim_main.cc``)
                may ``exit`` with a usage message.
  cast-ban      ``reinterpret_cast`` and ``const_cast`` are banned —
                use the memcpy helpers in ``tensor/bytes.h`` for byte
                I/O. No current allowlist entries.
  schema-docs   Every field emitted by the exporters must be
                documented in docs/observability.md, so the wire
                schema and its documentation cannot drift apart. Two
                kinds of source are read: the ``w.key("...")``
                literals of src/sim/{stats_export,trace_event,
                metrics}.cc, and, in the files holding the report's
                field lists and the stall-reason table
                (src/sim/stall_profile.cc, src/driver/run_manifest.cc,
                src/driver/stats_report.cc), every string literal
                shaped like a dotted field path, split into its
                components (``"cache.tensorHits"`` checks ``cache``
                and ``tensorHits``).
  arch-dispatch Architecture variants are selected through the
                ``arch::ArchModel`` registry (src/arch/), never by
                dispatching on the ``timing::Arch`` datapath enum
                directly. The enum may appear only inside
                ``src/timing/`` (its definition) and ``src/arch/``
                (the registry records naming each model's datapath).
  raw-thread    All concurrency goes through the deterministic pool
                (``sim::ThreadPool`` / ``sim::parallelFor``), so
                ``std::thread``, ``std::jthread`` and ``std::async``
                are banned outside ``src/sim/parallel.h`` /
                ``src/sim/parallel.cc`` — ad-hoc threads would bypass
                the --jobs limit and the ordered-commit determinism
                guarantee.
  host-timing   All host wall-clock reads go through the metrics
                registry (``sim::MetricsRegistry::nowNanos()``), so
                the ``std::chrono`` clocks are banned outside
                ``src/sim/metrics.h`` / ``src/sim/metrics.cc`` —
                scattered clock reads would fragment the telemetry
                the hostProfile section reports.
  rng-source    All randomness flows from the seeded ``sim::Rng``
                splittable streams, so ``rand()``, ``srand()`` and
                ``std::random_device`` are banned outside
                ``src/sim/rng.h`` / ``src/sim/rng.cc`` — an unseeded
                source would silently break run-to-run
                reproducibility and the determinism smoke test.
  raw-simd      All vector code goes through the portable layer in
                ``src/core/simd.h`` (the one file allowed to include
                intrinsics headers and name ``__m128``/``__m256``/
                NEON vector types). Scattered intrinsics would
                bypass the CNV_SIMD=OFF scalar fallback and the
                backend-equivalence guarantee the reports rely on.
  unordered-iteration
                Range-for over ``std::unordered_map`` /
                ``std::unordered_set`` is banned in ``src/driver``
                and ``src/sim/stats_export.*`` — hash-order
                iteration there leaks nondeterministic ordering
                straight into reports and exported JSON/CSV. Sort
                the keys first (see the snapshot pattern in
                stats_export.cc).

Suppressions: append ``// cnvlint: allow(<rule>)`` (with an optional
— justification) to the offending line or the line directly above
it. Every suppression in the tree must be justified; the policy and
current inventory live in docs/development.md.

Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Files whose whole purpose is defining the named geometry constants.
MAGIC16_FILE_ALLOWLIST = {
    "src/dadiannao/config.h",
    "src/zfnaf/format.h",
}
# Network-definition tables: literal channel counts, not geometry.
MAGIC16_DIR_ALLOWLIST = ("src/nn/zoo/",)

# The CLI front end may exit() after printing usage.
ERROR_STYLE_ALLOWLIST = {
    "src/driver/cnvsim_main.cc": {"exit"},
}

SCHEMA_SOURCES = (
    "src/sim/stats_export.cc",
    "src/sim/trace_event.cc",
    "src/sim/metrics.cc",
)
# Where the report's field lists and the stall-reason table live.
SCHEMA_FIELD_SOURCES = (
    "src/sim/stall_profile.cc",
    "src/driver/run_manifest.cc",
    "src/driver/stats_report.cc",
)
SCHEMA_DOC = "docs/observability.md"

# Directories where the timing::Arch datapath enum is legitimately
# visible: its defining module plus the registry records naming it.
ARCH_DISPATCH_DIR_ALLOWLIST = ("src/timing/", "src/arch/")

# The one module allowed to own threads: the deterministic pool.
RAW_THREAD_FILE_ALLOWLIST = {
    "src/sim/parallel.h",
    "src/sim/parallel.cc",
}

# The one file allowed raw SIMD: the portable dispatch layer.
RAW_SIMD_FILE_ALLOWLIST = {
    "src/core/simd.h",
}

# The one module allowed to read the host clock: the metrics registry.
HOST_TIMING_FILE_ALLOWLIST = {
    "src/sim/metrics.h",
    "src/sim/metrics.cc",
}

# The one module allowed to source randomness: the seeded Rng streams.
RNG_SOURCE_FILE_ALLOWLIST = {
    "src/sim/rng.h",
    "src/sim/rng.cc",
}

# Where hash-order iteration would leak into user-visible output.
UNORDERED_ITER_SCOPE = ("src/driver/", "src/sim/stats_export.")

SUPPRESS = re.compile(r"cnvlint:\s*allow\(([a-z0-9-]+)\)")
ARCH_ENUM = re.compile(r"\btiming::Arch\b")
RAW_THREAD = re.compile(r"\bstd::(thread|jthread|async)\b")
SIMD_INCLUDE = re.compile(
    r"#\s*include\s*<((?:[a-z0-9]*intrin|arm_neon|arm_acle|arm_sve)\.h)>"
)
SIMD_TYPE = re.compile(
    r"\b(__m(?:64|128|256|512)[di]?"
    r"|(?:u?int|float|poly)(?:8|16|32|64)x\d+(?:x\d)?_t)\b"
)
HOST_TIMING = re.compile(
    r"\bstd::chrono::(steady_clock|system_clock|high_resolution_clock)\b"
)
RNG_CALL = re.compile(r"(?<![\w.])(?:std::)?(srand|rand)\s*\(")
RNG_DEVICE = re.compile(r"\bstd::random_device\b")
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>\s+(\w+)\s*[;={(]"
)
# Range-for: the single `:` separating declaration from range. The
# lookarounds keep `::` qualifiers from matching, and the declaration
# part excludes `;` and `?` so a classic for-loop with a ternary in
# its init clause (`for (int i = flag ? 1 : 0; ...)`) is not
# mistaken for a range-for.
RANGE_FOR = re.compile(r"\bfor\s*\([^;)?]*?(?<!:):(?!:)([^)]*)\)")
# A range expression that IS one identifier (optionally parenthesised,
# dereferenced, or reached via qualifiers / member access) — as
# opposed to a call like `sortedKeys(map)` whose result imposes its
# own order. Group 1 is the final identifier.
DIRECT_RANGE = re.compile(
    r"^\s*\(?\s*[*&]?\s*(?:[A-Za-z_]\w*(?:::|\.|->))*([A-Za-z_]\w*)\s*\)?\s*$"
)
BARE_16 = re.compile(r"(?<![\w.])16(?![\w.])")
ERROR_CALLS = re.compile(r"(?<![\w:.])(assert|abort|exit)\s*\(")
BANNED_CASTS = re.compile(r"\b(reinterpret_cast|const_cast)\b")
KEY_LITERAL = re.compile(r'\bkey\("([^"]+)"\)')
# A whole string literal that is a dotted field path or a piece of
# one ("archs." + id + ".cycles" yields "archs." and ".cycles").
PATH_LITERAL = re.compile(
    r'"(\.?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\.?)"'
)
# A line up to its first //-comment outside string literals.
BEFORE_COMMENT = re.compile(r'(?:[^"/]|"(?:[^"\\]|\\.)*"|/(?!/))*')


def strip_comments(text: str) -> str:
    """Blank out block comments, preserving line structure."""
    return re.sub(
        r"/\*.*?\*/",
        lambda m: "\n" * m.group(0).count("\n"),
        text,
        flags=re.S,
    )


def code_of(line: str) -> str:
    """The code part of one line: no trailing //-comment, no strings."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//")[0]


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.problems: list[str] = []

    def report(self, path: Path, lineno: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.problems.append(f"{rel}:{lineno}: [{rule}] {msg}")

    def suppressed(self, lines: list[str], idx: int, rule: str) -> bool:
        """allow(<rule>) on this line or the full-line comment above."""
        for probe in (idx, idx - 1):
            if 0 <= probe < len(lines):
                m = SUPPRESS.search(lines[probe])
                if m and m.group(1) == rule:
                    return True
        return False

    # --- rules ---------------------------------------------------------

    def check_magic16(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if rel in MAGIC16_FILE_ALLOWLIST:
            return
        if rel.startswith(MAGIC16_DIR_ALLOWLIST):
            return
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            if not BARE_16.search(code):
                continue
            # A constexpr definition names the value; that is the point.
            if re.search(r"\bconstexpr\b.*=", code):
                continue
            if self.suppressed(lines, idx, "magic-16"):
                continue
            self.report(
                path, idx + 1, "magic-16",
                "bare literal 16 — use the named geometry constant "
                "(NodeConfig field, zfnaf::kPaperBrickSize/kNeuronBits) "
                "or a constexpr definition",
            )

    def check_include_guard(self, path: Path, text: str) -> None:
        rel = path.relative_to(self.root / "src")
        expected = "CNV_" + re.sub(
            r"[^A-Z0-9]", "_", str(rel).upper()
        )
        m = re.search(r"#ifndef\s+(\S+)\s*\n\s*#define\s+(\S+)", text)
        if not m:
            self.report(path, 1, "include-guard",
                        f"missing #ifndef/#define guard {expected}")
            return
        if m.group(1) != expected or m.group(2) != expected:
            self.report(
                path, text[: m.start()].count("\n") + 1, "include-guard",
                f"guard is {m.group(1)}, expected {expected}",
            )

    def check_error_style(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        allowed = ERROR_STYLE_ALLOWLIST.get(rel, set())
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            for m in ERROR_CALLS.finditer(code):
                name = m.group(1)
                # static_assert is a different (compile-time) animal.
                if name == "assert" and "static_assert" in code:
                    continue
                if name in allowed:
                    continue
                if self.suppressed(lines, idx, "error-style"):
                    continue
                self.report(
                    path, idx + 1, "error-style",
                    f"{name}() in library code — throw via CNV_PANIC/"
                    "CNV_FATAL/CNV_ASSERT (sim/logging.h) so embedders "
                    "and tests can observe the failure",
                )

    def check_cast_ban(self, path: Path, lines: list[str]) -> None:
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = BANNED_CASTS.search(code)
            if not m:
                continue
            if self.suppressed(lines, idx, "cast-ban"):
                continue
            self.report(
                path, idx + 1, "cast-ban",
                f"{m.group(1)} — use the memcpy helpers in "
                "tensor/bytes.h (or justify with a suppression)",
            )

    def check_arch_dispatch(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if rel.startswith(ARCH_DISPATCH_DIR_ALLOWLIST):
            return
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = ARCH_ENUM.search(code)
            if not m:
                continue
            if self.suppressed(lines, idx, "arch-dispatch"):
                continue
            self.report(
                path, idx + 1, "arch-dispatch",
                f"{m.group(0)} outside src/timing and src/arch — "
                "select architectures through the "
                "arch::ArchModel registry (arch/registry.h)",
            )

    def check_raw_thread(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if rel in RAW_THREAD_FILE_ALLOWLIST:
            return
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = RAW_THREAD.search(code)
            if not m:
                continue
            if self.suppressed(lines, idx, "raw-thread"):
                continue
            self.report(
                path, idx + 1, "raw-thread",
                f"std::{m.group(1)} outside src/sim/parallel.* — use "
                "sim::ThreadPool / sim::parallelFor so the --jobs "
                "limit and the determinism guarantee hold",
            )

    def check_raw_simd(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if rel in RAW_SIMD_FILE_ALLOWLIST:
            return
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = SIMD_INCLUDE.search(code) or SIMD_TYPE.search(code)
            if not m:
                continue
            if self.suppressed(lines, idx, "raw-simd"):
                continue
            self.report(
                path, idx + 1, "raw-simd",
                f"{m.group(1)} outside src/core/simd.h — raw "
                "intrinsics bypass the CNV_SIMD dispatch and its "
                "scalar-fallback equivalence guarantee; extend the "
                "portable layer instead",
            )

    def check_host_timing(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if rel in HOST_TIMING_FILE_ALLOWLIST:
            return
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = HOST_TIMING.search(code)
            if not m:
                continue
            if self.suppressed(lines, idx, "host-timing"):
                continue
            self.report(
                path, idx + 1, "host-timing",
                f"std::chrono::{m.group(1)} outside src/sim/metrics.* "
                "— read the clock through sim::MetricsRegistry::"
                "nowNanos() so all host telemetry shares one epoch",
            )

    def check_rng_source(self, path: Path, lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if rel in RNG_SOURCE_FILE_ALLOWLIST:
            return
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = RNG_CALL.search(code) or RNG_DEVICE.search(code)
            if not m:
                continue
            if self.suppressed(lines, idx, "rng-source"):
                continue
            what = (m.group(1) + "()" if m.re is RNG_CALL
                    else "std::random_device")
            self.report(
                path, idx + 1, "rng-source",
                f"{what} outside src/sim/rng.* — draw from the seeded "
                "sim::Rng splittable streams so runs stay reproducible",
            )

    def check_unordered_iteration(self, path: Path,
                                  lines: list[str]) -> None:
        rel = str(path.relative_to(self.root))
        if not rel.startswith(UNORDERED_ITER_SCOPE):
            return
        # Identifiers declared with an unordered container type
        # anywhere in this file (members and locals alike).
        declared = set()
        for raw in lines:
            declared.update(UNORDERED_DECL.findall(code_of(raw)))
        for idx, raw in enumerate(lines):
            code = code_of(raw)
            m = RANGE_FOR.search(code)
            if not m:
                continue
            range_expr = m.group(1)
            # Flag only iteration over the unordered container itself:
            # either the range expression names an unordered type
            # inline, or it is directly an identifier declared with
            # one. An identifier merely appearing inside a larger
            # expression (e.g. `sortedKeys(map)`) is someone imposing
            # an order and must not fire the rule.
            direct = DIRECT_RANGE.match(range_expr)
            if ("unordered_" not in range_expr
                    and not (direct and direct.group(1) in declared)):
                continue
            if self.suppressed(lines, idx, "unordered-iteration"):
                continue
            self.report(
                path, idx + 1, "unordered-iteration",
                "range-for over an unordered container in "
                "report-emitting code — hash order is "
                "nondeterministic; sort the keys first (see the "
                "snapshot pattern in src/sim/stats_export.cc)",
            )

    def check_schema_docs(self) -> None:
        doc_path = self.root / SCHEMA_DOC
        if not doc_path.is_file():
            self.problems.append(f"{SCHEMA_DOC}: missing (schema-docs)")
            return
        doc_words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                   doc_path.read_text()))
        for rel in SCHEMA_SOURCES + SCHEMA_FIELD_SOURCES:
            src = self.root / rel
            if not src.is_file():
                continue  # partial trees (rule self-test fixtures)
            pattern = (KEY_LITERAL if rel in SCHEMA_SOURCES
                       else PATH_LITERAL)
            text = strip_comments(src.read_text())
            for idx, line in enumerate(text.splitlines()):
                code = BEFORE_COMMENT.match(line).group(0)
                for m in pattern.finditer(code):
                    for field in m.group(1).split("."):
                        if field and field not in doc_words:
                            self.report(
                                src, idx + 1, "schema-docs",
                                f'emitted field "{field}" (of '
                                f'"{m.group(1)}") is not mentioned '
                                f"in {SCHEMA_DOC}",
                            )

    # --- driver --------------------------------------------------------

    def run(self) -> int:
        sources = sorted(
            p for p in (self.root / "src").rglob("*")
            if p.suffix in (".h", ".cc")
        )
        if not sources:
            print("cnvlint: no sources under src/", file=sys.stderr)
            return 2
        for path in sources:
            raw = path.read_text()
            # Block comments blanked; //-comments survive so the
            # suppression scan still sees them (code_of strips them
            # before matching).
            lines = strip_comments(raw).splitlines()
            self.check_magic16(path, lines)
            self.check_error_style(path, lines)
            self.check_cast_ban(path, lines)
            self.check_arch_dispatch(path, lines)
            self.check_raw_thread(path, lines)
            self.check_raw_simd(path, lines)
            self.check_host_timing(path, lines)
            self.check_rng_source(path, lines)
            self.check_unordered_iteration(path, lines)
            if path.suffix == ".h":
                self.check_include_guard(path, raw)
        self.check_schema_docs()

        for p in self.problems:
            print(p, file=sys.stderr)
        print(f"cnvlint: {len(sources)} files, "
              f"{len(self.problems)} problem(s)")
        return 1 if self.problems else 0


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path.cwd()
    if not (root / "src").is_dir():
        print(f"cnvlint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    return Linter(root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
