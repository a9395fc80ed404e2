#!/usr/bin/env python3
"""Module-layering gate over the src/ include graph.

Run as the ``layering`` CTest (see tests/CMakeLists.txt) from the
repository root. Extracts every ``#include "module/header.h"`` edge
between the modules under ``src/`` and checks the result against the
explicit allowed-dependency matrix below (the machine-readable form
of the layer diagram in docs/architecture.md):

  core -> sim -> {mem, tensor} -> zfnaf -> nn -> dadiannao
       -> {timing, power} -> arch -> pruning -> driver

with ``core`` as the header-only bottom module that includes nothing
from src/, ``sim`` as the base utility layer every module may use,
``mem`` as a leaf component library (memory-hierarchy models over
sim only), and ``ref`` — the cycle-level reference models — beside
the production stack: it may use everything up to ``dadiannao``, and
only ``driver`` (for ``cnvsim validate``) may include it.

Checks, in order:

  1. the matrix covers every module directory under src/;
  2. the matrix itself is acyclic (a cyclic matrix could launder any
     dependency);
  3. every observed include edge is declared in the matrix —
     undeclared cross-module edges are reported file:line;
  4. the observed module graph is acyclic;
  5. when a ``compile_commands.json`` is present (``--build-dir``,
     or auto-detected under build*/), every src/ translation unit
     appears in it — a .cc dropped from the build would silently
     escape every compile-time gate, including -Wthread-safety.

``--dot PATH`` additionally writes the module graph as Graphviz
(observed edges solid and labelled with their include-site count,
declared-but-unused edges dashed); CI renders and uploads it.

``--self-test`` (the mode the CTest runs) first checks the real
tree, then verifies the gate can fail: seeded forbidden edges must
be reported as violations (tensor -> driver, mem -> timing, and the
three the reference fence exists for: timing -> ref, production
reaching an oracle; ref -> timing, an oracle including the model it
checks; core -> sim, the bottom module including anything), a
seeded cycle must be detected, a cyclic matrix must be rejected,
and a fixture compile db must resolve relative "file" entries
against their "directory" while still catching an uncovered TU —
matching the check_perf_regression.py pattern.

Usage: check_layering.py [ROOT] [--build-dir DIR] [--dot PATH]
           [--self-test] [--quiet]

Exit status: 0 clean, 1 violations, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

# Allowed dependencies: module -> modules it may #include from.
# Keep this in lockstep with the table in docs/architecture.md
# ("Layering: the allowed-dependency matrix"). Edges are explicit
# and non-transitive: allowing timing -> core does not allow
# arch -> core.
ALLOWED = {
    "core": set(),
    "sim": {"core"},
    "mem": {"sim"},
    "tensor": {"core", "sim"},
    "zfnaf": {"tensor", "core", "sim"},
    "nn": {"tensor", "core", "sim"},
    "dadiannao": {"mem", "nn", "sim"},
    "timing": {"dadiannao", "zfnaf", "mem", "nn", "tensor", "core",
               "sim"},
    "power": {"dadiannao", "sim"},
    "arch": {"timing", "power", "dadiannao", "nn", "sim"},
    "pruning": {"arch", "timing", "dadiannao", "nn", "sim"},
    "ref": {"dadiannao", "zfnaf", "nn", "mem", "tensor", "core", "sim"},
    "driver": {"arch", "pruning", "ref", "timing", "power",
               "dadiannao", "mem", "nn", "zfnaf", "tensor", "sim"},
}

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


class Edge:
    """One observed cross-module include edge with its witness sites."""

    def __init__(self, src_mod: str, dst_mod: str):
        self.src = src_mod
        self.dst = dst_mod
        self.sites: list[str] = []  # "path:line: includes x/y.h"


def module_of(rel: str) -> str | None:
    """src-relative path -> module name (top-level dir), or None."""
    parts = rel.split("/")
    return parts[0] if len(parts) > 1 else None


def extract_edges(src_root: Path, quiet: bool):
    """Scan src/ and return ({(src,dst): Edge}, [problems], files)."""
    problems: list[str] = []
    edges: dict[tuple[str, str], Edge] = {}
    files = sorted(p for p in src_root.rglob("*")
                   if p.suffix in (".h", ".cc"))
    modules = sorted({m.name for m in src_root.iterdir() if m.is_dir()})
    for mod in modules:
        if mod not in ALLOWED:
            problems.append(
                f"src/{mod}: module missing from the allowed-dependency "
                "matrix (tools/check_layering.py ALLOWED; document it in "
                "docs/architecture.md)")
    for path in files:
        rel = path.relative_to(src_root).as_posix()
        mod = module_of(rel)
        if mod is None:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = INCLUDE.match(line)
            if not m:
                continue
            target = m.group(1)
            target_mod = module_of(target)
            if target_mod is None or target_mod == mod:
                continue
            if not (src_root / target).is_file():
                continue  # not a src/ module header (e.g. gtest)
            edge = edges.setdefault((mod, target_mod),
                                    Edge(mod, target_mod))
            edge.sites.append(f"src/{rel}:{lineno}: includes {target}")
    if not quiet:
        print(f"layering: {len(files)} files, {len(modules)} modules, "
              f"{len(edges)} distinct module edges")
    return edges, problems, files


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """Return one cycle as a node list, or None when acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    stack: list[str] = []

    def visit(n: str) -> list[str] | None:
        color[n] = GREY
        stack.append(n)
        for succ in sorted(graph.get(n, ())):
            if color.get(succ, WHITE) == GREY:
                return stack[stack.index(succ):] + [succ]
            if color.get(succ, WHITE) == WHITE:
                cycle = visit(succ)
                if cycle:
                    return cycle
        stack.pop()
        color[n] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def check_edges(edges: dict[tuple[str, str], Edge]) -> list[str]:
    problems = []
    matrix_cycle = find_cycle({m: set(d) for m, d in ALLOWED.items()})
    if matrix_cycle:
        problems.append("allowed-dependency matrix is cyclic: "
                        + " -> ".join(matrix_cycle))
    for (src_mod, dst_mod), edge in sorted(edges.items()):
        if dst_mod not in ALLOWED.get(src_mod, set()):
            first = edge.sites[0]
            more = (f" (+{len(edge.sites) - 1} more sites)"
                    if len(edge.sites) > 1 else "")
            problems.append(
                f"undeclared module edge {src_mod} -> {dst_mod}: "
                f"{first}{more} — either the include is a layering "
                "violation, or the edge must be added to ALLOWED and "
                "docs/architecture.md")
    observed = {m: set() for m in ALLOWED}
    for (src_mod, dst_mod) in edges:
        observed.setdefault(src_mod, set()).add(dst_mod)
    cycle = find_cycle(observed)
    if cycle:
        problems.append("include cycle between modules: "
                        + " -> ".join(cycle))
    return problems


def check_compile_db(root: Path, build_dir: Path | None,
                     quiet: bool) -> list[str]:
    """Every src/ TU must be compiled, else no compile-time gate
    (thread-safety, warnings) ever sees it."""
    candidates = []
    if build_dir:
        candidates.append(build_dir / "compile_commands.json")
    candidates += [root / "build" / "compile_commands.json",
                   root / "build" / "dev" / "compile_commands.json"]
    db_path = next((c for c in candidates if c.is_file()), None)
    if db_path is None:
        if not quiet:
            print("layering: no compile_commands.json found "
                  "(TU-coverage check skipped)")
        return []
    try:
        entries = json.loads(db_path.read_text())
        # "file" may be relative; the spec resolves it against the
        # entry's "directory", never against our own CWD.
        compiled = {
            (Path(e.get("directory", db_path.parent)) / e["file"]).resolve()
            for e in entries
        }
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        return [f"{db_path}: unreadable compile database ({err})"]
    problems = []
    for cc in sorted((root / "src").rglob("*.cc")):
        if cc.resolve() not in compiled:
            problems.append(
                f"{cc.relative_to(root)}: not in {db_path.name} — "
                "translation unit is not built, so compile-time "
                "analyses never see it")
    if not quiet:
        print(f"layering: compile db {db_path} covers "
              f"{len(compiled)} TUs")
    return problems


def write_dot(edges: dict[tuple[str, str], Edge], path: Path) -> None:
    lines = ["digraph cnv_layering {",
             "  rankdir=BT;",
             '  node [shape=box, fontname="Helvetica"];']
    for mod in sorted(ALLOWED):
        lines.append(f'  "{mod}";')
    for (src_mod, dst_mod), edge in sorted(edges.items()):
        lines.append(f'  "{src_mod}" -> "{dst_mod}" '
                     f'[label="{len(edge.sites)}"];')
    for src_mod, deps in sorted(ALLOWED.items()):
        for dst_mod in sorted(deps):
            if (src_mod, dst_mod) not in edges:
                lines.append(f'  "{src_mod}" -> "{dst_mod}" '
                             "[style=dashed, color=gray];")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def self_test(edges: dict[tuple[str, str], Edge]) -> list[str]:
    """Prove the gate can fail: seeded violations must be caught."""
    failures = []

    # Seeded forbidden edges, each with the include that would make
    # it: an upward include; mem (a leaf component library) reaching
    # the timing layer; and the reference fence — production reaching
    # an oracle, an oracle including the model it checks, the bottom
    # module including anything.
    for src_mod, dst_mod, target in (
            ("tensor", "driver", "driver/driver.h"),
            ("mem", "timing", "timing/network_model.h"),
            ("timing", "ref", "ref/cnv_unit.h"),
            ("ref", "timing", "timing/conv_model.h"),
            ("core", "sim", "sim/logging.h")):
        seeded = dict(edges)
        bad = Edge(src_mod, dst_mod)
        bad.sites.append(f"src/{src_mod}/seeded.h:1: includes {target}")
        seeded[(src_mod, dst_mod)] = bad
        if not any(f"{src_mod} -> {dst_mod}" in p
                   for p in check_edges(seeded)):
            failures.append(f"self-test: seeded forbidden edge "
                            f"{src_mod} -> {dst_mod} was NOT detected")

    cyclic = {m: set(d) for m, d in ALLOWED.items()}
    cyclic["sim"] = {"driver"}
    if find_cycle(cyclic) is None:
        failures.append("self-test: seeded matrix cycle "
                        "sim -> driver -> sim was NOT detected")

    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    if find_cycle(graph) is None:
        failures.append("self-test: 3-cycle was NOT detected")

    # Compile-db entries with a relative "file" must resolve against
    # their own "directory" (per the compile-db spec), never against
    # this script's CWD — a CWD-dependent resolution would mark every
    # TU missing (or silently cover nothing) depending on where ctest
    # happens to run.
    with tempfile.TemporaryDirectory(prefix="layering-selftest-") as tmp:
        fake = Path(tmp)
        (fake / "src" / "ref").mkdir(parents=True)
        (fake / "src" / "ref" / "cnv_unit.cc").write_text("// fixture\n")
        build = fake / "build"
        build.mkdir()
        (build / "compile_commands.json").write_text(json.dumps([
            {"directory": str(build),
             "file": "../src/ref/cnv_unit.cc",
             "command": "c++ -c ../src/ref/cnv_unit.cc"}]))
        if check_compile_db(fake, build, quiet=True):
            failures.append("self-test: relative compile-db entry was "
                            "not resolved against its directory")
        (fake / "src" / "ref" / "orphan.cc").write_text("// fixture\n")
        if not check_compile_db(fake, build, quiet=True):
            failures.append("self-test: TU missing from the compile db "
                            "was NOT detected")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build tree holding compile_commands.json")
    parser.add_argument("--dot", type=Path, default=None,
                        help="write the module graph as Graphviz")
    parser.add_argument("--self-test", action="store_true",
                        help="additionally verify seeded violations "
                             "are caught")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv[1:])

    root = Path(args.root).resolve()
    src_root = root / "src"
    if not src_root.is_dir():
        print(f"layering: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    edges, problems, _files = extract_edges(src_root, args.quiet)
    problems += check_edges(edges)
    problems += check_compile_db(root, args.build_dir, args.quiet)

    if args.dot:
        write_dot(edges, args.dot)
        if not args.quiet:
            print(f"layering: wrote {args.dot}")

    if args.self_test:
        problems += self_test(edges)

    for p in problems:
        print(p, file=sys.stderr)
    print(f"layering: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
