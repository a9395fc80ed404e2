#!/usr/bin/env python3
"""Smoke-check the ``cnvsim trace`` pipeline end to end.

Run as a CTest check (see tests/CMakeLists.txt): invokes the given
cnvsim binary on a small zoo network, then verifies the trace file is
non-empty, parses as JSON, and carries the documented envelope
(metadata with drop accounting plus a non-empty traceEvents array
with 'M' naming records and 'X' spans).

Usage: smoke_trace.py CNVSIM NETWORK OUT_DIR
"""

import json
import subprocess
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim, network, out_dir = argv[1], argv[2], Path(argv[3])
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{network}-trace.json"
    csv_path = out_dir / f"{network}-stalls.csv"

    cmd = [
        cnvsim, "trace", "--net", network,
        "--trace-out", str(trace_path), "--stall-csv", str(csv_path),
    ]
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print(f"smoke_trace: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        return 1

    text = trace_path.read_text()
    if not text.strip():
        print(f"smoke_trace: {trace_path} is empty", file=sys.stderr)
        return 1
    doc = json.loads(text)

    problems = []
    meta = doc.get("metadata", {})
    for key in ("clockDomain", "maxEvents", "droppedEvents"):
        if key not in meta:
            problems.append(f"metadata lacks {key}")
    events = doc.get("traceEvents", [])
    if not events:
        problems.append("traceEvents is empty")
    phases = {e.get("ph") for e in events}
    if "M" not in phases:
        problems.append("no track-naming 'M' records")
    if "X" not in phases:
        problems.append("no 'X' duration spans")
    if not any(e.get("cat") == "stall" for e in events):
        problems.append("no stall spans")
    if not csv_path.read_text().startswith("scope,layer,reason"):
        problems.append("stall CSV lacks the documented header")

    for p in problems:
        print(f"smoke_trace: {p}", file=sys.stderr)
    print(f"smoke_trace: {len(events)} events, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
