#!/usr/bin/env python3
"""The Corra benchmark: one command, three seeded workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``ingest`` - plan each paper table from a sample, then compress
  fixed-size chunks and append them to ``.corra`` files;
* ``scan``   - a mix of named query shapes over in-memory relations;
* ``serve``  - two closed-loop HTTP clients against ``corra serve``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and then traced (the benchmark's own wrappers around
the library's public functions) and prints the per-layer metrics.  Every
metric name and unit comes from ``BENCHMARK.json``.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the machine and the sizes.  Every
op's output is checked against a numpy oracle; any mismatch makes the run
incorrect and the exit code 1.  Scratch files live under ``.perfbench/``
in the checkout; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "scan", "serve")


class Workdir:
    """``.perfbench/`` in the checkout: a per-run scratch directory plus traces."""

    def __init__(self, root: Path):
        self.root = root
        self.base = root / ".perfbench"
        self.path = self.base / f"run-{os.getpid()}"

    def __enter__(self) -> "Workdir":
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def trace_path(self, workload: str) -> Path:
        return self.base / f"trace-{workload}.jsonl"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the serve workload always stops its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a source checkout (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    import harness

    workload = importlib.import_module(args.workload)
    with Workdir(ROOT) as workdir:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), workdir)

    values = outcome["metrics"]
    names = {entry["name"] for entry in declared}
    undeclared = sorted(set(values) - names)
    if undeclared:
        print(f"error: metrics missing from BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 2
    if not args.trace and names - set(values):
        print(f"error: end-to-end metrics not measured: {sorted(names - set(values))}",
              file=sys.stderr)
        return 2
    # A per-layer metric the workload never exercises reads 0.
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in declared
    }
    correct = outcome["failed"] == 0 and outcome.get("spans_well_formed", True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **harness.machine_record(), **outcome["record"]}
    if "spans_well_formed" in outcome:
        record["spans_well_formed"] = outcome["spans_well_formed"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
