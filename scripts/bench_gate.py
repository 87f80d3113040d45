#!/usr/bin/env python
"""Benchmark regression gate: fresh sweep vs the committed baseline.

Runs the benchmark suite with :func:`bench_hf.run_suite` (identical
machinery to the baseline writer) and diffs the fresh snapshot against
``BENCH_espresso_hf.json`` using the noise-aware rules in
:mod:`repro.obs.regress`: relative slack plus absolute floors on the
suite-total / per-circuit / per-phase / summed per-pass times,
zero-tolerance on cover-size and literal-count drift, status degradations
fail, new or missing circuits warn.  Exit code 0 means no regression;
1 means at least one ``FAIL`` row in the delta table.

Usage::

    python scripts/bench_gate.py                       # gate vs baseline
    python scripts/bench_gate.py --repeats 3 --slack 1.6
    python scripts/bench_gate.py --current /tmp/snap.json   # skip the sweep
    python scripts/bench_gate.py --table-out delta.txt --trace-out gate.trace.json
"""

from __future__ import annotations

import argparse
import os
import sys

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, SCRIPTS_DIR)

from bench_hf import DEFAULT_SNAPSHOT, run_suite, write_snapshot  # noqa: E402
from repro.obs.regress import (  # noqa: E402
    GateThresholds,
    compare_snapshots,
    load_snapshot,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=DEFAULT_SNAPSHOT,
        help="baseline snapshot (default: committed BENCH_espresso_hf.json)",
    )
    parser.add_argument(
        "--current",
        metavar="FILE",
        help="gate an existing snapshot instead of running the sweep",
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        metavar="NAME",
        help="subset of benchmark circuits (default: the full suite)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per circuit for the fresh sweep (default 3)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="wall-clock cap per circuit for the fresh sweep",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=1.6,
        help="relative time slack: fail iff current > baseline*slack + floor "
        "(default 1.6)",
    )
    parser.add_argument(
        "--total-floor-ms",
        type=float,
        default=50.0,
        help="absolute floor for the suite-total rule (default 50ms)",
    )
    parser.add_argument(
        "--circuit-floor-ms",
        type=float,
        default=20.0,
        help="absolute floor for per-circuit rules (default 20ms)",
    )
    parser.add_argument(
        "--phase-floor-ms",
        type=float,
        default=10.0,
        help="absolute floor for per-phase rules (default 10ms)",
    )
    parser.add_argument(
        "--out-current",
        metavar="FILE",
        help="also write the fresh snapshot here (CI artifact)",
    )
    parser.add_argument(
        "--table-out",
        metavar="FILE",
        help="also write the full delta table here (CI artifact)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace of the fresh sweep (CI artifact)",
    )
    parser.add_argument(
        "--all", action="store_true", help="print every comparison row"
    )
    args = parser.parse_args(argv)

    baseline = load_snapshot(args.baseline)
    if args.current:
        current = load_snapshot(args.current)
    else:
        tracer = None
        if args.trace_out:
            from repro.obs import Tracer

            tracer = Tracer()
        current = run_suite(
            circuits=args.circuits,
            repeats=args.repeats,
            timeout_s=args.timeout,
            tracer=tracer,
            quiet=True,
        )
        if tracer is not None:
            from repro.obs import write_chrome_trace

            write_chrome_trace(args.trace_out, tracer)
        if args.out_current:
            write_snapshot(current, args.out_current)

    thresholds = GateThresholds(
        slack=args.slack,
        total_floor_s=args.total_floor_ms / 1000.0,
        circuit_floor_s=args.circuit_floor_ms / 1000.0,
        phase_floor_s=args.phase_floor_ms / 1000.0,
        op_floor_s=args.phase_floor_ms / 1000.0,
    )
    report = compare_snapshots(baseline, current, thresholds)

    lines = report.table(all_rows=args.all)
    for line in lines:
        print(line)
    print(report.summary())
    if args.table_out:
        with open(args.table_out, "w") as fh:
            fh.write("\n".join(report.table(all_rows=True)))
            fh.write(f"\n{report.summary()}\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
