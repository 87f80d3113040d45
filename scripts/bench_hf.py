#!/usr/bin/env python
"""Persistent Espresso-HF benchmark baseline.

Runs the minimizer over the benchmark suite — each circuit isolated in its
own subprocess via :mod:`repro.guard.runner`, so one pathological circuit
can time out or crash without taking down the sweep — and writes a JSON
snapshot (per-circuit status, wall time best of ``--repeats`` plus all
repeat times, cover size, and the operator-level performance counters) to
``BENCH_espresso_hf.json`` at the repository root.  Committing the
snapshot gives every future change a baseline to diff against: cover-size
changes are correctness regressions, time/counter changes are performance
ones.  The diffing itself lives in :mod:`repro.obs.regress`, driven by
``scripts/bench_gate.py`` (which imports :func:`run_suite` from here).

Usage::

    python scripts/bench_hf.py                        # full 15-circuit suite
    python scripts/bench_hf.py --circuits dram-ctrl stetson-p3
    python scripts/bench_hf.py --repeats 5 --output /tmp/bench.json
    python scripts/bench_hf.py --timeout 60           # 60s cap per circuit
    python scripts/bench_hf.py --trace-out bench.trace.json   # Chrome trace

Phase wall-time gates (used by CI's ``bench-essentials`` step)::

    python scripts/bench_hf.py --max-phase-share essentials=0.65
    python scripts/bench_hf.py --phase-budget essentials=0.5
    python scripts/bench_hf.py --from-snapshot artifacts/bench-current.json \\
        --max-phase-share essentials=0.65     # gate a snapshot, no sweep

``--from-snapshot`` consumes a *bench JSON snapshot* (the file this
script writes) — it re-evaluates phase gates without a sweep and is kept
for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bm.benchmarks import BENCHMARKS  # noqa: E402
from repro.guard.runner import benchmark_payload, run_batch  # noqa: E402

DEFAULT_SNAPSHOT = os.path.join(REPO_ROOT, "BENCH_espresso_hf.json")


def suite_names(circuits: Optional[Sequence[str]] = None) -> List[str]:
    """Resolve (and validate) the circuit list; default is the full suite."""
    known = {b.name for b in BENCHMARKS}
    names = list(circuits) if circuits else [b.name for b in BENCHMARKS]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(f"unknown circuits: {', '.join(unknown)}")
    return names


def run_suite(
    circuits: Optional[Sequence[str]] = None,
    repeats: int = 3,
    timeout_s: Optional[float] = None,
    checked: bool = False,
    verify: bool = True,
    bundle_dir: Optional[str] = None,
    tracer=None,
    quiet: bool = False,
) -> Dict:
    """Run the benchmark sweep and return the snapshot dict.

    This is the single entry point shared by the baseline writer (this
    script's CLI) and the regression gate (``scripts/bench_gate.py``), so
    baseline and current snapshots are produced by identical machinery.
    With a ``tracer`` (a :class:`repro.obs.Tracer`), each circuit's
    best-repeat worker spans are adopted into it, laned by suite index.
    """
    names = suite_names(circuits)
    collect_spans = tracer is not None
    payloads = [
        benchmark_payload(
            name,
            checked=checked,
            verify=verify,
            repeats=repeats,
            collect_spans=collect_spans,
        )
        for name in names
    ]
    bundle_dir = bundle_dir or os.path.join(REPO_ROOT, "artifacts")
    rows = run_batch(payloads, timeout_s=timeout_s, bundle_dir=bundle_dir)
    for i, row in enumerate(rows):
        if tracer is not None:
            span = tracer.start(f"bench:{row['name']}")
            tracer.adopt(row.pop("spans", None) or [], tid=i + 1)
            tracer.unwind(span, status=row["status"])
        if quiet:
            continue
        status = row["status"]
        if status in ("ok", "degraded", "budget_exceeded"):
            flag = "" if row.get("verified", True) else "  VERIFY FAILED"
            if status != "ok":
                flag += f"  [{status}]"
            print(
                f"{row['name']:18s} {row['num_cubes']:4d} cubes "
                f"{row['time_s']:8.3f}s  "
                f"supercube hits {row['counters']['supercube_hit_rate']:.0%}"
                f"{flag}"
            )
        else:
            where = f"  bundle: {row['bundle_path']}" if row.get("bundle_path") else ""
            print(f"{row['name']:18s} {status.upper():>10s}  {row['error']}{where}")

    # Suite-wide per-pass wall time: each row's phase_seconds comes keyed by
    # pipeline pass name (canonicalize, essentials, expand, reduce,
    # irredundant, last_gasp, make_prime, ...); summing across circuits
    # shows where the suite actually spends its time.
    phase_totals: dict = {}
    for row in rows:
        for phase, seconds in row.get("phase_seconds", {}).items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
    return {
        "suite": "espresso-hf",
        "python": sys.version.split()[0],
        "repeats": repeats,
        "total_time_s": round(sum(r.get("time_s", 0.0) for r in rows), 6),
        "phase_seconds_total": {
            k: round(v, 6) for k, v in sorted(phase_totals.items())
        },
        "circuits": rows,
    }


def write_snapshot(snapshot: Dict, path: str) -> None:
    """Write a suite snapshot as indented JSON (the committed format)."""
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")


def _parse_limit(spec: str, kind: str) -> "tuple[str, float]":
    """Parse a ``NAME=NUMBER`` limit spec (phase budget / share)."""
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise ValueError(f"{kind} must look like NAME=NUMBER, got {spec!r}")
    try:
        return name, float(value)
    except ValueError:
        raise ValueError(f"{kind} {spec!r}: {value!r} is not a number")


def check_phase_limits(
    snapshot: Dict,
    budgets: Optional[Sequence[str]] = None,
    shares: Optional[Sequence[str]] = None,
) -> List[str]:
    """Evaluate phase wall-time limits against a suite snapshot.

    ``budgets`` are ``NAME=SECONDS`` caps on ``phase_seconds_total[NAME]``;
    ``shares`` are ``NAME=FRACTION`` caps on that phase's share of the
    summed phase time (hardware-independent, the form CI gates on — the
    essentials engine is pinned below the share at which it once
    dominated the profile).  Returns human-readable violation lines,
    empty when every limit holds.  An unknown phase name is a violation:
    a silently skipped gate is worse than a loud configuration error.
    """
    totals = snapshot.get("phase_seconds_total", {})
    whole = sum(totals.values())
    violations: List[str] = []
    for spec in budgets or []:
        name, cap = _parse_limit(spec, "--phase-budget")
        if name not in totals:
            violations.append(f"phase-budget {name}: no such phase in snapshot")
        elif totals[name] > cap:
            violations.append(
                f"phase-budget {name}: {totals[name]:.3f}s > {cap:.3f}s cap"
            )
    for spec in shares or []:
        name, cap = _parse_limit(spec, "--max-phase-share")
        if name not in totals:
            violations.append(
                f"max-phase-share {name}: no such phase in snapshot"
            )
        elif whole > 0 and totals[name] / whole > cap:
            violations.append(
                f"max-phase-share {name}: "
                f"{totals[name] / whole:.1%} of {whole:.3f}s phase time "
                f"> {cap:.0%} cap"
            )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
        help="runs per circuit; the fastest is reported (default 3)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="wall-clock cap per circuit (status 'timeout' on exceed); "
        "default: unlimited",
    )
    parser.add_argument(
        "--checked",
        action="store_true",
        help="run with phase-boundary invariant checkpoints on",
    )
    parser.add_argument(
        "--bundle-dir",
        default=os.path.join(REPO_ROOT, "artifacts"),
        help="directory for failure repro bundles (default: artifacts/)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the Theorem 2.11 hazard-freedom check",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace of the sweep (best repeat per circuit)",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_SNAPSHOT,
        help="snapshot path (default: BENCH_espresso_hf.json at repo root)",
    )
    parser.add_argument(
        "--from-snapshot",
        metavar="FILE",
        help="evaluate --phase-budget/--max-phase-share against an "
        "existing bench JSON snapshot instead of running the sweep "
        "(nothing is written)",
    )
    parser.add_argument(
        "--phase-budget",
        action="append",
        metavar="NAME=SECONDS",
        help="fail (exit 1) if the suite-wide wall time of a pipeline "
        "phase exceeds the cap; repeatable",
    )
    parser.add_argument(
        "--max-phase-share",
        action="append",
        metavar="NAME=FRACTION",
        help="fail (exit 1) if a phase exceeds this fraction of the "
        "summed phase time; repeatable",
    )
    args = parser.parse_args(argv)

    if args.from_snapshot:
        try:
            with open(args.from_snapshot) as fh:
                snapshot = json.load(fh)
            violations = check_phase_limits(
                snapshot, args.phase_budget, args.max_phase_share
            )
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        for line in violations:
            print(f"FAIL {line}")
        if not violations:
            totals = snapshot.get("phase_seconds_total", {})
            print(
                f"phase limits ok ({args.from_snapshot}: "
                f"{sum(totals.values()):.3f}s phase time)"
            )
        return 1 if violations else 0

    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer()
    try:
        snapshot = run_suite(
            circuits=args.circuits,
            repeats=args.repeats,
            timeout_s=args.timeout,
            checked=args.checked,
            verify=not args.no_verify,
            bundle_dir=args.bundle_dir,
            tracer=tracer,
        )
    except ValueError as exc:
        parser.error(str(exc))
    write_snapshot(snapshot, args.output)
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace_out, tracer)
        print(f"trace -> {args.trace_out}")
    print(f"total {snapshot['total_time_s']:.3f}s -> {args.output}")
    violations = check_phase_limits(
        snapshot, args.phase_budget, args.max_phase_share
    )
    for line in violations:
        print(f"FAIL {line}")
    rows = snapshot["circuits"]
    clean = all(
        r["status"] == "ok" and r.get("verified", True) for r in rows
    )
    return 0 if clean and not violations else 1


if __name__ == "__main__":
    sys.exit(main())
