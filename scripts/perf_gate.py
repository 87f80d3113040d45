#!/usr/bin/env python3
"""Performance and quality gate: perfbench runs against committed baselines.

Runs ``perfbench/run.py --seed 1 --trace 0`` once per workload, for the
``run_seconds`` that ``BENCHMARK.json`` sets, and one ``--trace 1``
pla-suite run.  Each run's result is the last line of its standard
output (one JSON object).  A workload's baseline is that same line,
committed at the repository root and written with, for example::

    python3 perfbench/run.py --workload pla-suite --seed 1 --seconds 20 \\
        --trace 0 | tail -1 > BENCH_pla.json

Hard rules (any ``FAIL`` line, exit 1):

* every run exits 0, and its result reads ``correct: true`` and
  ``failed: 0`` (perfbench checks every answer against a known one, and
  each pla-suite cover with the Theorem 2.11 verifier);
* ``cover_cubes`` and ``cover_literals`` are no higher than the baseline.
  The minimizer is deterministic, so a change in either is a code change.
  A decrease passes with a note to refresh the baseline;
* the essentials pass takes at most ``ESSENTIALS_CAP`` of the pla-suite
  pass pipeline: ``hf.essentials_ms`` over the sum of the
  ``hf.<phase>_ms`` layers of the traced run, one per
  ``pla_suite.HF_PHASES``;
* a missing baseline file, result line, metric or layer is a failure.

The time and memory metrics (every other ``end_to_end`` metric of
``BENCHMARK.json``) are advisory: a ``WARN`` line for each one worse than
the baseline by more than its bound, and the exit code stays 0.  Their
baselines come from one machine, and a CI runner is not that machine.

Usage::

    python3 scripts/perf_gate.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from pla_suite import HF_PHASES  # noqa: E402

BASELINES = {
    "pla-suite": "BENCH_pla.json",
    "serve-mix": "BENCH_serve.json",
    "detect-suite": "BENCH_detect.json",
}
QUALITY = ("cover_cubes", "cover_literals")
SEED = 1

#: cap on the essentials pass's share of the pla-suite pass pipeline; the
#: batched essentials engine reads about 0.6, the engine it replaced 0.86
ESSENTIALS_CAP = 0.65

Row = Tuple[str, str]  # (verdict: ok | note | WARN | FAIL, text)


def run_perfbench(workload: str, seconds: float, trace: int) -> Tuple[int, Optional[dict]]:
    """Run perfbench once; its exit status and parsed result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def status_rows(label: str, code: int, result: Optional[dict]) -> List[Row]:
    """The run must exit 0 and report every answer correct."""
    rows = []
    if code != 0:
        rows.append(("FAIL", f"{label}: perfbench exited {code}"))
    if result is None:
        rows.append(("FAIL", f"{label}: no result line on standard output"))
    elif result.get("correct") is not True or result.get("failed") != 0:
        rows.append(("FAIL", f"{label}: correct {result.get('correct')}, "
                             f"{result.get('failed')} of {result.get('attempted')} failed"))
    return rows


def metric(result: dict, name: str) -> Optional[float]:
    """A metric's value from a result line, or None when it is absent."""
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry.get("value")


def check_run(
    workload: str,
    code: int,
    result: Optional[dict],
    baseline: Optional[dict],
    bounds: Dict[str, Tuple[str, float]],
) -> List[Row]:
    """Rows for one ``--trace 0`` run against its baseline.

    ``bounds`` maps each end-to-end metric to ``(better, bound)`` as in
    ``BENCHMARK.json``; a ``None`` baseline (unreadable file) compares
    nothing, its failure being reported where it was read.
    """
    rows = status_rows(workload, code, result)
    if result is None or baseline is None:
        return rows
    for name, (better, bound) in bounds.items():
        base, cur = metric(baseline, name), metric(result, name)
        if base is None or cur is None:
            side = "baseline" if base is None else "result"
            rows.append(("FAIL", f"{workload} {name}: missing from the {side}"))
            continue
        text = f"{workload} {name}: {base:.6g} -> {cur:.6g}"
        if name in QUALITY:
            if cur > base:
                rows.append(("FAIL", text))
            elif cur < base:
                rows.append(("note", f"{text}, lower: refresh {BASELINES[workload]}"))
            else:
                rows.append(("ok", text))
            continue
        worse = (cur - base) / base if better == "lower" else (base - cur) / base
        if worse > bound:
            rows.append(("WARN", f"{text}, {worse:.0%} worse (bound {bound:.0%}, advisory)"))
        else:
            rows.append(("ok", text))
    return rows


def essentials_share(result: dict) -> float:
    """``hf.essentials_ms`` over the summed ``hf.<phase>_ms`` layers."""
    layers = {phase: metric(result, f"hf.{phase}_ms") for phase in HF_PHASES}
    missing = [f"hf.{phase}_ms" for phase, ms in layers.items() if ms is None]
    if missing:
        raise KeyError(", ".join(missing))
    return layers["essentials"] / sum(layers.values())


def check_trace(code: int, result: Optional[dict]) -> List[Row]:
    """Rows for the ``--trace 1`` pla-suite run: status and essentials share."""
    label = "pla-suite --trace 1"
    rows = status_rows(label, code, result)
    if result is None:
        return rows
    try:
        share = essentials_share(result)
    except KeyError as exc:
        return rows + [("FAIL", f"{label}: layers missing: {exc.args[0]}")]
    verdict = "FAIL" if share > ESSENTIALS_CAP else "ok"
    return rows + [(verdict, f"{label}: essentials share {share:.3f} (cap {ESSENTIALS_CAP})")]


def read_baseline(workload: str) -> Tuple[Optional[dict], List[Row]]:
    """The committed baseline line of ``workload``, or a failure row."""
    path = os.path.join(ROOT, BASELINES[workload])
    try:
        with open(path) as fh:
            return json.load(fh), []
    except (OSError, ValueError) as exc:
        return None, [("FAIL", f"{workload}: baseline {BASELINES[workload]}: {exc}")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    rows: List[Row] = []
    for workload in BASELINES:
        baseline, rows_read = read_baseline(workload)
        code, result = run_perfbench(workload, seconds, trace=0)
        rows += rows_read + check_run(workload, code, result, baseline, bounds)
    rows += check_trace(*run_perfbench("pla-suite", seconds, trace=1))
    for verdict, text in rows:
        print(f"{verdict:4s} {text}")
    failures = sum(1 for verdict, _ in rows if verdict == "FAIL")
    warnings = sum(1 for verdict, _ in rows if verdict == "WARN")
    print(f"perf gate: {'FAIL' if failures else 'PASS'} "
          f"({failures} failure(s), {warnings} advisory warning(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
