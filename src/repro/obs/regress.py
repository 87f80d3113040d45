"""Benchmark regression gate: diff two suite snapshots, noise-aware.

The gate compares a *current* ``scripts/bench_hf.py`` snapshot against the
committed *baseline* (``BENCH_espresso_hf.json``) and classifies every
delta as ``ok`` / ``warn`` / ``fail``:

**Time rules** (suite total, per-circuit, suite-wide per-phase, and
per-circuit summed pass time) use a two-sided noise model — a relative
*slack* multiplier combined with an *absolute floor*::

    fail  iff  current > baseline * slack + floor

The multiplier absorbs proportional machine noise (a loaded CI runner is
uniformly slower); the floor keeps sub-millisecond phases from failing the
gate on scheduler jitter — a 0.4 ms phase doubling to 0.8 ms is noise, a
400 ms phase doubling is a regression.  Per-circuit times use the *median*
of the recorded repeat times (``times_s``) rather than the best-of, which
is far more stable under transient load.  The per-circuit ``op`` rule
sums the row's ``phase_seconds``: the pass manager's one record per pass,
the same clock on both sides.

**Quality rules** are exact: any increase in a circuit's cover size
(``num_cubes``) or literal count (``num_literals``) fails — the minimizer
is deterministic, so quality drift is a code change, never noise.  A
status degradation (``ok`` → anything else, or any → ``crash``/
``timeout``…) also fails.

**Coverage rules** warn, never fail: a circuit present only in the current
snapshot has no baseline to compare against (commit a refreshed baseline
to adopt it); a circuit missing from the current run may be an intentional
``--circuits`` subset.

Run directly to diff two snapshot files without re-benchmarking::

    python -m repro.obs.regress BENCH_espresso_hf.json /tmp/current.json
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.guard.errors import status_rank


@dataclass(frozen=True)
class GateThresholds:
    """Noise model of the gate: relative slack plus absolute floors.

    ``slack`` multiplies every baseline time before comparison; the floors
    are added on top, per comparison kind, so short measurements need a
    proportionally larger (absolute) excursion to fail.
    """

    slack: float = 1.6
    total_floor_s: float = 0.050
    circuit_floor_s: float = 0.020
    phase_floor_s: float = 0.010
    op_floor_s: float = 0.010

    def exceeded(self, baseline: float, current: float, floor_s: float) -> bool:
        """The core rule: ``current > baseline * slack + floor``."""
        return current > baseline * self.slack + floor_s


@dataclass
class Delta:
    """One comparison row of the gate report."""

    kind: str  # total | circuit | phase | op | cubes | literals | status | coverage
    name: str  # circuit, phase, or "suite"
    baseline: Optional[float]
    current: Optional[float]
    verdict: str  # ok | warn | fail
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if (
            isinstance(self.baseline, (int, float))
            and isinstance(self.current, (int, float))
            and self.baseline
        ):
            return self.current / self.baseline
        return None


@dataclass
class GateReport:
    """All deltas of one gate run, with the pass/fail verdict."""

    deltas: List[Delta] = field(default_factory=list)
    thresholds: GateThresholds = field(default_factory=GateThresholds)

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if d.verdict == "fail"]

    @property
    def warnings(self) -> List[Delta]:
        return [d for d in self.deltas if d.verdict == "warn"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def table(self, all_rows: bool = False) -> List[str]:
        """The per-circuit / per-phase delta table as text lines.

        By default only non-``ok`` rows plus the suite total are shown;
        ``all_rows`` includes every comparison.
        """
        rows = [
            d
            for d in self.deltas
            if all_rows or d.verdict != "ok" or d.kind == "total"
        ]
        lines = [
            f"{'verdict':7s} {'kind':8s} {'name':34s} "
            f"{'baseline':>10s} {'current':>10s} {'ratio':>7s}"
        ]
        for d in rows:
            base = "-" if d.baseline is None else f"{d.baseline:.4f}"
            cur = "-" if d.current is None else f"{d.current:.4f}"
            ratio = "-" if d.ratio is None else f"{d.ratio:.2f}x"
            note = f"  {d.note}" if d.note else ""
            lines.append(
                f"{d.verdict.upper():7s} {d.kind:8s} {d.name:34s} "
                f"{base:>10s} {cur:>10s} {ratio:>7s}{note}"
            )
        lines.append(
            f"gate: {len(self.failures)} failure(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.deltas)} comparison(s) "
            f"(slack {self.thresholds.slack:g}x)"
        )
        return lines

    def summary(self) -> str:
        return "PASS" if self.passed else "FAIL"


def circuit_time_s(row: Dict[str, Any]) -> Optional[float]:
    """A circuit row's representative wall time: median of repeats.

    Snapshots record every repeat (``times_s``); the median is robust to a
    single slow repeat.  Pre-``times_s`` baselines fall back to the
    best-of ``time_s``.
    """
    times = row.get("times_s")
    if times:
        return float(statistics.median(times))
    t = row.get("time_s")
    return None if t is None else float(t)


def _pass_time_total(row: Dict[str, Any]) -> Optional[float]:
    """A circuit row's summed per-pass wall time (``None`` if unrecorded)."""
    phases = row.get("phase_seconds")
    if not phases:
        return None
    return float(sum(phases.values()))


def compare_snapshots(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    thresholds: Optional[GateThresholds] = None,
) -> GateReport:
    """Diff two ``bench_hf`` snapshots into a :class:`GateReport`.

    Applies, in order: the suite-total time rule, suite-wide per-phase
    time rules, then per-circuit status / quality / time / pass-time rules,
    and finally the coverage warnings for added or missing circuits.
    """
    th = thresholds or GateThresholds()
    report = GateReport(thresholds=th)
    deltas = report.deltas

    base_rows = {r["name"]: r for r in baseline.get("circuits", [])}
    cur_rows = {r["name"]: r for r in current.get("circuits", [])}

    # -- suite total ----------------------------------------------------
    base_total = float(baseline.get("total_time_s", 0.0))
    cur_total = float(current.get("total_time_s", 0.0))
    deltas.append(
        Delta(
            kind="total",
            name="suite",
            baseline=base_total,
            current=cur_total,
            verdict=(
                "fail"
                if th.exceeded(base_total, cur_total, th.total_floor_s)
                else "ok"
            ),
        )
    )

    # -- suite-wide per-phase time --------------------------------------
    base_phases = baseline.get("phase_seconds_total", {}) or {}
    cur_phases = current.get("phase_seconds_total", {}) or {}
    for phase in sorted(set(base_phases) | set(cur_phases)):
        b = base_phases.get(phase)
        c = cur_phases.get(phase)
        if b is None or c is None:
            deltas.append(
                Delta(
                    kind="phase",
                    name=phase,
                    baseline=b,
                    current=c,
                    verdict="warn",
                    note="phase only on one side",
                )
            )
            continue
        deltas.append(
            Delta(
                kind="phase",
                name=phase,
                baseline=float(b),
                current=float(c),
                verdict=(
                    "fail"
                    if th.exceeded(float(b), float(c), th.phase_floor_s)
                    else "ok"
                ),
            )
        )

    # -- per circuit ----------------------------------------------------
    for name in sorted(set(base_rows) & set(cur_rows)):
        b_row, c_row = base_rows[name], cur_rows[name]

        b_status = b_row.get("status", "ok")
        c_status = c_row.get("status", "ok")
        # a status ranked worse than the baseline's is a degradation
        if status_rank(c_status) > status_rank(b_status):
            deltas.append(
                Delta(
                    kind="status",
                    name=name,
                    baseline=None,
                    current=None,
                    verdict="fail",
                    note=f"{b_status} -> {c_status}",
                )
            )
            # A degraded/crashed run's quality and time are meaningless;
            # the status failure already gates it.
            continue

        for kind in ("num_cubes", "num_literals"):
            b_q, c_q = b_row.get(kind), c_row.get(kind)
            if b_q is None or c_q is None:
                continue
            deltas.append(
                Delta(
                    kind=kind.replace("num_", ""),
                    name=name,
                    baseline=float(b_q),
                    current=float(c_q),
                    verdict="fail" if c_q > b_q else "ok",
                    note="quality drift" if c_q > b_q else "",
                )
            )

        b_t, c_t = circuit_time_s(b_row), circuit_time_s(c_row)
        if b_t is not None and c_t is not None:
            deltas.append(
                Delta(
                    kind="circuit",
                    name=name,
                    baseline=b_t,
                    current=c_t,
                    verdict=(
                        "fail"
                        if th.exceeded(b_t, c_t, th.circuit_floor_s)
                        else "ok"
                    ),
                    note="median of repeats",
                )
            )

        b_op, c_op = _pass_time_total(b_row), _pass_time_total(c_row)
        if b_op is not None and c_op is not None:
            deltas.append(
                Delta(
                    kind="op",
                    name=name,
                    baseline=b_op,
                    current=c_op,
                    verdict=(
                        "fail"
                        if th.exceeded(b_op, c_op, th.op_floor_s)
                        else "ok"
                    ),
                    note="summed pass time",
                )
            )

    # -- coverage -------------------------------------------------------
    for name in sorted(set(cur_rows) - set(base_rows)):
        deltas.append(
            Delta(
                kind="coverage",
                name=name,
                baseline=None,
                current=circuit_time_s(cur_rows[name]),
                verdict="warn",
                note="new circuit: no baseline (refresh the baseline to adopt)",
            )
        )
    for name in sorted(set(base_rows) - set(cur_rows)):
        deltas.append(
            Delta(
                kind="coverage",
                name=name,
                baseline=circuit_time_s(base_rows[name]),
                current=None,
                verdict="warn",
                note="circuit missing from current run",
            )
        )

    return report


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a ``bench_hf`` snapshot JSON file."""
    with open(path) as fh:
        return json.load(fh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Diff two snapshot files: ``python -m repro.obs.regress BASE CUR``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="diff two bench_hf snapshots (no re-benchmarking)",
    )
    parser.add_argument("baseline", help="committed baseline snapshot JSON")
    parser.add_argument("current", help="fresh snapshot JSON to gate")
    parser.add_argument(
        "--slack", type=float, default=1.6, help="relative slack (default 1.6)"
    )
    parser.add_argument(
        "--all", action="store_true", help="show every comparison row"
    )
    args = parser.parse_args(argv)
    report = compare_snapshots(
        load_snapshot(args.baseline),
        load_snapshot(args.current),
        GateThresholds(slack=args.slack),
    )
    for line in report.table(all_rows=args.all):
        print(line)
    print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    import sys

    sys.exit(main())
