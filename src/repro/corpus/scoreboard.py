"""Corpus scoreboard: fold shard rows into quality/latency aggregates.

The executor hands back differential rows in payload order, but each row
carries its own :class:`repro.obs.MetricsRegistry` snapshot taken inside
the worker process — :func:`merge_row_metrics` folds them with
:func:`repro.obs.merge_snapshots`, which is associative and commutative,
so the aggregate is identical whether rows arrived serially, out of
order, from a checkpoint replay, or from a remote NDJSON shard.

:func:`build_scoreboard` turns the merged snapshot plus the raw rows into
the quality/latency scoreboard ISSUE.md asks for: per-stratum and overall
verdict counts, exact-match rate, mean cover-size ratio, timeout rate,
and p50/p99 wall time for both flows (upper-edge histogram quantiles via
:func:`repro.obs.histogram_quantile`).  :func:`format_scoreboard` renders
it as a fixed-width table for terminals and CI logs;
:func:`unexplained_rows` extracts the rows that must fail the gate.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.guard.errors import status_rank
from repro.obs import histogram_quantile, merge_snapshots

from repro.corpus.differential import UNEXPLAINED_VERDICTS


def merge_row_metrics(
    rows: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Fold every row's metrics snapshot into one aggregate snapshot."""
    merged: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        snapshot = row.get("metrics")
        if snapshot:
            merged = merge_snapshots(merged, snapshot)
    return merged


def unexplained_rows(rows: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows whose differential outcome is an unexplained disagreement."""
    return [
        row
        for row in rows
        if row.get("verdict") in UNEXPLAINED_VERDICTS
        or row.get("explained") is False
    ]


def _counter(snapshot: Dict[str, Dict[str, Any]], name: str) -> int:
    metric = snapshot.get(name)
    return int(metric["value"]) if metric else 0


def _quantiles(
    snapshot: Dict[str, Dict[str, Any]], name: str
) -> Dict[str, Optional[float]]:
    metric = snapshot.get(name)
    if not metric:
        return {"p50": None, "p99": None}
    return {
        "p50": histogram_quantile(metric, 0.50),
        "p99": histogram_quantile(metric, 0.99),
    }


def _stratum_block(
    snapshot: Dict[str, Dict[str, Any]],
    rows: List[Dict[str, Any]],
    prefix: str,
) -> Dict[str, Any]:
    """One scoreboard block; ``prefix`` is '' for overall, '<stratum>.' else."""
    ran = _counter(snapshot, f"corpus.{prefix}instances")
    verdicts: Dict[str, int] = {}
    verdict_prefix = f"corpus.{prefix}verdict."
    for name, metric in snapshot.items():
        if name.startswith(verdict_prefix) and metric["kind"] == "counter":
            verdicts[name[len(verdict_prefix):]] = int(metric["value"])
    # the runs that never finished (timeout, worker_crashed) rank last
    executor_failures = sum(
        1
        for r in rows
        if status_rank(r.get("status", "ok")) >= status_rank("timeout")
    )
    timeouts = sum(1 for r in rows if r.get("status") == "timeout")
    total = len(rows)
    matches = verdicts.get("exact_match", 0)
    compared = matches + verdicts.get("heuristic_larger", 0) + verdicts.get(
        "exact_suboptimal", 0
    )
    hf_cubes = _counter(snapshot, f"corpus.{prefix}cover_cubes_hf")
    exact_cubes = _counter(snapshot, f"corpus.{prefix}cover_cubes_exact")
    unexplained = len(unexplained_rows(rows))
    return {
        "instances": total,
        "ran": ran,
        "executor_failures": executor_failures,
        "verdicts": dict(sorted(verdicts.items())),
        "unexplained": unexplained,
        "exact_match_rate": round(matches / compared, 4) if compared else None,
        # aggregate cover-size ratio over the jointly-solved instances:
        # sum(hf cubes) / sum(exact cubes), the paper's quality metric
        "cover_ratio": (
            round(hf_cubes / exact_cubes, 4) if exact_cubes else None
        ),
        "timeout_rate": round(timeouts / total, 4) if total else None,
        "hf_seconds": _quantiles(snapshot, f"corpus.{prefix}hf_seconds"),
        "exact_seconds": _quantiles(snapshot, f"corpus.{prefix}exact_seconds"),
    }


def build_scoreboard(
    rows: List[Dict[str, Any]],
    stats: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Aggregate differential rows into the corpus scoreboard dict.

    ``stats`` is :meth:`repro.corpus.executor.ExecutorStats.as_dict` when
    the rows came from a shard run; the scoreboard is equally happy with
    rows produced serially (tests pin that the two agree).
    """
    snapshot = merge_row_metrics(rows)
    strata: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        strata.setdefault(row.get("stratum") or "?", []).append(row)
    board: Dict[str, Any] = {
        "schema": "repro.corpus/scoreboard",
        "version": 1,
        "seed": seed,
        "overall": _stratum_block(snapshot, rows, ""),
        "strata": {
            name: _stratum_block(snapshot, srows, f"{name}.")
            for name, srows in sorted(strata.items())
        },
        "unexplained": [
            {
                "name": r.get("name"),
                "stratum": r.get("stratum"),
                "verdict": r.get("verdict"),
                "bundle_path": r.get("bundle_path"),
                "error": r.get("error"),
            }
            for r in unexplained_rows(rows)
        ],
        "metrics": snapshot,
    }
    if stats:
        board["executor"] = dict(stats)
    return board


def _fmt_seconds(v: Optional[float]) -> str:
    if v is None:
        return "-"
    if v == float("inf"):
        return ">5s"
    return f"{v:g}s"


def _fmt_rate(v: Optional[float]) -> str:
    return "-" if v is None else f"{100 * v:.1f}%"


def format_scoreboard(board: Dict[str, Any]) -> str:
    """Render a scoreboard dict as a fixed-width text table."""
    header = (
        f"{'stratum':<14} {'n':>5} {'match':>6} {'ratio':>6} "
        f"{'t/o':>6} {'hf p50':>7} {'hf p99':>7} "
        f"{'ex p50':>7} {'ex p99':>7} {'unexpl':>6}"
    )
    lines = [header, "-" * len(header)]

    def row_line(name: str, block: Dict[str, Any]) -> str:
        ratio = block["cover_ratio"]
        return (
            f"{name:<14} {block['instances']:>5} "
            f"{_fmt_rate(block['exact_match_rate']):>6} "
            f"{ratio if ratio is not None else '-':>6} "
            f"{_fmt_rate(block['timeout_rate']):>6} "
            f"{_fmt_seconds(block['hf_seconds']['p50']):>7} "
            f"{_fmt_seconds(block['hf_seconds']['p99']):>7} "
            f"{_fmt_seconds(block['exact_seconds']['p50']):>7} "
            f"{_fmt_seconds(block['exact_seconds']['p99']):>7} "
            f"{block['unexplained']:>6}"
        )

    for name, block in board["strata"].items():
        lines.append(row_line(name, block))
    lines.append("-" * len(header))
    lines.append(row_line("TOTAL", board["overall"]))
    overall = board["overall"]
    verdict_bits = ", ".join(
        f"{k}={v}" for k, v in overall["verdicts"].items()
    )
    lines.append(f"verdicts: {verdict_bits or 'none'}")
    if board.get("executor"):
        ex = board["executor"]
        lines.append(
            f"executor: {ex.get('executed', 0)} executed, "
            f"{ex.get('from_checkpoint', 0)} from checkpoint, "
            f"{ex.get('retries', 0)} retries, "
            f"{ex.get('timeouts', 0)} timeouts, "
            f"{ex.get('worker_crashes', 0)} crashes, "
            f"{ex.get('wall_s', 0.0):.2f}s wall"
        )
    if overall["unexplained"]:
        lines.append(
            f"UNEXPLAINED DISAGREEMENTS: {overall['unexplained']} "
            "(see bundles)"
        )
        for item in board["unexplained"]:
            lines.append(
                f"  {item['name']} [{item['stratum']}] {item['verdict']}"
                + (f" -> {item['bundle_path']}" if item["bundle_path"] else "")
            )
    else:
        lines.append("unexplained disagreements: 0")
    return "\n".join(lines)
