"""Metrics registry: counters, gauges, histograms, mergeable snapshots.

Three instrument kinds, deliberately matching the conventional semantics:

:class:`Counter`
    monotone accumulator (``inc``); merging sums.
:class:`Gauge`
    last-written value (``set``); merging takes the max, which is the only
    associative, commutative choice that needs no timestamps.
:class:`Histogram`
    fixed *upper-inclusive* bucket boundaries: an observation ``v`` lands
    in the first bucket whose boundary satisfies ``v <= boundary``, values
    above every boundary land in the overflow bucket.  A value exactly on
    a boundary therefore counts in that boundary's bucket.  ``sum`` and
    ``count`` track the raw observations exactly; merging adds bucket
    counts pairwise (boundaries must match).

A :class:`MetricsRegistry` is a name-keyed collection of instruments with
a JSON-ready :meth:`~MetricsRegistry.snapshot`.  Snapshots — not live
registries — cross process boundaries and merge: :func:`merge_snapshots`
is associative and commutative, so per-worker snapshots fold in any order
to the same aggregate (pinned by ``tests/test_obs_metrics.py``).

Metric naming convention (see ``docs/OBSERVABILITY.md``): dot-separated
``<subsystem>.<quantity>``, e.g. ``hf.supercube_calls``,
``hf.pass_seconds``.  :func:`publish_result_metrics` publishes one
:class:`~repro.hf.result.HFResult` — the run's
:class:`~repro.perf.PerfCounters` (fed by the coverage engine and the
MINCOV solver on the hot path), cover quality gauges, and per-pass wall
time — into a registry under that convention.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: default histogram boundaries for wall-time observations, in seconds
TIME_BUCKETS_S: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: PerfCounters fields that are monotone event counts (not wall times) —
#: identical across serial and parallel per-output sweeps of the same
#: instance, which is what makes them safe regression-gate inputs.
MONOTONE_COUNTER_FIELDS: Tuple[str, ...] = (
    "supercube_calls",
    "supercube_cache_hits",
    "supercube_chain_cached",
    "expand_probes",
    "coverage_masks_built",
    "coverage_mask_hits",
    "mincov_problems",
    "mincov_rows",
    "mincov_nodes",
    "passes_executed",
    "invariant_checks",
    "crosscheck_divergences",
    "scalar_fallbacks",
)


class Counter:
    """Monotone event counter."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += n

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """Last-written value (float)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Fixed-boundary histogram with exact ``sum`` and ``count``.

    ``boundaries`` are strictly increasing upper-inclusive bucket edges;
    ``counts`` has ``len(boundaries) + 1`` slots, the last being the
    overflow bucket for observations above every boundary.
    """

    kind = "histogram"

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram boundaries must strictly increase")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        v = float(v)
        # bisect_left gives the first boundary >= v: upper-inclusive edges.
        self.counts[bisect.bisect_left(self.boundaries, v)] += 1
        self.sum += v
        self.count += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "histogram",
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Name-keyed instruments with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, kind: str, factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter", Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge", Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] = TIME_BUCKETS_S
    ) -> Histogram:
        hist = self._get(name, "histogram", lambda: Histogram(boundaries))
        if tuple(float(b) for b in boundaries) != hist.boundaries:
            raise ValueError(
                f"histogram {name!r} already registered with different "
                "boundaries"
            )
        return hist

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready state of every instrument, keyed by metric name."""
        return {name: m.as_dict() for name, m in sorted(self._metrics.items())}


def merge_snapshots(
    a: Dict[str, Dict[str, Any]], b: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Fold two registry snapshots into one (associative, commutative).

    Counters add, gauges take the max, histograms add bucket counts and
    sums (mismatched boundaries or kinds raise — that is a naming bug, not
    data to be papered over).  Metrics present in only one snapshot pass
    through unchanged.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(a) | set(b)):
        da, db = a.get(name), b.get(name)
        if da is None or db is None:
            src = da if da is not None else db
            merged[name] = _copy_metric(src)
            continue
        if da["kind"] != db["kind"]:
            raise TypeError(
                f"metric {name!r}: cannot merge {da['kind']} with {db['kind']}"
            )
        kind = da["kind"]
        if kind == "counter":
            merged[name] = {"kind": "counter", "value": da["value"] + db["value"]}
        elif kind == "gauge":
            merged[name] = {"kind": "gauge", "value": max(da["value"], db["value"])}
        else:
            if list(da["boundaries"]) != list(db["boundaries"]):
                raise ValueError(
                    f"histogram {name!r}: boundary mismatch in merge"
                )
            merged[name] = {
                "kind": "histogram",
                "boundaries": list(da["boundaries"]),
                "counts": [
                    x + y for x, y in zip(da["counts"], db["counts"])
                ],
                "sum": da["sum"] + db["sum"],
                "count": da["count"] + db["count"],
            }
    return merged


def histogram_quantile(metric: Dict[str, Any], q: float) -> Optional[float]:
    """Quantile estimate from a histogram *snapshot* (upper-edge rule).

    Returns the upper boundary of the bucket containing the ``q``-th
    quantile observation — a guaranteed upper bound on the true quantile
    given the bucketing, which is the conservative direction for latency
    reporting.  Observations in the overflow bucket have no upper edge, so
    a quantile landing there returns ``inf``; an empty histogram returns
    ``None``.  Because :func:`merge_snapshots` adds bucket counts, the
    quantile of a merged snapshot equals the quantile over the union of
    observations (at bucket resolution) no matter how many shards
    contributed or in what order — that is what lets the corpus
    scoreboard report per-stratum p50/p99 from out-of-order shard merges.
    """
    if metric.get("kind") != "histogram":
        raise TypeError(f"not a histogram snapshot: {metric.get('kind')!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = int(metric["count"])
    if total == 0:
        return None
    # smallest k observations covering the q-quantile (nearest-rank rule)
    target = max(1, min(total, math.ceil(q * total)))
    boundaries = list(metric["boundaries"])
    cumulative = 0
    for i, c in enumerate(metric["counts"]):
        cumulative += int(c)
        if cumulative >= target:
            if i < len(boundaries):
                return float(boundaries[i])
            return float("inf")
    return float("inf")  # pragma: no cover - counts always sum to total


def _copy_metric(metric: Dict[str, Any]) -> Dict[str, Any]:
    copied = dict(metric)
    for key in ("boundaries", "counts"):
        if key in copied:
            copied[key] = list(copied[key])
    return copied


def publish_result_metrics(
    registry: MetricsRegistry, result: Any, prefix: str = "hf"
) -> MetricsRegistry:
    """Publish one minimizer result into a registry.

    * ``<prefix>.<counter>`` — every monotone :class:`~repro.perf.PerfCounters`
      field (the coverage engine and MINCOV publish through these);
    * ``<prefix>.cover_cubes`` / ``<prefix>.cover_literals`` — quality gauges;
    * ``<prefix>.pass_seconds`` — histogram over per-pass wall times
      (``result.phase_seconds``, the pipeline's one clock).
    """
    counters = result.counters
    for field_name in MONOTONE_COUNTER_FIELDS:
        registry.counter(f"{prefix}.{field_name}").inc(
            getattr(counters, field_name)
        )
    registry.gauge(f"{prefix}.cover_cubes").set(result.num_cubes)
    registry.gauge(f"{prefix}.cover_literals").set(result.num_literals)
    pass_hist = registry.histogram(f"{prefix}.pass_seconds")
    for _phase, seconds in sorted(result.phase_seconds.items()):
        pass_hist.observe(seconds)
    return registry


def monotone_counters(
    snapshot: Dict[str, Dict[str, Any]], prefix: str = "hf"
) -> Dict[str, int]:
    """The monotone-counter slice of a snapshot (regression-safe subset)."""
    wanted = {f"{prefix}.{f}" for f in MONOTONE_COUNTER_FIELDS}
    return {
        name: metric["value"]
        for name, metric in snapshot.items()
        if name in wanted and metric["kind"] == "counter"
    }
