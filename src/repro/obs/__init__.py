"""Observability layer: span tracing, metrics and exporters.

The paper's headline claim is *speed* (30–135× over exact HFMIN on the
Figure 8 benchmarks), so this package gives the repository the evidence
machinery a performance claim needs:

* :mod:`repro.obs.span` — zero-dependency structured spans with
  context-var propagation (:class:`Span`, :class:`Tracer`,
  :func:`activate`, :func:`current_tracer`);
* :mod:`repro.obs.hook` — :class:`ObsHook`, the
  :class:`~repro.pipeline.manager.PassManager` hook that turns every
  pass / group / fixed-point application into a span;
* :mod:`repro.obs.metrics` — counter / gauge / histogram registry with
  associatively mergeable snapshots (:class:`MetricsRegistry`,
  :func:`merge_snapshots`, :func:`publish_result_metrics`);
* :mod:`repro.obs.export` — JSONL, Chrome ``chrome://tracing``, and
  plain-text top-N exporters.

The performance and quality gate is ``scripts/perf_gate.py``, which runs
the end-to-end benchmark (``perfbench/run.py``) against the committed
``BENCH_*.json`` baselines.  See ``docs/OBSERVABILITY.md`` for the span
model, metric naming conventions, exporter formats, and how to read a
gate failure.
"""

from repro.obs.export import (
    spans_from_dicts,
    to_chrome_trace,
    to_jsonl,
    top_spans_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.hook import ObsHook
from repro.obs.metrics import (
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    monotone_counters,
    publish_result_metrics,
)
from repro.obs.span import Span, Tracer, activate, current_tracer

__all__ = [
    "TIME_BUCKETS_S",
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "ObsHook",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "merge_snapshots",
    "monotone_counters",
    "publish_result_metrics",
    "to_jsonl",
    "to_chrome_trace",
    "top_spans_report",
    "write_jsonl",
    "write_chrome_trace",
    "spans_from_dicts",
]
