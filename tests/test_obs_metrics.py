"""Metrics registry unit tests: instrument semantics, merge laws.

The contracts under test (see :mod:`repro.obs.metrics`):

* counters are monotone, gauges are last-written, histograms have
  *upper-inclusive* fixed boundaries with exact ``sum``/``count``;
* a value exactly on a boundary lands in that boundary's bucket;
* :func:`repro.obs.metrics.merge_snapshots` is associative and
  commutative, so per-worker snapshots fold in any order to the same
  aggregate — the property the parallel per-output sweep relies on;
* :func:`repro.obs.metrics.publish_result_metrics` maps one
  :class:`~repro.hf.result.HFResult` onto the naming convention.
"""

import pytest

from repro.bm.benchmarks import build_benchmark
from repro.hf import espresso_hf
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    monotone_counters,
    publish_result_metrics,
)
from repro.obs.metrics import MONOTONE_COUNTER_FIELDS, TIME_BUCKETS_S
from repro.perf import PerfCounters


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_as_dict(self):
        c = Counter()
        c.inc(2)
        assert c.as_dict() == {"kind": "counter", "value": 2}


class TestGauge:
    def test_last_written_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_coerces_to_float(self):
        g = Gauge()
        g.set(7)
        assert isinstance(g.value, float)
        assert g.as_dict() == {"kind": "gauge", "value": 7.0}


class TestHistogram:
    def test_requires_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(())

    def test_requires_strictly_increasing_boundaries(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_basic_bucketing(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.sum == pytest.approx(55.5)
        assert h.count == 3

    def test_value_exactly_on_boundary_lands_in_that_bucket(self):
        # upper-inclusive edges: v <= boundary counts for the boundary's
        # bucket, the defining edge case of the bucketing contract.
        h = Histogram((1.0, 10.0))
        h.observe(1.0)
        h.observe(10.0)
        assert h.counts == [1, 1, 0]

    def test_value_above_every_boundary_overflows(self):
        h = Histogram((1.0,))
        h.observe(1.0000001)
        assert h.counts == [0, 1]

    def test_counts_slots_is_boundaries_plus_one(self):
        h = Histogram(TIME_BUCKETS_S)
        assert len(h.counts) == len(TIME_BUCKETS_S) + 1

    def test_sum_count_track_raw_observations(self):
        h = Histogram((0.5,))
        obs = [0.1, 0.5, 0.9, 2.5]
        for v in obs:
            h.observe(v)
        assert h.count == len(obs)
        assert h.sum == pytest.approx(sum(obs))
        assert sum(h.counts) == len(obs)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_histogram_boundary_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", (1.0, 3.0))

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.gauge("a.level").set(1.5)
        reg.histogram("c.lat", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.level", "b.count", "c.lat"]
        json.dumps(snap)  # must serialize without custom encoders

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc()
        assert snap["c"]["value"] == 1


def _snap(counter=None, gauge=None, hist=None):
    reg = MetricsRegistry()
    if counter is not None:
        reg.counter("c").inc(counter)
    if gauge is not None:
        reg.gauge("g").set(gauge)
    if hist is not None:
        h = reg.histogram("h", (1.0, 10.0))
        for v in hist:
            h.observe(v)
    return reg.snapshot()


class TestMergeSnapshots:
    def test_counters_add_gauges_max_histograms_add(self):
        a = _snap(counter=2, gauge=1.0, hist=[0.5])
        b = _snap(counter=3, gauge=4.0, hist=[5.0, 50.0])
        m = merge_snapshots(a, b)
        assert m["c"]["value"] == 5
        assert m["g"]["value"] == 4.0
        assert m["h"]["counts"] == [1, 1, 1]
        assert m["h"]["sum"] == pytest.approx(55.5)
        assert m["h"]["count"] == 3

    def test_one_sided_metrics_pass_through(self):
        a = _snap(counter=2)
        b = _snap(gauge=3.0)
        m = merge_snapshots(a, b)
        assert m["c"]["value"] == 2
        assert m["g"]["value"] == 3.0

    def test_merge_does_not_alias_inputs(self):
        a = _snap(hist=[0.5])
        m = merge_snapshots(a, {})
        m["h"]["counts"][0] += 100
        assert a["h"]["counts"][0] == 1

    def test_kind_mismatch_raises(self):
        a = {"x": {"kind": "counter", "value": 1}}
        b = {"x": {"kind": "gauge", "value": 1.0}}
        with pytest.raises(TypeError):
            merge_snapshots(a, b)

    def test_boundary_mismatch_raises(self):
        def hist_snap(bounds):
            reg = MetricsRegistry()
            reg.histogram("h", bounds)
            return reg.snapshot()

        with pytest.raises(ValueError):
            merge_snapshots(hist_snap((1.0,)), hist_snap((2.0,)))

    def test_commutative(self):
        a = _snap(counter=1, gauge=9.0, hist=[0.1, 10.0])
        b = _snap(counter=7, gauge=2.0, hist=[100.0])
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_associative(self):
        # merge(a, merge(b, c)) == merge(merge(a, b), c): the law that
        # makes per-worker fold order irrelevant.
        a = _snap(counter=1, gauge=1.0, hist=[0.5])
        b = _snap(counter=2, gauge=5.0, hist=[1.0, 2.0])
        c = _snap(counter=4, gauge=3.0, hist=[20.0])
        assert merge_snapshots(a, merge_snapshots(b, c)) == merge_snapshots(
            merge_snapshots(a, b), c
        )

    def test_empty_is_identity(self):
        a = _snap(counter=3, gauge=2.0, hist=[0.7])
        assert merge_snapshots(a, {}) == a
        assert merge_snapshots({}, a) == a


class TestPublishResultMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return espresso_hf(build_benchmark("dram-ctrl"))

    def test_publishes_every_monotone_counter(self, result):
        snap = publish_result_metrics(MetricsRegistry(), result).snapshot()
        for field in MONOTONE_COUNTER_FIELDS:
            name = f"hf.{field}"
            assert name in snap, name
            assert snap[name]["kind"] == "counter"
            assert snap[name]["value"] == getattr(result.counters, field)

    def test_quality_gauges_and_time_histograms(self, result):
        snap = publish_result_metrics(MetricsRegistry(), result).snapshot()
        assert snap["hf.cover_cubes"]["value"] == float(result.num_cubes)
        assert snap["hf.cover_literals"]["value"] == float(result.num_literals)
        assert snap["hf.pass_seconds"]["count"] == len(result.phase_seconds)
        assert snap["hf.pass_seconds"]["sum"] == pytest.approx(
            sum(result.phase_seconds.values())
        )
        # one clock: the per-pass times are the only time histogram
        histograms = {n for n, m in snap.items() if m["kind"] == "histogram"}
        assert histograms == {"hf.pass_seconds"}

    def test_custom_prefix(self, result):
        snap = publish_result_metrics(
            MetricsRegistry(), result, prefix="base"
        ).snapshot()
        assert "base.cover_cubes" in snap
        assert not any(name.startswith("hf.") for name in snap)

    def test_monotone_counters_slice(self, result):
        snap = publish_result_metrics(MetricsRegistry(), result).snapshot()
        mono = monotone_counters(snap)
        assert set(mono) == {f"hf.{f}" for f in MONOTONE_COUNTER_FIELDS}
        # gauges and histograms never leak into the regression-safe slice
        assert "hf.cover_cubes" not in mono
        assert "hf.pass_seconds" not in mono


class TestMonotoneFieldsMatchPerfCounters:
    def test_every_field_exists_on_perfcounters(self):
        counters = PerfCounters()
        for field in MONOTONE_COUNTER_FIELDS:
            assert isinstance(getattr(counters, field), int), field
