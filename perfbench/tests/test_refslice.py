"""Tests of the drift correction and the benchmark's own bookkeeping.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import ast
import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import measure  # noqa: E402
import refslice  # noqa: E402
from refslice import S0, DriftClock, correct, time_slice  # noqa: E402


class FakeSlice:
    """A slice whose thread CPU time is whatever the test says."""

    def __init__(self, durations):
        self.durations = list(durations)
        self.calls = 0

    def __call__(self):
        spin = self.durations[self.calls]
        self.calls += 1
        end = time.thread_time() + spin
        while time.thread_time() < end:
            pass


def test_a_slice_before_and_after_every_interval():
    fake = FakeSlice([0.002] * 4)
    clock = DriftClock(slice_fn=fake)
    assert fake.calls == 1
    for _ in range(3):
        clock.measure(lambda: None)
    # n intervals share n + 1 slices: each slice closes one interval and opens the next
    assert fake.calls == 4
    assert len(clock.slices) == 4


def test_slices_are_timed_in_thread_cpu_time():
    # sleeping costs wall time but no CPU time, so it must not slow the slice
    assert time_slice(lambda: time.sleep(0.05)) < 0.02


def test_the_factor_comes_from_the_slices_around_the_interval():
    clock = DriftClock(slice_fn=FakeSlice([0.004, 0.004, 0.012]))
    first = clock.measure(lambda: None)[3]
    second = clock.measure(lambda: None)[3]
    assert first == pytest.approx(S0 / 0.004, rel=0.3)
    assert second == pytest.approx(S0 / 0.008, rel=0.3)


def test_correction_is_the_identity_at_nominal_speed():
    for wall in (1e-4, 0.0123, 2.5):
        assert correct(wall, [S0, S0]) == pytest.approx(wall, rel=1e-12)
        assert correct(wall, [S0] * 7) == pytest.approx(wall, rel=1e-12)


def test_uniform_scaling_leaves_the_corrected_time_unchanged():
    wall, slices = 0.031, [0.0013, 0.0011, 0.0017]
    base = correct(wall, slices)
    for k in (0.5, 0.8, 1.3, 2.0):
        assert correct(wall * k, [s * k for s in slices]) == pytest.approx(base, rel=1e-12)


def test_the_correction_is_the_mean_of_before_and_after():
    assert correct(1.0, [S0, 3 * S0]) == pytest.approx(0.5)


@pytest.mark.parametrize("module", ["refslice.py", "measure.py", "tracing.py"])
def test_the_ruler_never_imports_repro(module):
    with open(os.path.join(BENCH, module)) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name == "repro" or name.startswith("repro.") for name in imported)


def test_importing_the_ruler_loads_no_repro_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refslice, measure, tracing; "
        "sys.exit(any(m == 'repro' or m.startswith('repro.') for m in sys.modules))"
    )
    subprocess.run([sys.executable, "-c", code, BENCH], check=True, timeout=60)


def test_the_reference_slice_is_deterministic():
    assert refslice.reference_slice() == refslice.reference_slice()


@pytest.mark.parametrize(
    "n, p, beyond",
    [(30, 50.0, 15), (60, 75.0, 15), (100, 90.0, 10), (285, 95.0, 14), (1000, 99.0, 10)],
)
def test_the_tail_has_at_least_ten_samples_beyond_it(n, p, beyond):
    assert measure.tail_percentile(n) == (p, beyond)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(values, 100) == 100


def test_benchmark_json_names_what_the_command_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_a_long_interval_is_sampled_while_it_runs():
    clock = DriftClock(period=0.01)
    before = len(clock.slices)

    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    _, corrected, wall, factor = clock.measure(busy)
    taken = len(clock.slices) - before
    assert taken >= 5
    # the slices' own time is not part of the interval
    assert wall < 0.2
    assert corrected == pytest.approx(wall * factor)
