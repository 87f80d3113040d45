"""Ablation: essential-equivalence-class detection (paper §3.4, §5).

The paper: "The detection of essentials is crucial for speed and size" and
"quite a few examples can be minimized by just the essential step".  This
bench runs Espresso-HF with and without the essentials step and compares
runtime and cover size, and counts how many suite circuits are minimized to
a guaranteed optimum purely by essentials.
"""

import pytest

from benchmarks.conftest import SMALL_CIRCUITS
from repro.bm.benchmarks import BENCHMARKS
from repro.hf import espresso_hf, EspressoHFOptions
from repro.hazards.verify import is_hazard_free_cover

WITH = EspressoHFOptions(use_essentials=True)
WITHOUT = EspressoHFOptions(use_essentials=False)


@pytest.mark.parametrize("name", SMALL_CIRCUITS)
def test_with_essentials(benchmark, instances, name):
    instance = instances[name]
    result = benchmark(lambda: espresso_hf(instance, WITH))
    assert is_hazard_free_cover(instance, result.cover)


@pytest.mark.parametrize("name", SMALL_CIRCUITS)
def test_without_essentials(benchmark, instances, name):
    instance = instances[name]
    result = benchmark(lambda: espresso_hf(instance, WITHOUT))
    assert is_hazard_free_cover(instance, result.cover)


def test_cover_quality_not_hurt_by_essentials(benchmark, instances):
    """Essential classes never worsen the cover on the suite."""

    def run():
        rows = []
        for name in SMALL_CIRCUITS + ["pe-send-ifc", "pscsi-isend", "stetson-p2"]:
            instance = instances[name]
            with_e = espresso_hf(instance, WITH)
            without_e = espresso_hf(instance, WITHOUT)
            rows.append((name, with_e.num_cubes, without_e.num_cubes))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, with_c, without_c in rows:
        assert with_c <= without_c, (name, with_c, without_c)


def test_many_circuits_solved_purely_by_essentials(benchmark, instances):
    """Count circuits where essentials alone give the whole (hence provably
    minimum) cover — the paper observes this for "quite a few" examples."""

    def run():
        solved = []
        for bench in BENCHMARKS:
            instance = instances[bench.name]
            res = espresso_hf(instance, WITH)
            if res.num_essential_classes == res.num_cubes:
                solved.append(bench.name)
        return solved

    solved = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(solved) >= 8  # a majority of the suite
