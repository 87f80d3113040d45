"""Differential: the Theorem 4.1 engine against its scalar oracle.

:func:`repro.hazards.existence.existence_report` is a view over the
minimizer's dhf-canonicalization
(:meth:`repro.hf.context.HFContext.canonical_required`);
``tests/existence_ref.py`` keeps the scalar loop it replaced.  Both must
give the same verdict and the same ordered ``(cube, output, transition)``
failure list on every stratum of the seeded corpus, on the 15 benchmark
circuits and on Hypothesis instances.  The exact flow's covering-table
criterion must name the same failing cubes, in the same words as the
heuristic's :class:`NoSolutionError`.
"""

import pickle

import pytest
from hypothesis import given

from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.bm.random_spec import random_instance
from repro.corpus import generate_corpus
from repro.exact import exact_hazard_free_minimize
from repro.guard.errors import NoSolutionError
from repro.hazards import existence_report
from repro.hf import espresso_hf
from repro.pla import parse_pla
from repro.proptest.strategies import instances

from tests.existence_ref import existence_report as reference_report

CORPUS = generate_corpus(2026, 300)


def _parsed(entry):
    return parse_pla(entry.pla_text, name=entry.name).to_instance()


def _failures(report):
    return [(q.cube, q.output, q.transition) for q in report.failures]


def _agree(instance):
    """Engine and oracle agree; returns the oracle's report."""
    engine = existence_report(instance)
    reference = reference_report(instance)
    assert engine.exists == reference.exists, instance.name
    assert _failures(engine) == _failures(reference), instance.name
    return reference


@pytest.mark.parametrize("stratum", sorted({e.stratum for e in CORPUS}))
def test_corpus_stratum(stratum):
    for entry in CORPUS:
        if entry.stratum == stratum:
            # the corpus's solvable flag is the oracle's verdict
            assert _agree(_parsed(entry)).exists == entry.solvable, entry.name


@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_benchmark(name):
    assert _agree(build_benchmark(name)).exists


@given(instances())
def test_hypothesis_instances(inst):
    _agree(inst)


#: unsolvable corpus instances plus random single-output draws
EXACT_CASES = [_parsed(e) for e in CORPUS if not e.solvable] + [
    random_instance(4, 1, n_transitions=3, seed=seed) for seed in range(80)
]


@pytest.mark.parametrize(
    "instance", EXACT_CASES, ids=[f"{i}-{inst.name}" for i, inst in enumerate(EXACT_CASES)]
)
def test_exact_flow_names_the_same_cubes(instance):
    reference = _agree(instance)
    exact = exact_hazard_free_minimize(instance)
    assert exact.status == ("ok" if reference.exists else "no_solution")
    assert _failures(exact) == _failures(reference)
    if not reference.exists:
        with pytest.raises(NoSolutionError) as info:
            espresso_hf(instance)
        assert exact.detail == str(info.value)


def test_no_solution_error_pickles_with_its_failures():
    """The error and its RequiredCubes cross a pickle boundary unchanged:
    the same message (not wrapped in a second one), name and failures."""
    instance = next(_parsed(e) for e in CORPUS if not e.solvable)
    with pytest.raises(NoSolutionError) as info:
        espresso_hf(instance)
    error = info.value
    assert error.failures
    for q in error.failures:
        assert pickle.loads(pickle.dumps(q)) == q
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is NoSolutionError
    assert str(clone) == str(error)
    assert clone.name == error.name == instance.name
    assert clone.failures == error.failures
