"""Differential: the transition-table preamble against the scalar oracle.

``HazardFreeInstance`` validates and derives its required and privileged
cubes from one :class:`~repro.hazards.transitions.TransitionEntry` per
transition.  ``tests/hazards_ref.py`` keeps the per-(transition, output)
loops over ``Cover`` objects that this replaced.  Both must agree on every
kind, on the ``Q``/``P`` lists (order included) and, for malformed input,
on the exact ``InstanceError`` message — over the 15 benchmark circuits, a
seeded sample of every corpus stratum, Hypothesis instances and
hand-built defects.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.corpus.generator import DEFAULT_STRATA, build_stratum_instance
from repro.cubes import Cover, Cube
from repro.hazards import (
    HazardFreeInstance,
    Transition,
    function_hazard_free,
    maximal_on_subcubes,
    minimal_hitting_sets,
)
from repro.hazards.instance import InstanceError
from repro.pla.reader import read_pla
from repro.proptest.strategies import covers, instances

from tests import hazards_ref as ref

BENCHMARKS = sorted(
    (Path(__file__).resolve().parent.parent / "data" / "benchmarks").glob("*.pla")
)


def outcome(fn):
    """``("ok", value)`` or the raised exception's class and message."""
    try:
        return "ok", fn()
    except (InstanceError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_same(instance: HazardFreeInstance) -> None:
    """Fused and scalar paths agree on everything the preamble produces."""
    assert outcome(instance.validate) == outcome(lambda: ref.validate(instance))
    for t in instance.transitions:
        for j in range(instance.n_outputs):
            assert outcome(lambda: instance.kind(t, j)) == outcome(
                lambda: ref.kind(instance, t, j)
            )
            on_j, off_j = instance.on_for_output(j), instance.off_for_output(j)
            assert function_hazard_free(t, on_j, off_j) == ref.function_hazard_free(
                t, on_j, off_j
            )
            for norm in (t, t.reversed()):
                assert outcome(lambda: maximal_on_subcubes(norm, off_j)) == outcome(
                    lambda: ref.maximal_on_subcubes(norm, off_j)
                )
    assert outcome(instance.required_cubes) == outcome(
        lambda: ref.required_cubes(instance)
    )
    assert outcome(instance.privileged_cubes) == outcome(
        lambda: ref.privileged_cubes(instance)
    )


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_benchmark_circuits(path):
    instance = read_pla(path).to_instance()
    assert instance.required_cubes()
    assert_same(instance)


def test_all_fifteen_benchmarks_present():
    assert len(BENCHMARKS) == 15


@pytest.mark.parametrize("spec", DEFAULT_STRATA, ids=lambda s: s.name)
def test_corpus_strata(spec):
    for index in range(4):
        assert_same(build_stratum_instance(spec, 2024, index))


@given(instances())
def test_hypothesis_instances(instance):
    assert_same(instance)


@st.composite
def raw_instances(draw):
    """Unvalidated instances: a drawn ON/OFF/don't-care value per minterm and
    output, plus at most one stray ON cube, so overlaps, holes and function
    hazards all occur."""
    n = draw(st.integers(1, 4))
    n_out = draw(st.integers(1, 3))
    on = draw(covers(n, n_out, max_cubes=1))
    off = Cover(n, (), n_out)
    value = st.sampled_from((0, 1) * 4 + (None,))
    for index in range(1 << n):
        values = draw(st.lists(value, min_size=n_out, max_size=n_out))
        for cover, v in ((on, 1), (off, 0)):
            outbits = sum(1 << j for j, x in enumerate(values) if x == v)
            if outbits:
                cover.append(Cube.from_index(n, index, outbits, n_out))
    vec = st.tuples(*[st.integers(0, 1)] * n)
    pairs = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=4))
    transitions = [Transition(a, b) for a, b in pairs]
    return HazardFreeInstance(on, off, transitions, validate=False)


@given(raw_instances())
def test_hypothesis_malformed_instances(instance):
    assert_same(instance)


@given(
    st.lists(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=4), max_size=6
    )
)
def test_minimal_hitting_sets_order(family):
    assert minimal_hitting_sets(family) == ref.minimal_hitting_sets(family)


# ----------------------------------------------------------------------
# Hand-built defects: identical InstanceError on both paths
# ----------------------------------------------------------------------


def _instance(on_rows, off_rows, transitions):
    return HazardFreeInstance(
        Cover.from_strings(on_rows),
        Cover.from_strings(off_rows),
        [Transition(a, b) for a, b in transitions],
        validate=False,
    )


MALFORMED = {
    # -1 meets 11 only where their outputs differ; output 1 clashes.
    "overlap": (
        _instance(["1- 01", "-1 10"], ["00 11", "11 01", "0- 01"], [((0, 0), (0, 0))]),
        "ON and OFF sets of output 1 intersect: 1- ∩ 11",
    ),
    "undefined-cube": (
        _instance(["00"], ["11"], [((0, 0), (1, 1))]),
        "function not fully defined on 00->11 for output 0",
    ),
    "static-hazard": (
        _instance(["00", "11"], ["01", "10"], [((0, 0), (1, 1))]),
        "transition 00->11 has a function hazard on output 0",
    ),
    # 000 (ON) -> 001 (OFF) -> 011 (ON) -> 111 (OFF)
    "falling-hazard": (
        _instance(["000", "011"], ["001", "010", "1--"], [((0, 0, 0), (1, 1, 1))]),
        "transition 000->111 has a function hazard on output 0",
    ),
    # output 0 falls cleanly, output 1 is the falling-hazard function
    "falling-hazard-second-output": (
        _instance(
            ["000 11", "011 01"],
            ["001 11", "010 11", "1-- 11", "011 10"],
            [((0, 0, 0), (1, 1, 1))],
        ),
        "transition 000->111 has a function hazard on output 1",
    ),
    # 000 (OFF) -> 100 (ON) -> 101 (OFF) -> 111 (ON)
    "rising-hazard": (
        _instance(
            ["111", "100"],
            ["011", "101", "110", "0-0", "00-"],
            [((0, 0, 0), (1, 1, 1))],
        ),
        "transition 000->111 has a function hazard on output 0",
    ),
    "wrong-width": (
        _instance(["1-"], ["0-"], [((1, 0), (1, 1)), ((1, 0, 0), (1, 1, 0))]),
        "transition 100->110 has wrong width",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_messages(name):
    instance, message = MALFORMED[name]
    expected = ("InstanceError", message)
    assert outcome(instance.validate) == expected
    assert outcome(lambda: ref.validate(instance)) == expected
    on, off = instance.on, instance.off
    with pytest.raises(InstanceError) as exc:
        HazardFreeInstance(on, off, instance.transitions)
    assert str(exc.value) == message


def test_undefined_endpoint_raises_at_derive_time():
    # 01 is in neither cover; validate=False defers the defect to derivation.
    instance = _instance(["00", "11"], ["10"], [((0, 0), (1, 1)), ((0, 0), (0, 1))])
    message = "transition 00->01 endpoint undefined for output 0"
    expected = ("InstanceError", message)
    t = instance.transitions[1]
    assert outcome(lambda: instance.kind(t, 0)) == expected
    assert outcome(lambda: ref.kind(instance, t, 0)) == expected
    assert outcome(instance.required_cubes) == expected
    assert outcome(lambda: ref.required_cubes(instance)) == expected
    assert outcome(instance.privileged_cubes) == expected
    assert outcome(lambda: ref.privileged_cubes(instance)) == expected


def test_kind_of_a_transition_outside_the_instance():
    instance = _instance(["1-"], ["0-"], [((1, 0), (1, 1))])
    extra = Transition((0, 1), (1, 1))
    assert instance.kind(extra, 0) is ref.kind(instance, extra, 0)
    assert extra not in instance.transitions



# ----------------------------------------------------------------------
# Shared row sets: one tautology verdict per distinct set
# ----------------------------------------------------------------------


def _shared_instance(rng):
    """Outputs that copy one of a few drawn functions, so several outputs
    share every row set of a transition; holes make some sets undefined."""
    n = rng.randint(2, 4)
    n_out = rng.randint(2, 5)
    bases = [
        [rng.choice((0, 1, 1, 0, None)) for _ in range(1 << n)]
        for _ in range(rng.randint(1, 3))
    ]
    copies = [rng.randrange(len(bases)) for _ in range(n_out)]
    on, off = Cover(n, (), n_out), Cover(n, (), n_out)
    for index in range(1 << n):
        for cover, v in ((on, 1), (off, 0)):
            outbits = sum(1 << j for j, b in enumerate(copies) if bases[b][index] == v)
            if outbits:
                cover.append(Cube.from_index(n, index, outbits, n_out))
    transitions = []
    for _ in range(rng.randint(1, 3)):
        a = tuple(rng.randint(0, 1) for _ in range(n))
        b = tuple(rng.randint(0, 1) for _ in range(n))
        transitions.append(Transition(a, b))
    return HazardFreeInstance(on, off, transitions, validate=False)


def test_undefined_outputs_shared_row_sets():
    # Outputs 0 and 1 share the rows {0-, 1-}, defined on 00->11; outputs
    # 2 and 3 share {00, 11}, which leaves 01 and 10 undefined.
    on = Cover.from_strings(["0- 1100", "1- 1100", "00 0011", "11 0011"])
    instance = HazardFreeInstance(
        on, Cover(2, (), 4), [Transition((0, 0), (1, 1))], validate=False
    )
    expected = ("InstanceError", "function not fully defined on 00->11 for output 2")
    assert outcome(instance.validate) == expected
    assert outcome(lambda: ref.validate(instance)) == expected
    assert instance._entry(instance.transitions[0]).undefined_outputs(15) == 0b1100

    # Seeded instances whose outputs copy a few functions: every verdict
    # and message matches the reference, and the memoized verdict for all
    # outputs at once equals the verdicts taken one output at a time.
    rng = random.Random(17)
    undefined_messages = 0
    for _ in range(300):
        instance = _shared_instance(rng)
        result = outcome(instance.validate)
        assert result == outcome(lambda: ref.validate(instance))
        if result[0] == "InstanceError" and "not fully defined" in result[1]:
            undefined_messages += 1
        everything = (1 << instance.n_outputs) - 1
        for t in instance.transitions:
            entry = instance._entry(t)
            alone = 0
            for j in range(instance.n_outputs):
                alone |= entry.undefined_outputs(1 << j)
            assert entry.undefined_outputs(everything) == alone
    assert undefined_messages >= 20
