"""Differential: the columnar Theorem 2.11 verifier against the scalar oracle.

``verify_hazard_free_cover`` tests each condition as one bitmask over the
cover's :class:`~repro.cubes.cover.CoverColumns`: OFF cubes met per cover
cube (a), cover cubes containing each required cube (b), and cover cubes
meeting a privileged cube without its start point (c).
``tests/verify_ref.py`` keeps the loops over pairs of ``Cube`` objects that
this replaced.  Both must return the same violations — condition, output,
cube, other cube and detail text, in the same order — with ``collect_all``
false and true, on mutated covers of the 15 benchmark circuits, covers of
every corpus stratum, covers with EMPTY literals, and the empty cover.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.corpus.generator import DEFAULT_STRATA, build_stratum_instance
from repro.cubes import Cover, Cube
from repro.cubes.cube import LITERAL_DC, LITERAL_EMPTY
from repro.hazards import HazardFreeInstance, Transition, hazard_free_solution_exists
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import espresso_hf
from repro.pla.reader import parse_pla, read_pla
from repro.proptest.strategies import covers, instances

from tests import verify_ref as ref

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((ROOT / "data" / "benchmarks").glob("*.pla"))
GOLDEN = json.loads((ROOT / "data" / "golden_pipeline.json").read_text())["circuits"]


def rows(violations):
    """``(condition, output, cube, other, detail)`` with cubes spelled out."""

    def key(cube):
        if cube is None:
            return None
        return (cube.n_inputs, cube.n_outputs, cube.inbits, cube.outbits)

    return [
        (v.condition, v.output, key(v.cube), key(v.other), v.detail)
        for v in violations
    ]


def assert_same(instance, cover):
    """Both verifiers agree with ``collect_all`` off and on; returns the
    number of violations found with ``collect_all`` on."""
    for collect_all in (False, True):
        expected = rows(ref.verify_hazard_free_cover(instance, cover, collect_all))
        assert rows(verify_hazard_free_cover(instance, cover, collect_all)) == expected
    return len(expected)


def golden_cover(name, n_inputs, n_outputs):
    cubes = [
        Cube(n_inputs, int(inbits, 16), int(outbits, 16), n_outputs)
        for inbits, outbits in GOLDEN[name]["cover"]
    ]
    return Cover(n_inputs, cubes, n_outputs)


def replaced(cover, idx, cube):
    cubes = list(cover)
    cubes[idx] = cube
    return Cover(cover.n_inputs, cubes, cover.n_outputs)


def mutants(cover, rng, per_kind):
    """Seeded mutants of ``cover``: dropped cubes, literals raised to DC,
    retagged outputs, and EMPTY literals."""
    n, m = cover.n_inputs, cover.n_outputs
    picks = list(range(len(cover)))
    for idx in rng.sample(picks, min(per_kind, len(picks))):
        yield Cover(n, [c for k, c in enumerate(cover) if k != idx], m)
    for _ in range(per_kind):
        idx = rng.randrange(len(cover))
        cube = cover[idx]
        fixed = [i for i in range(n) if cube.literal(i) != LITERAL_DC]
        if fixed:
            yield replaced(cover, idx, cube.with_literal(rng.choice(fixed), LITERAL_DC))
    for _ in range(per_kind):
        idx = rng.randrange(len(cover))
        outbits = rng.randrange(1, 1 << m)
        yield replaced(cover, idx, cover[idx].with_outputs(outbits))
    idx = rng.randrange(len(cover))
    yield replaced(
        cover, idx, cover[idx].with_literal(rng.randrange(n), LITERAL_EMPTY)
    )
    # Several mutations at once, so every condition fires together.
    several = cover
    for _ in range(3):
        idx = rng.randrange(len(several))
        cube = several[idx]
        several = replaced(
            several,
            idx,
            cube.with_literal(rng.randrange(n), LITERAL_DC).with_outputs(
                rng.randrange(1, 1 << m)
            ),
        )
    yield Cover(n, list(several)[1:], m)


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_benchmark_mutants(path):
    instance = read_pla(path).to_instance()
    cover = golden_cover(path.stem, instance.n_inputs, instance.n_outputs)
    assert assert_same(instance, cover) == 0
    rng = random.Random(path.stem)
    found = sum(assert_same(instance, mutant) for mutant in mutants(cover, rng, 8))
    assert found
    empty = Cover(instance.n_inputs, (), instance.n_outputs)
    assert assert_same(instance, empty) == len(instance.required_cubes())


def test_all_fifteen_benchmarks_present():
    assert len(BENCHMARKS) == 15


def candidate_covers(instance):
    """A minimized cover (when one exists) and its mutants, the ON cover,
    the required cubes as a cover, and the empty cover."""
    n, m = instance.n_inputs, instance.n_outputs
    out = [instance.on, Cover(n, (), m)]
    required = [Cube(n, q.cube.inbits, 1 << q.output, m) for q in instance.required_cubes()]
    out.append(Cover(n, required, m))
    if hazard_free_solution_exists(instance):
        cover = espresso_hf(instance).cover
        out.append(cover)
        if len(cover):
            out.extend(mutants(cover, random.Random(instance.name), 4))
    return out


@pytest.mark.parametrize("spec", DEFAULT_STRATA, ids=lambda s: s.name)
def test_corpus_strata(spec):
    for index in range(4):
        instance = build_stratum_instance(spec, 2024, index)
        for cover in candidate_covers(instance):
            assert_same(instance, cover)


@given(instances(), st.data())
def test_hypothesis_covers(instance, data):
    cover = data.draw(covers(instance.n_inputs, instance.n_outputs, max_cubes=6))
    assert_same(instance, cover)


def test_empty_literal_cubes():
    # OFF and cover cubes with an EMPTY literal meet nothing.
    on = Cover.from_strings(["11 1", "01 1"])
    off = Cover.from_strings(["00 1", "1~ 1", "10 1"])
    instance = HazardFreeInstance(on, off, [Transition((0, 1), (1, 1))])
    for lines in (["-1 1"], ["-~ 1"], ["~1 1", "11 1"], ["1- 1"], ["-- 1", "~~ 1"]):
        assert_same(instance, Cover.from_strings(lines))
    assert_same(instance, Cover(2, (), 1))


def test_wrong_shape_raises():
    # A 3-input cover for a 2-input instance used to pass as hazard-free.
    pla = parse_pla(".i 2\n.o 1\n.type fr\n11 1\n00 0\n.trans 11 11\n.e\n")
    instance = pla.to_instance()
    cover = Cover.from_strings(["11- 1"])
    assert ref.verify_hazard_free_cover(instance, cover) == []
    with pytest.raises(ValueError, match=r"cover shape \(3,1\) does not match"):
        verify_hazard_free_cover(instance, cover)
    two_outputs = Cover.from_strings(["11 11"], n_outputs=2)
    with pytest.raises(ValueError, match=r"instance shape \(2,1\)"):
        verify_hazard_free_cover(instance, two_outputs)
    assert verify_hazard_free_cover(instance, Cover.from_strings(["11 1"])) == []


def test_column_masks_match_the_cube_predicates():
    # Every input part over 3 variables, EMPTY literals included, against a
    # cover of all of them: each mask bit is the scalar predicate.
    n = 3
    parts = list(range(1 << (2 * n)))
    cols = Cover(n, [Cube(n, bits) for bits in parts]).columns()
    for q in parts:
        probe = Cube(n, q)
        meeting, containing = cols.meeting(q), cols.containing(q)
        for k, c in enumerate(parts):
            cube = Cube(n, c)
            assert (meeting >> k) & 1 == cube.intersects_input(probe)
            assert (containing >> k) & 1 == cube.contains_input(probe)
