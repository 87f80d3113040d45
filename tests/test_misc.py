"""Targeted tests: cover/cube utility surface, results, budgets, instance
bookkeeping."""

import pytest

from repro.cubes import Cube, Cover
from repro.cubes.cube import parse_cubes
from repro.exact import ExactBudget, exact_hazard_free_minimize
from repro.hazards import HazardFreeInstance, Transition
from repro.hazards.instance import InstanceError
from repro.hf import espresso_hf

from tests.test_hazards import figure3_instance


class TestCubeExtras:
    def test_parse_cubes(self):
        cubes = parse_cubes(["1-0", "  ", "0-1 1"])
        assert len(cubes) == 2
        assert cubes[0].input_string() == "1-0"

    def test_from_string_empty_output_char(self):
        c = Cube.from_string("1-", "0~")
        assert c.outbits == 0
        assert c.is_empty

    def test_cofactor_disjoint_outputs(self):
        a = Cube.from_string("1-", "10")
        b = Cube.from_string("1-", "01")
        assert a.cofactor(b) is None

    def test_repr_forms(self):
        assert repr(Cube.from_string("1-")) == "Cube(1-)"
        cover = Cover.from_strings(["1-"])
        assert "Cover(" in repr(cover)

    def test_minterm_vectors_of_empty(self):
        c = Cube.from_string("1").intersect(Cube.from_string("0"))
        assert list(c.minterm_vectors()) == []

    def test_from_index_range(self):
        c = Cube.from_index(5, 0b10110)
        assert c.input_string() == "01101"  # bit i = variable i


class TestCoverExtras:
    def test_without(self):
        f = Cover.from_strings(["1-", "-1"])
        g = f.without(Cube.from_string("1-"))
        assert len(g) == 1 and len(f) == 2

    def test_sorted_deterministic(self):
        f = Cover.from_strings(["-1", "1-"])
        g = Cover.from_strings(["1-", "-1"])
        assert [str(c) for c in f.sorted()] == [str(c) for c in g.sorted()]

    def test_cubes_intersecting(self):
        f = Cover.from_strings(["11", "00"])
        hits = f.cubes_intersecting(Cube.from_string("1-"))
        assert [c.input_string() for c in hits] == ["11"]

    def test_on_set_vectors(self):
        f = Cover.from_strings(["1-"])
        assert sorted(f.on_set_vectors()) == [(1, 0), (1, 1)]

    def test_num_literals(self):
        f = Cover.from_strings(["1-0", "---"])
        assert f.num_literals() == 2

    def test_empty_from_strings_rejected(self):
        with pytest.raises(ValueError):
            Cover.from_strings([])

    def test_unhashable_but_keyable(self):
        a = Cover.from_strings(["1-", "-1"])
        b = Cover.from_strings(["-1", "1-"])
        # Covers are mutable containers: hashing is disabled outright.
        with pytest.raises(TypeError):
            hash(a)
        # key() gives an explicit order-insensitive content snapshot.
        assert a.key() == b.key()
        assert len({a.key(), b.key()}) == 1
        b.append(Cube.from_string("--"))
        assert a.key() != b.key()


class TestHFResultSurface:
    def test_summary_and_metrics(self):
        res = espresso_hf(figure3_instance())
        assert "3 cubes" in res.summary()
        assert res.num_literals == res.cover.num_literals()
        assert res.num_essential_classes == len(res.essentials)
        # Figure 3 is solved entirely by the essential classes, so the
        # reduce/expand/irredundant loop passes never execute and leave no
        # timing entries; only the always-run passes appear.
        assert set(res.phase_seconds) == {
            "canonicalize",
            "essentials",
            "merge_essentials",
            "make_prime",
            "final_irredundant",
        }

    def test_empty_result(self):
        on = Cover.from_strings(["1-"])
        off = Cover.from_strings(["0-"])
        res = espresso_hf(HazardFreeInstance(on, off, []))
        assert res.num_cubes == 0
        assert res.num_literals == 0


class TestExactBudgetSurface:
    def test_defaults_unbounded(self):
        budget = ExactBudget()
        assert budget.prime_limit is None
        assert budget.time_limit_s is None

    def test_phase_seconds_reported(self):
        res = exact_hazard_free_minimize(figure3_instance())
        assert set(res.phase_seconds) == {"primes", "transform", "covering"}
        assert res.num_primes >= res.num_cubes


class TestInstanceBookkeeping:
    def test_derived_sets_are_memoized(self):
        inst = figure3_instance()
        assert inst.required_cubes() is not inst.required_cubes()  # copies
        first = inst.required_cubes()
        second = inst.required_cubes()
        assert first == second

    def test_restrict_to_output(self):
        on = Cover.from_strings(["-1 10", "-1 01"])
        off = Cover.from_strings(["-0 10", "-0 01"])
        inst = HazardFreeInstance(on, off, [Transition((0, 1), (1, 1))])
        sub = inst.restrict_to_output(1)
        assert sub.n_outputs == 1
        assert len(sub.required_cubes()) == 1

    def test_kind_requires_defined_endpoints(self):
        on = Cover.from_strings(["11"])
        off = Cover.from_strings(["10", "01", "00"])
        inst = HazardFreeInstance(on, off, [])
        with pytest.raises(InstanceError):
            # endpoint 11 is ON but this instance knows nothing about a
            # transition through an undefined point in a 1-var slice
            bad = HazardFreeInstance(
                Cover.from_strings(["11"]),
                Cover.from_strings(["00"]),
                [],
            )
            bad.kind(Transition((1, 0), (0, 1)), 0)

    def test_wrong_width_transition_rejected(self):
        on = Cover.from_strings(["11"])
        off = Cover.from_strings(["10", "01", "00"])
        with pytest.raises(InstanceError):
            HazardFreeInstance(on, off, [Transition((1,), (0,))])

    def test_repr(self):
        assert "figure3" in repr(figure3_instance())
