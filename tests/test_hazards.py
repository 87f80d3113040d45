"""Tests for hazard theory: transitions, required/privileged cubes,
supercube_dhf, verification and existence."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cubes import Cube, Cover
from repro.hazards import (
    Transition,
    TransitionKind,
    classify_transition,
    function_hazard_free,
    HazardFreeInstance,
    PrivilegedCube,
    maximal_on_subcubes,
    minimal_hitting_sets,
    supercube_dhf,
    is_dhf_implicant,
    illegally_intersects,
    verify_hazard_free_cover,
    hazard_free_solution_exists,
    existence_report,
)
from repro.hazards.instance import InstanceError
from repro.hazards.required import maximal_on_subcubes_brute
from repro.hazards.transitions import function_hazard_free_brute
from repro.hazards.verify import is_hazard_free_cover


# ----------------------------------------------------------------------
# Shared fixtures: the Figure 3 instance (reconstructed from the paper) and
# a minimal unsolvable instance (Figure 5 analogue).
# ----------------------------------------------------------------------


def figure3_instance():
    """The paper's canonicalization example (§3.2, Figure 3).

    Inputs a,b,c,d.  ON = b + ac' + a'c'd', OFF = b'c + a'b'c'd.
    Privileged cubes: p1 = a'c' (start a'bc'd' = 0100),
    p2 = ad (start abc'd = 1101).
    """
    on = Cover.from_strings(["-1--", "1-0-", "0-00"])
    off = Cover.from_strings(["-01-", "0001"])
    transitions = [
        Transition((0, 1, 0, 0), (0, 0, 0, 1)),  # falling across p1 = a'c'
        Transition((1, 1, 0, 1), (1, 0, 1, 1)),  # falling across p2 = ad
        Transition((1, 0, 0, 0), (1, 1, 0, 1)),  # 1->1 giving ac'
        Transition((0, 1, 1, 1), (1, 1, 1, 1)),  # 1->1 giving bcd
        Transition((0, 1, 1, 0), (1, 1, 1, 0)),  # 1->1 giving bcd'
    ]
    return HazardFreeInstance(on, off, transitions, name="figure3")


def unsolvable_instance():
    """A minimal instance with no hazard-free cover (Figure 5 analogue).

    Inputs a,b,c.  ON = ab + bc', OFF = ab' + a'bc.  The required cube bc'
    illegally intersects the privileged cube a (start abc), and its forced
    expansion b hits the OFF point a'bc.
    """
    on = Cover.from_strings(["11-", "-10"])
    off = Cover.from_strings(["10-", "011"])
    transitions = [
        Transition((1, 1, 1), (1, 0, 0)),  # falling, privileged cube a
        Transition((0, 1, 0), (1, 1, 0)),  # 1->1 giving required cube bc'
    ]
    return HazardFreeInstance(on, off, transitions, name="unsolvable")


def full_function_strategy(n):
    """A random everywhere-defined function as (on_cover, off_cover)."""

    def build(bits):
        on = Cover(n, [Cube.from_index(n, m) for m in range(1 << n) if (bits >> m) & 1])
        off = Cover(
            n, [Cube.from_index(n, m) for m in range(1 << n) if not (bits >> m) & 1]
        )
        return on, off

    return st.integers(0, (1 << (1 << n)) - 1).map(build)


def vec_strategy(n):
    return st.tuples(*([st.integers(0, 1)] * n))


# ----------------------------------------------------------------------
# Transitions
# ----------------------------------------------------------------------


class TestTransition:
    def test_cube_and_changing(self):
        t = Transition((0, 1, 0), (1, 1, 1))
        assert t.cube.input_string() == "-1-"
        assert t.changing == (0, 2)

    def test_reversed(self):
        t = Transition((0, 1), (1, 0))
        assert t.reversed() == Transition((1, 0), (0, 1))

    def test_memoized_cube_keeps_equality_hash_and_pickle(self):
        import copy
        import pickle

        fresh = Transition((0, 1, 0), (1, 1, 1))
        used = Transition((0, 1, 0), (1, 1, 1))
        before = pickle.dumps(used)
        assert used.cube is used.cube and used.changing is used.changing
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == before == pickle.dumps(fresh)
        for clone in (pickle.loads(before), copy.deepcopy(used)):
            assert clone == used and hash(clone) == hash(used)
            assert clone.cube == used.cube and clone.changing == (0, 2)
        assert repr(used) == "Transition(start=(0, 1, 0), end=(1, 1, 1))"

    def test_bad_vectors_rejected(self):
        with pytest.raises(ValueError):
            Transition((0, 2), (1, 1))
        with pytest.raises(ValueError):
            Transition((0, 1), (1,))

    def test_classify(self):
        t = Transition((0,), (1,))
        assert classify_transition(t, True, True) is TransitionKind.STATIC_ONE
        assert classify_transition(t, True, False) is TransitionKind.FALLING
        assert classify_transition(t, False, True) is TransitionKind.RISING
        assert classify_transition(t, False, False) is TransitionKind.STATIC_ZERO


class TestFunctionHazards:
    def test_static_one_clean(self):
        on = Cover.from_strings(["-1-"])
        off = Cover.from_strings(["-0-"])
        t = Transition((0, 1, 0), (1, 1, 1))
        assert function_hazard_free(t, on, off)

    def test_static_hazard_detected(self):
        # f = ab + a'b'; transition 00 -> 11 passes through f=0 points
        on = Cover.from_strings(["11", "00"])
        off = Cover.from_strings(["10", "01"])
        t = Transition((0, 0), (1, 1))
        assert not function_hazard_free(t, on, off)

    def test_monotone_falling_clean(self):
        on = Cover.from_strings(["11-"])
        off = Cover.from_strings(["0--", "10-"])
        # 111 -> 100: f goes 1(111),1(110),0(101),0(100): monotonic
        t = Transition((1, 1, 1), (1, 0, 0))
        assert function_hazard_free(t, on, off)

    def test_dynamic_hazard_detected(self):
        # f(111)=1, f(110)=0, f(100)=1, f(101)=0: 1 reachable after 0
        on = Cover.from_strings(["111", "100"])
        off = Cover.from_strings(["110", "101", "0--"])
        t = Transition((1, 1, 1), (1, 0, 0))
        assert not function_hazard_free(t, on, off)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 4))
        on, off = data.draw(full_function_strategy(n))
        a = data.draw(vec_strategy(n))
        b = data.draw(vec_strategy(n))
        t = Transition(a, b)
        assert function_hazard_free(t, on, off) == function_hazard_free_brute(
            t, on, off
        )


# ----------------------------------------------------------------------
# Minimal hitting sets + required cubes
# ----------------------------------------------------------------------


class TestMinimalHittingSets:
    def test_single_set(self):
        assert sorted(minimal_hitting_sets([frozenset({1, 2})])) == [
            frozenset({1}),
            frozenset({2}),
        ]

    def test_disjoint_sets(self):
        hs = minimal_hitting_sets([frozenset({1}), frozenset({2})])
        assert hs == [frozenset({1, 2})]

    def test_overlapping(self):
        hs = set(minimal_hitting_sets([frozenset({1, 2}), frozenset({2, 3})]))
        assert hs == {frozenset({2}), frozenset({1, 3})}

    def test_empty_family(self):
        assert minimal_hitting_sets([]) == [frozenset()]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            minimal_hitting_sets([frozenset()])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(0, 5), min_size=1, max_size=4),
            min_size=0,
            max_size=5,
        )
    )
    def test_properties(self, family):
        hs = minimal_hitting_sets(family)
        # every result hits every set
        for h in hs:
            assert all(h & d for d in family)
        # minimality: removing any element breaks some set
        for h in hs:
            for x in h:
                smaller = h - {x}
                assert not all(smaller & d for d in family)
        # completeness: any hitting set contains some minimal one (spot check
        # with the full universe)
        universe = frozenset().union(*family) if family else frozenset()
        if family:
            assert any(h <= universe for h in hs)


class TestRequiredCubes:
    def test_simple_falling(self):
        # ON = b (2 vars a,b); falling 11 -> 00 via cube "--"
        on = Cover.from_strings(["-1"])
        off = Cover.from_strings(["-0"])
        t = Transition((1, 1), (0, 0))
        req = maximal_on_subcubes(t, off)
        assert [c.input_string() for c in req] == ["-1"]

    def test_two_maximal_subcubes(self):
        # figure3's p2-style: two escape directions
        on = Cover.from_strings(["-1--", "1-0-", "0-00"])
        off = Cover.from_strings(["-01-", "0001"])
        t = Transition((1, 1, 0, 1), (1, 0, 1, 1))
        req = maximal_on_subcubes(t, off)
        assert {c.input_string() for c in req} == {"1-01", "11-1"}

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 4))
        on, off = data.draw(full_function_strategy(n))
        a = data.draw(vec_strategy(n))
        b = data.draw(vec_strategy(n))
        t = Transition(a, b)
        assume(on.evaluate(a) and not on.evaluate(b))
        assume(function_hazard_free_brute(t, on, off))
        got = maximal_on_subcubes(t, off)
        expected = maximal_on_subcubes_brute(t, on)
        assert [c.input_string() for c in got] == [
            c.input_string() for c in expected
        ]


# ----------------------------------------------------------------------
# Instance construction / validation
# ----------------------------------------------------------------------


class TestInstance:
    def test_figure3_sets(self):
        inst = figure3_instance()
        req = {q.cube.input_string() for q in inst.required_cubes()}
        assert req == {"0-00", "010-", "1-0-", "1-01", "11-1", "-111", "-110"}
        priv = {
            (p.cube.input_string(), p.start.input_string())
            for p in inst.privileged_cubes()
        }
        assert priv == {("0-0-", "0100"), ("1--1", "1101")}

    def test_overlapping_on_off_rejected(self):
        on = Cover.from_strings(["1-"])
        off = Cover.from_strings(["11"])
        with pytest.raises(InstanceError):
            HazardFreeInstance(on, off, [])

    def test_undefined_transition_rejected(self):
        on = Cover.from_strings(["11"])
        off = Cover.from_strings(["00"])
        t = Transition((1, 1), (0, 0))  # passes through undefined 10/01
        with pytest.raises(InstanceError):
            HazardFreeInstance(on, off, [t])

    def test_function_hazard_rejected(self):
        on = Cover.from_strings(["11", "00"])
        off = Cover.from_strings(["10", "01"])
        t = Transition((0, 0), (1, 1))
        with pytest.raises(InstanceError):
            HazardFreeInstance(on, off, [t])

    def test_static_zero_contributes_nothing(self):
        on = Cover.from_strings(["11"])
        off = Cover.from_strings(["0-", "10"])
        t = Transition((0, 0), (0, 1))
        inst = HazardFreeInstance(on, off, [t])
        assert inst.required_cubes() == []
        assert inst.privileged_cubes() == []

    def test_rising_normalized_to_falling(self):
        on = Cover.from_strings(["-1"])
        off = Cover.from_strings(["-0"])
        t = Transition((0, 0), (1, 1))  # f: 0 -> 1
        inst = HazardFreeInstance(on, off, [t])
        priv = inst.privileged_cubes()
        assert len(priv) == 1
        # normalized start is the end point of the rising transition
        assert priv[0].start.input_string() == "11"

    def test_multi_output_kinds(self):
        on = Cover.from_strings(["-1 10", "11 01"])
        off = Cover.from_strings(["-0 10", "0- 01", "10 01"])
        t = Transition((0, 1), (1, 1))
        inst = HazardFreeInstance(on, off, [t])
        assert inst.kind(t, 0) is TransitionKind.STATIC_ONE
        assert inst.kind(t, 1) is TransitionKind.RISING


# ----------------------------------------------------------------------
# supercube_dhf
# ----------------------------------------------------------------------


class TestSupercubeDhf:
    def test_no_privileged_is_plain_supercube(self):
        off = Cover(4)
        r = supercube_dhf([Cube.from_string("1100")], [], off)
        assert r.input_string() == "1100"

    def test_figure3_chain(self):
        """The paper's walkthrough: bcd -> bd -> b."""
        inst = figure3_instance()
        priv = inst.privileged_for_output(0)
        off = inst.off_for_output(0)
        r = supercube_dhf([Cube.from_string("-111")], priv, off)
        assert r.input_string() == "-1--"

    def test_already_dhf_unchanged(self):
        inst = figure3_instance()
        priv = inst.privileged_for_output(0)
        off = inst.off_for_output(0)
        r = supercube_dhf([Cube.from_string("1-0-")], priv, off)
        assert r.input_string() == "1-0-"

    def test_undefined_when_hits_off(self):
        priv = [
            PrivilegedCube(Cube.from_string("--1-"), Cube.from_string("0111"), 0),
            PrivilegedCube(Cube.from_string("0-0-"), Cube.from_string("0100"), 0),
        ]
        off = Cover.from_strings(["1100"])
        # figure 5 narrative: abd -> bd -> b -> intersects OFF
        r = supercube_dhf([Cube.from_string("11-1")], priv, off)
        assert r is None

    def test_result_is_dhf_implicant(self):
        inst = figure3_instance()
        priv = inst.privileged_for_output(0)
        off = inst.off_for_output(0)
        for q in inst.required_cubes():
            r = supercube_dhf([q.cube], priv, off)
            assert r is not None
            assert is_dhf_implicant(r, priv, off)
            assert r.contains_input(q.cube)

    def test_minimality_of_canonical_cube(self):
        """No strictly smaller dhf-implicant contains the required cube."""
        inst = figure3_instance()
        priv = inst.privileged_for_output(0)
        off = inst.off_for_output(0)
        r = supercube_dhf([Cube.from_string("-111")], priv, off)
        # enumerate all cubes between bcd and b strictly smaller than b
        for lits in itertools.product((1, 2, 3), repeat=4):
            cand = Cube.from_literals(lits)
            if cand == r:
                continue
            if cand.contains_input(Cube.from_string("-111")) and r.contains_input(cand):
                assert not is_dhf_implicant(cand, priv, off)


class TestIllegalIntersection:
    def test_basic(self):
        p = PrivilegedCube(Cube.from_string("1--"), Cube.from_string("111"), 0)
        assert illegally_intersects(Cube.from_string("1-0"), p)
        assert not illegally_intersects(Cube.from_string("11-"), p)  # has start
        assert not illegally_intersects(Cube.from_string("0--"), p)  # disjoint


# ----------------------------------------------------------------------
# Verification (Theorem 2.11)
# ----------------------------------------------------------------------


class TestVerify:
    def test_valid_cover_accepted(self):
        inst = figure3_instance()
        cover = Cover.from_strings(["-1--", "1-0-", "0-00"])
        assert is_hazard_free_cover(inst, cover)

    def test_off_intersection_caught(self):
        inst = figure3_instance()
        cover = Cover.from_strings(["-1--", "1-0-", "0-0-"])  # 0-0- hits 0001
        violations = verify_hazard_free_cover(inst, cover)
        assert any(v.condition == "off-intersection" for v in violations)

    def test_uncovered_required_caught(self):
        inst = figure3_instance()
        cover = Cover.from_strings(["-1--", "1-0-"])  # misses 0-00
        violations = verify_hazard_free_cover(inst, cover)
        assert any(v.condition == "uncovered-required" for v in violations)

    def test_illegal_intersection_caught(self):
        inst = figure3_instance()
        # bcd covers required cube -111 but illegally intersects p2 = ad
        cover = Cover.from_strings(["-111", "-1-0", "011-", "1-0-", "0-00", "11-1"])
        violations = verify_hazard_free_cover(inst, cover, collect_all=True)
        assert any(v.condition == "illegal-intersection" for v in violations)

    def test_multi_output_cover_checked_per_output(self):
        on = Cover.from_strings(["-1 10", "-1 01"])
        off = Cover.from_strings(["-0 10", "-0 01"])
        t = Transition((0, 1), (1, 1))
        inst = HazardFreeInstance(on, off, [t])
        good = Cover.from_strings(["-1 11"])
        assert is_hazard_free_cover(inst, good)
        # covers output 0 only: output 1's required cube is uncovered
        partial = Cover.from_strings(["-1 10"])
        violations = verify_hazard_free_cover(inst, partial)
        assert any(
            v.condition == "uncovered-required" and v.output == 1 for v in violations
        )


# ----------------------------------------------------------------------
# Existence (Theorem 4.1)
# ----------------------------------------------------------------------


class TestExistence:
    def test_figure3_has_solution(self):
        assert hazard_free_solution_exists(figure3_instance())

    def test_unsolvable_detected(self):
        inst = unsolvable_instance()
        report = existence_report(inst)
        assert not report.exists
        assert len(report.failures) == 1
        assert report.failures[0].cube.input_string() == "-10"

    def test_unsolvable_chain_detail(self):
        inst = unsolvable_instance()
        priv = inst.privileged_for_output(0)
        off = inst.off_for_output(0)
        assert supercube_dhf([Cube.from_string("-10")], priv, off) is None
        assert supercube_dhf([Cube.from_string("11-")], priv, off) is not None

    def test_no_transitions_trivially_exists(self):
        on = Cover.from_strings(["1-"])
        off = Cover.from_strings(["0-"])
        inst = HazardFreeInstance(on, off, [])
        assert hazard_free_solution_exists(inst)
