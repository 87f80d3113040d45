"""Tests for the eight-valued hazard algebra."""

import itertools

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cubes import Cube, Cover
from repro.espresso.complement import complement
from repro.hazards import Transition
from repro.hazards.required import maximal_on_subcubes
from repro.hazards.transitions import function_hazard_free_brute
from repro.detect.netlist import Netlist
from repro.simulate import find_glitch
from repro.simulate.algebra import (
    W,
    classify_network,
    has_logic_hazard,
    input_class,
    wand,
    wnot,
    wor,
)


def lemma_hazard_free(cover: Cover, transition: Transition) -> bool:
    """Per-transition hazard-freedom from Lemmas 2.5-2.8 (ground truth)."""
    f_start = cover.evaluate(transition.start)
    f_end = cover.evaluate(transition.end)
    t_cube = transition.cube
    if not f_start and not f_end:
        return True  # Lemma 2.5
    if f_start and f_end:
        return any(c.contains_input(t_cube) for c in cover)  # Lemma 2.6
    if not f_start:
        transition = transition.reversed()  # normalize 0->1 to 1->0
        t_cube = transition.cube
    start_cube = Cube.minterm(transition.start)
    # Lemma 2.7: every intersecting cube must contain the start point
    for c in cover:
        if c.intersects_input(t_cube) and not c.contains_input(start_cube):
            return False
    # Lemma 2.8: every maximal ON subcube [A,X] inside one cube
    off = complement(cover)
    for req in maximal_on_subcubes(transition, off):
        if not any(c.contains_input(req) for c in cover):
            return False
    return True


class TestAlgebraBasics:
    def test_class_attributes(self):
        assert W.S0.v0 == 0 and W.S0.v1 == 0 and not W.S0.hazard
        assert W.HR.v0 == 0 and W.HR.v1 == 1 and W.HR.hazard

    def test_not_is_involution(self):
        for w in W:
            assert wnot(wnot(w)) == w

    def test_and_or_commutative(self):
        for a in W:
            for b in W:
                assert wand(a, b) == wand(b, a)
                assert wor(a, b) == wor(b, a)

    def test_and_or_associative(self):
        for a, b, c in itertools.product(W, repeat=3):
            assert wand(wand(a, b), c) == wand(a, wand(b, c))
            assert wor(wor(a, b), c) == wor(a, wor(b, c))

    def test_de_morgan(self):
        for a in W:
            for b in W:
                assert wnot(wand(a, b)) == wor(wnot(a), wnot(b))

    def test_identities_and_dominators(self):
        for a in W:
            assert wand(a, W.S1) == a
            assert wand(a, W.S0) == W.S0
            assert wor(a, W.S0) == a
            assert wor(a, W.S1) == W.S1

    def test_classic_entries(self):
        # rise AND fall can pulse high? no: starts 0 ends 0 but may pulse = H0
        assert wand(W.RISE, W.FALL) == W.H0
        # rise OR fall can droop low = H1
        assert wor(W.RISE, W.FALL) == W.H1
        # clean composition stays clean
        assert wand(W.RISE, W.RISE) == W.RISE
        assert wor(W.FALL, W.FALL) == W.FALL
        # hazards propagate
        assert wand(W.H1, W.RISE) == W.HR
        assert wor(W.H0, W.FALL) == W.HF

    def test_input_class(self):
        assert input_class(0, 0) == W.S0
        assert input_class(1, 1) == W.S1
        assert input_class(0, 1) == W.RISE
        assert input_class(1, 0) == W.FALL


class TestNetworkClassification:
    def test_static1_hazard_detected(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        assert classify_network(net, t) == W.H1
        assert has_logic_hazard(net, t)

    def test_consensus_removes_hazard(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1", "-11"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        assert classify_network(net, t) == W.S1
        assert not has_logic_hazard(net, t)

    def test_dynamic_hazard_detected(self):
        # figure1's plain minimum cover glitches on 1100 -> 0000
        from repro.bench.figure1 import figure1_experiment

        plain = figure1_experiment().plain_cover
        net = Netlist.from_cover(plain)
        t = Transition((1, 1, 0, 0), (0, 0, 0, 0))
        assert has_logic_hazard(net, t)

    def test_tautology_pair_glitches(self):
        # f = a + a' is constant 1 but the OR can droop during a's change
        net = Netlist.from_cover(Cover.from_strings(["1", "0"]))
        t = Transition((0,), (1,))
        assert classify_network(net, t) == W.H1

    def test_single_cube_never_hazardous_static(self):
        net = Netlist.from_cover(Cover.from_strings(["1--"]))
        t = Transition((1, 0, 0), (1, 1, 1))
        assert classify_network(net, t) == W.S1

    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.data())
    def test_matches_lemma_conditions(self, data):
        """The algebra agrees exactly with Lemmas 2.5-2.8 on two-level
        networks over function-hazard-free transitions."""
        n = data.draw(st.integers(2, 4))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(1, 3), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
        cover = Cover(n, [Cube.from_literals(r) for r in rows])
        a = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        b = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        t = Transition(a, b)
        off = complement(cover)
        assume(function_hazard_free_brute(t, cover, off))
        assert has_logic_hazard(Netlist.from_cover(cover), t) != lemma_hazard_free(cover, t)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.integers(0, 20_000))
    def test_whole_cover_checker_matches_verifier(self, seed):
        """For function-preserving covers, the algebra-based whole-cover
        check agrees with the Theorem 2.11 verifier."""
        from repro.bm.random_spec import random_instance
        from repro.hazards import hazard_free_solution_exists
        from repro.hazards.verify import is_hazard_free_cover
        from repro.hf import espresso_hf
        from repro.simulate.algebra import cover_hazard_free_by_algebra

        inst = random_instance(4, 1, n_transitions=3, seed=seed)
        assume(hazard_free_solution_exists(inst))
        good = espresso_hf(inst).cover
        assert cover_hazard_free_by_algebra(inst, good)
        assert is_hazard_free_cover(inst, good)
        # function-preserving corruption: split a cube on a free variable
        for q in inst.required_cubes():
            hit = False
            for c in good:
                free = [i for i in q.cube.free_vars() if c.literal(i) == 3]
                if c.contains_input(q.cube) and free:
                    pieces = [c.with_literal(free[0], 1), c.with_literal(free[0], 2)]
                    bad = Cover(
                        inst.n_inputs,
                        [d for d in good if d != c] + pieces,
                        inst.n_outputs,
                    )
                    assert cover_hazard_free_by_algebra(inst, bad) == (
                        is_hazard_free_cover(inst, bad)
                    )
                    hit = True
                    break
            if hit:
                break

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.data())
    def test_monte_carlo_glitches_imply_algebra_hazard(self, data):
        """Anything the random-delay simulator can glitch, the algebra
        flags (the converse needs luckier delay draws, so is not asserted)."""
        n = data.draw(st.integers(2, 3))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(1, 3), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
        cover = Cover(n, [Cube.from_literals(r) for r in rows])
        a = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        b = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        t = Transition(a, b)
        off = complement(cover)
        assume(function_hazard_free_brute(t, cover, off))
        net = Netlist.from_cover(cover)
        if find_glitch(net, t, trials=150, seed=5) is not None:
            assert has_logic_hazard(net, t)
