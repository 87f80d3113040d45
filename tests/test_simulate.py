"""Tests for the ternary and Monte-Carlo hazard simulators."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cubes import Cover
from repro.cubes.cube import LITERAL_ONE, LITERAL_ZERO
from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.bm.random_spec import random_instance
from repro.detect.netlist import Netlist
from repro.hazards import Transition, hazard_free_solution_exists
from repro.hf import espresso_hf
from repro.simulate import (
    find_glitch,
    has_static_hazard_ternary,
    simulate_transition,
    ternary_simulate,
)
from repro.simulate.montecarlo import is_monotonic_waveform

from tests.test_hazards import figure3_instance
from tests.test_oracle_sensitivity import CORPUS


class TestNetwork:
    def test_evaluate(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        assert net.evaluate([1, 1, 0]) == (1,)
        assert net.evaluate([0, 0, 1]) == (1,)
        assert net.evaluate([1, 0, 0]) == (0,)

    def test_multi_output_selection(self):
        cover = Cover.from_strings(["1- 10", "-1 01"])
        net = Netlist.from_cover(cover)
        assert net.evaluate([1, 0])[0] == 1
        assert net.evaluate([0, 1])[0] == 0
        assert net.evaluate([0, 1])[1] == 1
        assert net.products(0) == (((0, 1),),)
        assert net.products(1) == (((1, 1),),)

    def test_ternary_controlling_values(self):
        net = Netlist.from_cover(Cover.from_strings(["11"]))
        assert net.evaluate_ternary([0, None]) == (0,)  # AND controlled by 0
        assert net.evaluate_ternary([1, None]) == (None,)
        net2 = Netlist.from_cover(Cover.from_strings(["1-", "-1"]))
        assert net2.evaluate_ternary([1, None]) == (1,)  # OR controlled by 1

    def test_empty_cover_is_constant_zero(self):
        net = Netlist.from_cover(Cover(2))
        assert net.evaluate([0, 0]) == (0,)
        assert net.evaluate_ternary([None, None]) == (0,)


class TestTernary:
    def test_classic_static_hazard(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        assert has_static_hazard_ternary(net, t)

    def test_consensus_cube_removes_hazard(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1", "-11"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        assert not has_static_hazard_ternary(net, t)

    def test_static_zero_never_hazardous(self):
        """Lemma 2.5: 0->0 transitions of AND-OR logic cannot glitch."""
        net = Netlist.from_cover(Cover.from_strings(["11-"]))
        t = Transition((0, 0, 0), (0, 0, 1))
        assert not has_static_hazard_ternary(net, t)

    def test_dynamic_rejected(self):
        net = Netlist.from_cover(Cover.from_strings(["1--"]))
        t = Transition((1, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            has_static_hazard_ternary(net, t)

    def test_ternary_agrees_with_lemma_2_6(self):
        """1->1 hazard-free iff some product covers the whole transition."""
        cover = Cover.from_strings(["1-0", "-11"])
        net = Netlist.from_cover(cover)
        t_covered = Transition((1, 0, 0), (1, 1, 0))  # inside 1-0
        t_split = Transition((1, 0, 0), (1, 1, 1))  # split across products
        assert ternary_simulate(net, t_covered) == 1
        assert ternary_simulate(net, t_split) is None


class TestMonteCarlo:
    def test_waveform_monotonicity_checker(self):
        assert is_monotonic_waveform([(0.0, 1)], 1, 1)
        assert is_monotonic_waveform([(0.0, 1), (3.0, 0)], 1, 0)
        assert not is_monotonic_waveform([(0.0, 1), (1.0, 0), (2.0, 1)], 1, 1)
        assert not is_monotonic_waveform([(0.0, 0), (1.0, 1), (2.0, 0), (3.0, 1)], 0, 1)

    def test_static_hazard_found(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        assert find_glitch(net, t, trials=300) is not None

    def test_hazard_free_cover_never_glitches(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1", "-11"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        assert find_glitch(net, t, trials=300) is None

    def test_single_input_change_never_glitches_static(self):
        """A single-input 1->1 change inside one product is always clean."""
        net = Netlist.from_cover(Cover.from_strings(["1--"]))
        t = Transition((1, 0, 0), (1, 1, 0))
        assert find_glitch(net, t, trials=100) is None

    def test_waveform_endpoints_are_steady_state(self):
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        t = Transition((1, 1, 0), (0, 1, 1))
        rng = random.Random(1)
        for _ in range(20):
            wf = simulate_transition(net, t, rng)
            assert wf[0][1] == net.evaluate(t.start)[0]
            assert wf[-1][1] == net.evaluate(t.end)[0]

    def test_figure3_minimized_cover_clean_on_all_transitions(self):
        inst = figure3_instance()
        res = espresso_hf(inst)
        net = Netlist.from_cover(res.cover)
        for t in inst.transitions:
            assert find_glitch(net, t, trials=150, seed=3) is None

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.integers(0, 3000))
    def test_minimized_random_instances_never_glitch(self, seed):
        """End-to-end: algebraic hazard-freedom implies simulated
        glitch-freedom under random delays (the paper's §2.5 lemmas)."""
        inst = random_instance(4, 1, n_transitions=3, seed=seed)
        if not hazard_free_solution_exists(inst):
            return
        res = espresso_hf(inst)
        net = Netlist.from_cover(res.cover)
        for t in inst.transitions:
            assert find_glitch(net, t, trials=60, seed=seed) is None


def _cube_products(cover, j):
    """The cover's non-empty cubes carrying output ``j``, in cover order,
    as ``(var, phase)`` literal tuples."""
    return tuple(
        tuple(
            (i, 1 if cube.literal(i) == LITERAL_ONE else 0)
            for i in range(cover.n_inputs)
            if cube.literal(i) in (LITERAL_ONE, LITERAL_ZERO)
        )
        for cube in cover
        if not cube.is_empty and cube.has_output(j)
    )


class TestMonteCarloDrawOrder:
    """The Monte-Carlo simulator draws one delay per literal wire, one per
    AND gate and one per OR branch, in product order.  Seeded trials are
    reproducible only while ``Netlist.products`` lists an output's
    products exactly as the cover lists its cubes."""

    def test_products_follow_cover_order(self):
        covers = [cover for _, cover in CORPUS] + [
            espresso_hf(build_benchmark(b.name)).cover for b in BENCHMARKS
        ]
        outputs = 0
        for cover in covers:
            net = Netlist.from_cover(cover)
            for j in range(cover.n_outputs):
                assert net.products(j) == _cube_products(cover, j)
                outputs += 1
        assert outputs >= 200

    def test_textbook_glitch_is_pinned(self):
        """Trial index and exact waveform of the first glitch on the
        textbook static-1 hazard, seed 0."""
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        report = find_glitch(net, Transition((1, 1, 1), (0, 1, 1)))
        assert report.trial == 0
        assert report.output_waveform == [
            (0.0, 1),
            (27.479877702922728, 0),
            (31.994741555358164, 1),
        ]
