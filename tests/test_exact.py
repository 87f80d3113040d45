"""Tests for the exact hazard-free minimizer (primes → dhf-primes → MINCOV)."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cubes import Cube
from repro.bm.random_spec import random_instance
from repro.exact import (
    all_dhf_primes,
    exact_hazard_free_minimize,
    ExactBudget,
    ExactFailure,
)
from repro.exact.dhf_primes import instance_primes, transform_to_dhf_primes
from repro.hazards import hazard_free_solution_exists
from repro.hazards.dhf import is_dhf_implicant
from repro.hazards.verify import is_hazard_free_cover
from repro.hf import espresso_hf

from tests.test_hazards import figure3_instance, unsolvable_instance


def brute_force_dhf_primes(instance):
    """Exhaustive dhf-prime enumeration for small single-output instances."""
    n = instance.n_inputs
    off = instance.off_for_output(0)
    priv = instance.privileged_for_output(0)
    implicants = []
    for lits in itertools.product((1, 2, 3), repeat=n):
        cube = Cube.from_literals(lits)
        if is_dhf_implicant(cube, priv, off):
            implicants.append(cube)
    return {
        c
        for c in implicants
        if not any(d != c and d.contains_input(c) for d in implicants)
    }


class TestDhfPrimes:
    def test_figure3_dhf_primes(self):
        inst = figure3_instance()
        got = {c.inbits for c in all_dhf_primes(inst)}
        expected = {c.inbits for c in brute_force_dhf_primes(inst)}
        assert got == expected

    def test_dhf_primes_are_dhf_implicants(self):
        inst = figure3_instance()
        priv = inst.privileged_for_output(0)
        off = inst.off_for_output(0)
        for p in all_dhf_primes(inst):
            probe = Cube(p.n_inputs, p.inbits, 1, 1)
            assert is_dhf_implicant(probe, priv, off)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.integers(0, 5000))
    def test_matches_brute_force_on_random(self, seed):
        inst = random_instance(4, 1, n_transitions=3, seed=seed)
        got = {c.inbits for c in all_dhf_primes(inst)}
        expected = {c.inbits for c in brute_force_dhf_primes(inst)}
        assert got == expected

    def test_transform_budget(self):
        from repro.exact.dhf_primes import DhfTransformExplosionError

        inst = figure3_instance()
        primes = instance_primes(inst)
        with pytest.raises(DhfTransformExplosionError):
            transform_to_dhf_primes(primes, inst, limit=0)


class TestExactMinimize:
    def test_figure3_minimum(self):
        inst = figure3_instance()
        res = exact_hazard_free_minimize(inst)
        assert res.num_cubes == 3
        assert is_hazard_free_cover(inst, res.cover)

    def test_no_solution_detected(self):
        res = exact_hazard_free_minimize(unsolvable_instance())
        assert res.status == "no_solution"
        assert res.cover is None
        assert res.num_cubes == 0
        assert "required cube" in res.detail

    def test_prime_budget_failure(self):
        inst = figure3_instance()
        with pytest.raises(ExactFailure) as err:
            exact_hazard_free_minimize(inst, budget=ExactBudget(prime_limit=1))
        assert err.value.stage == "primes"

    def test_heuristic_cover_mode(self):
        inst = figure3_instance()
        res = exact_hazard_free_minimize(inst, heuristic_cover=True)
        assert is_hazard_free_cover(inst, res.cover)
        assert res.num_cubes >= 3

    def test_brute_force_minimality_small(self):
        """Cross-check exact cardinality against brute-force search over
        subsets of dhf-primes."""
        inst = figure3_instance()
        res = exact_hazard_free_minimize(inst)
        primes = all_dhf_primes(inst)
        required = inst.required_cubes()
        best = None
        for r in range(1, len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                if all(
                    any(p.contains_input(q.cube) for p in combo) for q in required
                ):
                    best = r
                    break
            if best is not None:
                break
        assert res.num_cubes == best

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.integers(0, 10_000), st.integers(3, 4), st.integers(1, 2))
    def test_exact_at_most_hf(self, seed, n, m):
        inst = random_instance(n, m, n_transitions=4, seed=seed)
        if not hazard_free_solution_exists(inst):
            assert exact_hazard_free_minimize(inst).status == "no_solution"
            return
        exact = exact_hazard_free_minimize(inst)
        assert exact.status == "ok"
        hf = espresso_hf(inst)
        assert is_hazard_free_cover(inst, exact.cover)
        assert exact.num_cubes <= hf.num_cubes

    def test_agreement_with_existence_check(self):
        """Theorem 4.1's fast check must agree with the exact method's
        covering-table existence criterion on random instances."""
        for seed in range(40):
            inst = random_instance(4, 1, n_transitions=3, seed=seed)
            fast = hazard_free_solution_exists(inst)
            slow = exact_hazard_free_minimize(inst).status == "ok"
            assert fast == slow, f"seed {seed}"
