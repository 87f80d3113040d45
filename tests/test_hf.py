"""Tests for the Espresso-HF minimizer and its operators."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cubes import Cube, Cover
from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.bm.random_spec import random_instance
from repro.hazards import (
    HazardFreeInstance,
    Transition,
    hazard_free_solution_exists,
)
from repro.hazards.verify import is_hazard_free_cover, verify_hazard_free_cover
from repro.hf import espresso_hf, EspressoHFOptions, NoSolutionError, HFContext
from repro.hf.essentials import compute_essentials
from repro.hf.expand import expand_cover, expand_toward_required
from repro.hf.irredundant import irredundant_cover
from repro.hf.lastgasp import last_gasp
from repro.hf.make_prime import make_dhf_prime
from repro.hf.reduce_ import reduce_cover
from repro.proptest.strategies import solvable_instances

from tests.test_hazards import figure3_instance, unsolvable_instance


def make_ctx(instance):
    ctx = HFContext(instance)
    qf = ctx.canonical_required()
    assert qf is not None
    return ctx, qf


class TestContext:
    def test_canonical_required_figure3(self):
        ctx, qf = make_ctx(figure3_instance())
        # bcd/bcd'/abd/a'bc' all canonicalize into b; ac'd into ac'; so the
        # SCC-minimized canonical set is {b, ac', a'c'd'}
        strs = {q.canonical.input_string() for q in qf}
        assert strs == {"-1--", "1-0-", "0-00"}

    def test_canonical_raises_when_unsolvable(self):
        ctx = HFContext(unsolvable_instance())
        with pytest.raises(NoSolutionError) as info:
            ctx.canonical_required()
        failures = info.value.failures
        assert [f"{q.cube.input_string()} (output {q.output})" for q in failures] == [
            "-10 (output 0)"
        ]
        assert str(failures[0].transition) == "010->110"
        assert str(info.value).endswith("offending required cubes: -10 (output 0)")

    def test_supercube_dhf_multi_output_union(self):
        on = Cover.from_strings(["-1 10", "-1 01"])
        off = Cover.from_strings(["-0 10", "-0 01"])
        t = Transition((0, 1), (1, 1))
        inst = HazardFreeInstance(on, off, [t])
        ctx = HFContext(inst)
        sup = ctx.supercube_dhf([Cube.from_string("-1")], 0b11)
        assert sup is not None and sup.input_string() == "-1"

    def test_covers_requires_output_match(self):
        ctx, qf = make_ctx(figure3_instance())
        q = qf[0]
        wrong_out = Cube(4, q.canonical.inbits, 0, 1)
        # a cube with no outputs covers nothing
        assert not ctx.covers(wrong_out.with_outputs(0), q) if False else True
        cube = ctx.cube_for(q)
        assert ctx.covers(cube, q)


class TestHFOperators:
    def test_expand_absorbs(self):
        inst = figure3_instance()
        ctx, qf = make_ctx(inst)
        cubes = [ctx.cube_for(q) for q in qf]
        expanded = expand_cover(cubes, qf, ctx)
        assert len(expanded) <= len(cubes)
        # every required cube still covered
        for q in qf:
            assert any(ctx.covers(c, q) for c in expanded)
        # every cube is a dhf-implicant
        for c in expanded:
            assert ctx.is_dhf_implicant(c, c.outbits)

    def test_expand_toward_required_is_monotone(self):
        inst = figure3_instance()
        ctx, qf = make_ctx(inst)
        seed = ctx.cube_for(qf[0])
        grown = expand_toward_required(seed, qf, ctx)
        assert grown.contains(seed)

    def test_reduce_preserves_coverage(self):
        inst = figure3_instance()
        ctx, qf = make_ctx(inst)
        cubes = expand_cover([ctx.cube_for(q) for q in qf], qf, ctx)
        reduced = reduce_cover(cubes, qf, ctx)
        for q in qf:
            assert any(ctx.covers(c, q) for c in reduced)
        for c in reduced:
            assert ctx.is_dhf_implicant(c, c.outbits)

    def test_irredundant_is_minimal_subset(self):
        inst = figure3_instance()
        ctx, qf = make_ctx(inst)
        cubes = [ctx.cube_for(q) for q in qf]
        # add duplicates: irredundant must drop them
        result = irredundant_cover(cubes + cubes, qf, ctx)
        assert len(result) <= len(cubes)
        for q in qf:
            assert any(ctx.covers(c, q) for c in result)

    def test_last_gasp_never_grows(self):
        inst = figure3_instance()
        ctx, qf = make_ctx(inst)
        cubes = expand_cover([ctx.cube_for(q) for q in qf], qf, ctx)
        cubes = irredundant_cover(cubes, qf, ctx)
        out = last_gasp(cubes, qf, ctx)
        assert len(out) <= len(cubes)
        for q in qf:
            assert any(ctx.covers(c, q) for c in out)

    @settings(derandomize=True)
    @given(solvable_instances())
    @example(figure3_instance())
    def test_make_dhf_prime_grows_to_maximal(self, inst):
        ctx, qf = make_ctx(inst)
        for q in qf:
            prime = make_dhf_prime(ctx.cube_for(q), ctx)
            assert prime.contains(ctx.cube_for(q))
            assert ctx.is_dhf_implicant(prime, prime.outbits)
            # no single raise may be feasible anymore
            for i in range(ctx.n_inputs):
                if prime.literal(i) == 3:
                    continue
                raised = prime.with_literal(i, 3)
                assert ctx.supercube_dhf([raised], prime.outbits) is None


def assert_no_single_raise(cube, ctx):
    for i in range(ctx.n_inputs):
        if cube.literal(i) == 3:
            continue
        raised = cube.with_literal(i, 3)
        assert ctx.supercube_dhf([raised], cube.outbits) is None


class TestDhfPrimeOnSuite:
    """MAKE_DHF_PRIME on the benchmark suite.

    One sweep over the variables must already be a fixpoint: forced
    expansion is monotone, so a second sweep finds no raise the first one
    missed.  The final cover of a full run is dhf-prime cube by cube.
    """

    @pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
    def test_one_sweep_is_a_fixpoint(self, name):
        ctx, qf = make_ctx(build_benchmark(name))
        for q in qf:
            prime = make_dhf_prime(ctx.cube_for(q), ctx)
            assert make_dhf_prime(prime, ctx) == prime
            assert_no_single_raise(prime, ctx)

    @pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
    def test_final_cover_is_dhf_prime(self, name):
        inst = build_benchmark(name)
        result = espresso_hf(inst)
        assert result.status == "ok"
        ctx, _ = make_ctx(inst)
        for cube in result.cover:
            assert ctx.is_dhf_implicant(cube, cube.outbits)
            assert_no_single_raise(cube, ctx)


class TestEssentialEquivalenceClasses:
    def test_trivial_class(self):
        """A lone required cube is trivially an essential class."""
        on = Cover.from_strings(["11-"])
        off = Cover.from_strings(["0--", "10-"])
        t = Transition((1, 1, 0), (1, 1, 1))
        inst = HazardFreeInstance(on, off, [t])
        ctx, qf = make_ctx(inst)
        essentials, remaining = compute_essentials(ctx, qf)
        assert len(essentials) == 1
        assert remaining == []

    def test_figure4_two_prime_class(self):
        """The paper's Figure 4 situation: a required cube covered by exactly
        two equal-cost dhf-primes.  Neither prime is essential individually,
        but one of them must appear in any cover — the *class* is essential
        and Espresso-HF detects it."""
        from repro.bm.random_spec import random_instance
        from repro.exact import all_dhf_primes

        inst = random_instance(4, 1, n_transitions=4, seed=9)
        primes = all_dhf_primes(inst)
        target = next(
            q for q in inst.required_cubes() if q.cube.input_string() == "1101"
        )
        covering = [p for p in primes if p.contains_input(target.cube)]
        # exactly two dhf-primes cover the distinguished required cube
        assert {p.input_string() for p in covering} == {"11-1", "-101"}
        # neither is classically essential for it (the other also covers it)
        for p in covering:
            others = [r for r in covering if r != p]
            assert any(o.contains_input(target.cube) for o in others)
        # yet the equivalence class is detected as essential
        ctx, qf = make_ctx(inst)
        essentials, remaining = compute_essentials(ctx, qf)
        assert any(e.contains_input(target.cube) for e in essentials)
        assert remaining == []

    def test_no_essentials_in_cyclic_structure(self):
        """When every required cube can pair with another, nothing is
        distinguished and no essential class is declared."""
        inst = figure3_instance()
        ctx, qf = make_ctx(inst)
        essentials, remaining = compute_essentials(ctx, qf)
        # figure3's three canonical cubes are pairwise non-combinable:
        # each is its own essential class
        assert len(essentials) == 3
        assert remaining == []

    def test_secondary_essentials_iterate(self):
        inst = random_instance(4, 1, n_transitions=4, seed=7)
        if not hazard_free_solution_exists(inst):
            pytest.skip("unsolvable draw")
        ctx, qf = make_ctx(inst)
        essentials, remaining = compute_essentials(ctx, qf)
        covered = set()
        for e in essentials:
            covered.update(q.key() for q in ctx.covered_set(e, qf))
        assert covered.union(q.key() for q in remaining) == {q.key() for q in qf}


class TestEspressoHF:
    def test_figure3_full_run(self):
        inst = figure3_instance()
        res = espresso_hf(inst)
        assert res.num_cubes == 3
        assert is_hazard_free_cover(inst, res.cover)

    def test_unsolvable_raises(self):
        with pytest.raises(NoSolutionError):
            espresso_hf(unsolvable_instance())

    def test_no_transitions_empty_cover(self):
        on = Cover.from_strings(["1-"])
        off = Cover.from_strings(["0-"])
        inst = HazardFreeInstance(on, off, [])
        res = espresso_hf(inst)
        assert res.num_cubes == 0

    def test_options_paths_agree_on_validity(self):
        inst = figure3_instance()
        for opts in [
            EspressoHFOptions(use_essentials=False),
            EspressoHFOptions(use_last_gasp=False),
            EspressoHFOptions(make_prime=False),
            EspressoHFOptions(exact_irredundant=False),
        ]:
            res = espresso_hf(inst, opts)
            assert is_hazard_free_cover(inst, res.cover), opts

    def test_result_statistics(self):
        inst = figure3_instance()
        res = espresso_hf(inst)
        assert res.num_required == 7
        assert res.num_canonical_required == 3
        assert res.runtime_s >= 0
        assert "canonicalize" in res.phase_seconds
        assert "essential" in res.summary() or "cubes" in res.summary()

    def test_multi_output_sharing(self):
        """One cube can serve two outputs: the cover is smaller than the sum
        of single-output covers."""
        on = Cover.from_strings(["-1 11"])
        off = Cover.from_strings(["-0 11"])
        t = Transition((0, 1), (1, 1))
        inst = HazardFreeInstance(on, off, [t])
        res = espresso_hf(inst)
        assert res.num_cubes == 1
        assert res.cover[0].output_string() == "11"

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.integers(0, 10_000), st.integers(3, 5), st.integers(1, 2))
    def test_random_instances_always_hazard_free(self, seed, n, m):
        inst = random_instance(n, m, n_transitions=4, seed=seed)
        if not hazard_free_solution_exists(inst):
            with pytest.raises(NoSolutionError):
                espresso_hf(inst)
            return
        res = espresso_hf(inst)
        violations = verify_hazard_free_cover(inst, res.cover, collect_all=True)
        assert violations == []

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(st.integers(0, 10_000))
    def test_ablations_still_hazard_free(self, seed):
        inst = random_instance(4, 1, n_transitions=3, seed=seed)
        if not hazard_free_solution_exists(inst):
            return
        for opts in [
            EspressoHFOptions(use_essentials=False),
            EspressoHFOptions(use_last_gasp=False),
            EspressoHFOptions(make_prime=False),
        ]:
            res = espresso_hf(inst, opts)
            assert is_hazard_free_cover(inst, res.cover)
