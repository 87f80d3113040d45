"""Cross-cutting property-based tests: algebra laws and algorithm invariants.

All strategies come from :mod:`repro.proptest.strategies` — the shipped
generation layer shared with the metamorphic suite, the stateful pipeline
machine, and the seeded fuzz loop.  Settings (example counts, deadlines,
derandomization) come from the profiles in ``tests/conftest.py``; no test
here carries its own ``@settings``.
"""

import itertools

from hypothesis import assume, given, strategies as st

from repro.cubes import Cube, minimize_scc
from repro.cubes.operations import cube_sharp
from repro.espresso import all_primes, complement, espresso, tautology
from repro.espresso.irredundant import irredundant_cover
from repro.espresso.tautology import cover_contains_cube
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import HFContext, NoSolutionError, espresso_hf
from repro.proptest.database import bundle_on_failure
from repro.proptest.strategies import (
    InstanceConfig,
    covers,
    cubes,
    instances,
    solvable_instances,
)
from tests.existence_ref import existence_report as reference_existence_report

#: single-output instances for the dhf-supercube unit laws
SINGLE_OUT = InstanceConfig(max_inputs=4, max_outputs=1, max_on_cubes=5)


class TestCubeAlgebraLaws:
    @given(cubes(4), cubes(4))
    def test_intersection_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(cubes(4), cubes(4), cubes(4))
    def test_intersection_associative(self, a, b, c):
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    @given(cubes(4), cubes(4))
    def test_supercube_is_least_upper_bound(self, a, b):
        sup = a.supercube(b)
        assert sup.contains(a) and sup.contains(b)
        # any cube containing both contains the supercube
        for lits in itertools.product((1, 2, 3), repeat=4):
            c = Cube.from_literals(lits)
            if c.contains(a) and c.contains(b):
                assert c.contains(sup)
                break  # one witness suffices; full check is expensive

    @given(cubes(4), cubes(4))
    def test_containment_antisymmetric(self, a, b):
        if a.contains(b) and b.contains(a):
            assert a == b

    @given(cubes(4), cubes(4))
    def test_distance_zero_iff_intersects(self, a, b):
        assert (a.input_distance(b) == 0) == a.intersects_input(b)

    @given(cubes(4), cubes(4))
    def test_sharp_partitions(self, a, b):
        assume(not a.is_empty)
        pieces = cube_sharp(a, b)
        for vec in a.minterm_vectors():
            in_b = b.contains_minterm(vec)
            covered = any(p.contains_minterm(vec) for p in pieces)
            assert covered == (not in_b)
        # pieces never leak outside a
        for p in pieces:
            assert a.contains_input(p)

    @given(covers(4))
    def test_scc_preserves_function(self, cover):
        reduced = minimize_scc(cover)
        assert reduced.semantically_equal(cover)


class TestMultiOutputCubeLaws:
    """The same algebra with drawn output parts (2-3 outputs)."""

    @given(cubes(3, n_outputs=3), cubes(3, n_outputs=3))
    def test_intersection_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(cubes(3, n_outputs=3), cubes(3, n_outputs=3))
    def test_intersect_meets_both_parts(self, a, b):
        meet = a.intersect(b)
        assert meet.inbits == (a.inbits & b.inbits)
        assert meet.outbits == (a.outbits & b.outbits)

    @given(cubes(3, n_outputs=3), cubes(3, n_outputs=3))
    def test_supercube_upper_bound(self, a, b):
        sup = a.supercube(b)
        assert sup.contains(a) and sup.contains(b)

    @given(cubes(3, n_outputs=3), cubes(3, n_outputs=3))
    def test_containment_antisymmetric(self, a, b):
        if a.contains(b) and b.contains(a):
            assert a == b

    @given(cubes(3, n_outputs=3), cubes(3, n_outputs=3))
    def test_disjoint_outputs_never_intersect(self, a, b):
        if (a.outbits & b.outbits) == 0:
            assert not a.intersects(b)

    @given(covers(3, n_outputs=2, max_cubes=5))
    def test_restrict_to_output_partitions_by_tag(self, cover):
        for j in range(2):
            restricted = cover.restrict_to_output(j)
            assert len(restricted) == sum(1 for c in cover if c.has_output(j))
            assert all(c.n_outputs == 1 for c in restricted)


class TestDeMorganDuality:
    @given(covers(4))
    def test_double_complement(self, cover):
        cc = complement(complement(cover))
        assert cc.semantically_equal(cover)

    @given(covers(4))
    def test_cover_or_complement_is_tautology(self, cover):
        union = cover.copy()
        union.extend(complement(cover).cubes)
        assert tautology(union)


class TestEspressoInvariants:
    @given(covers(4, max_cubes=6))
    def test_result_cubes_are_prime(self, cover):
        assume(not cover.drop_empty().is_empty)
        result = espresso(cover)
        primes = {p.inbits for p in all_primes(cover)}
        for c in result:
            assert c.inbits in primes, f"{c} is not a prime"

    @given(covers(4, max_cubes=6))
    def test_result_is_irredundant(self, cover):
        assume(not cover.drop_empty().is_empty)
        result = espresso(cover)
        for c in result:
            rest = result.without(c)
            assert not cover_contains_cube(rest, c), f"{c} is redundant"

    @given(covers(4, max_cubes=6))
    def test_irredundant_idempotent(self, cover):
        once = irredundant_cover(cover)
        twice = irredundant_cover(once)
        assert len(once) == len(twice)


class TestSupercubeDhfProperties:
    @given(instances(SINGLE_OUT))
    def test_idempotent(self, inst):
        ctx = HFContext(inst)
        for q in inst.required_cubes():
            first = ctx.supercube_dhf([q.cube], 1)
            if first is None:
                continue
            again = ctx.supercube_dhf([first], 1)
            assert again == first

    @given(instances(SINGLE_OUT))
    def test_monotone_in_input(self, inst):
        """Adding cubes can only grow (or kill) the dhf-supercube."""
        reqs = inst.required_cubes()
        assume(len(reqs) >= 2)
        ctx = HFContext(inst)
        single = ctx.supercube_dhf([reqs[0].cube], 1)
        pair = ctx.supercube_dhf([reqs[0].cube, reqs[1].cube], 1)
        if single is not None and pair is not None:
            assert pair.contains_input(single)

    @given(instances(InstanceConfig(max_inputs=3, max_outputs=1)))
    def test_minimality(self, inst):
        """No strictly smaller dhf-implicant contains the required cube."""
        ctx = HFContext(inst)
        for q in inst.required_cubes():
            sup = ctx.supercube_dhf([q.cube], 1)
            if sup is None:
                continue
            for lits in itertools.product((1, 2, 3), repeat=inst.n_inputs):
                cand = Cube.from_literals(lits)
                if (
                    cand != sup
                    and cand.contains_input(q.cube)
                    and sup.contains_input(cand)
                ):
                    assert not ctx.is_dhf_implicant(cand, 1)


class TestEndToEndInvariants:
    """Whole-minimizer properties on generated (multi-output) instances."""

    @given(solvable_instances())
    @bundle_on_failure("test_properties.hf_cover_verifies")
    def test_hf_cover_verifies(self, inst):
        """The independent Theorem 2.11 oracle accepts every result."""
        res = espresso_hf(inst)
        violations = verify_hazard_free_cover(inst, res.cover, collect_all=True)
        assert not violations, violations[:3]

    @given(instances())
    def test_solvability_agreement(self, inst):
        """The driver refuses exactly the instances the scalar Theorem 4.1
        oracle calls unsolvable, naming the cubes the oracle names."""
        reference = reference_existence_report(inst)
        try:
            espresso_hf(inst)
            assert reference.exists
        except NoSolutionError as exc:
            assert not reference.exists
            assert exc.failures == reference.failures

    @given(solvable_instances())
    def test_hf_cover_cubes_are_dhf_prime(self, inst):
        """After MAKE_DHF_PRIME, every cover cube is a dhf-prime: no single
        raise is dhf-feasible for the cube's output set."""
        res = espresso_hf(inst)
        ctx = HFContext(inst)
        for c in res.cover:
            for i in range(inst.n_inputs):
                if c.literal(i) == 3:
                    continue
                raised = c.with_literal(i, 3)
                assert ctx.supercube_dhf([raised], c.outbits) is None

    @given(solvable_instances(SINGLE_OUT))
    def test_hf_cover_is_irredundant(self, inst):
        """No cover cube can be dropped without uncovering a required cube."""
        res = espresso_hf(inst)
        ctx = HFContext(inst)
        reqs = ctx.canonical_required()
        for c in res.cover:
            rest = [d for d in res.cover if d != c]
            uncovered = [
                q for q in reqs if not any(ctx.covers(d, q) for d in rest)
            ]
            assert uncovered, f"{c} is redundant"

    @given(solvable_instances(), st.integers(0, 1))
    def test_transition_reversal_stays_verified(self, inst, idx):
        """Covers keep verifying when a transition list is reordered."""
        assume(len(inst.transitions) >= 2)
        res = espresso_hf(inst)
        reordered = list(inst.transitions)
        reordered[0], reordered[-1] = reordered[-1], reordered[0]
        from repro.hazards.instance import HazardFreeInstance

        shuffled = HazardFreeInstance(
            inst.on, inst.off, reordered, name=inst.name, validate=False
        )
        assert not verify_hazard_free_cover(shuffled, res.cover)


# -- observability: histogram laws (see repro.obs.metrics) ---------------

#: finite observation values spanning every time bucket and the overflow
_observations = st.lists(
    st.floats(
        min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
    ),
    max_size=50,
)

#: strictly increasing boundary tuples, 1-6 edges
_boundaries = st.lists(
    st.floats(
        min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=6,
    unique=True,
).map(sorted)


class TestHistogramLaws:
    """``sum``/``count`` always match the raw observations, no observation
    is ever lost or double-bucketed, and snapshot merging respects both —
    the laws the parallel per-output metric aggregation relies on."""

    @given(_boundaries, _observations)
    def test_sum_and_count_match_raw_observations(self, bounds, obs):
        import bisect

        from repro.obs import Histogram

        h = Histogram(bounds)
        for v in obs:
            h.observe(v)
        assert h.count == len(obs)
        assert h.sum == sum(obs)  # same floats, same order: exact
        assert sum(h.counts) == len(obs)
        # every observation lands in exactly the upper-inclusive bucket
        expected = [0] * (len(bounds) + 1)
        for v in obs:
            expected[bisect.bisect_left(h.boundaries, float(v))] += 1
        assert h.counts == expected

    @given(_boundaries, _observations, _observations)
    def test_merge_preserves_sum_and_count(self, bounds, obs_a, obs_b):
        from repro.obs import Histogram, merge_snapshots

        def snap(obs):
            h = Histogram(bounds)
            for v in obs:
                h.observe(v)
            return {"h": h.as_dict()}

        merged = merge_snapshots(snap(obs_a), snap(obs_b))["h"]
        assert merged["count"] == len(obs_a) + len(obs_b)
        assert merged["sum"] == sum(obs_a) + sum(obs_b)
        assert sum(merged["counts"]) == merged["count"]
