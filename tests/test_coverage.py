"""Differential tests for the coverage-bitset engine.

Two layers of checking:

* ``covered_bits`` (bit-parallel) against ``covered_set`` (scalar
  reference predicate) — the mask must decode to exactly the scalar list.
* The bitset EXPAND and IRREDUNDANT operators against straightforward
  scalar mirrors written here from the paper's description: the greedy
  expansion must make identical choices, and exact irredundant must reach
  a cover of identical cardinality, verifier-clean in both cases.
"""

from typing import List, Optional

import pytest

from repro.bm.random_spec import random_instance
from repro.cubes import Cube, Cover
from repro.hazards import hazard_free_solution_exists
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import HFContext
from repro.hf.expand import expand_cover, expand_toward_required
from repro.hf.irredundant import irredundant_cover
from repro.mincov import solve_mincov

from tests.test_hazards import figure3_instance


def solvable_random_instances():
    """Small random instances with a hazard-free solution (fixed seeds)."""
    out = []
    for seed in range(14):
        inst = random_instance(4, 2, n_transitions=5, seed=seed)
        if hazard_free_solution_exists(inst) and HFContext(inst).canonical_required():
            out.append(inst)
    return out


INSTANCES = [figure3_instance()] + solvable_random_instances()


def ctx_and_reqs(instance):
    ctx = HFContext(instance)
    reqs = ctx.canonical_required()
    assert reqs is not None
    ctx.coverage.register(reqs)
    return ctx, reqs


# ----------------------------------------------------------------------
# covered_bits vs covered_set
# ----------------------------------------------------------------------


class TestCoveredBits:
    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
    def test_mask_decodes_to_scalar_set(self, instance):
        ctx, reqs = ctx_and_reqs(instance)
        cov = ctx.coverage
        probes = [ctx.cube_for(q) for q in reqs]
        probes.append(Cube.full(ctx.n_inputs, ctx.n_outputs))
        probes += expand_cover([ctx.cube_for(q) for q in reqs], reqs, ctx)
        for cube in probes:
            mask = ctx.covered_bits(cube.inbits, cube.outbits)
            from_mask = cov.covered_subset(mask, reqs)
            assert from_mask == ctx.covered_set(cube, reqs)

    def test_mask_is_memoized(self):
        ctx, reqs = ctx_and_reqs(figure3_instance())
        cube = ctx.cube_for(reqs[0])
        first = ctx.covered_bits(cube.inbits, cube.outbits)
        built = ctx.perf.coverage_masks_built
        assert ctx.covered_bits(cube.inbits, cube.outbits) == first
        assert ctx.perf.coverage_masks_built == built
        assert ctx.perf.coverage_mask_hits > 0

    def test_empty_output_covers_nothing(self):
        ctx, reqs = ctx_and_reqs(figure3_instance())
        assert ctx.covered_bits((1 << (2 * ctx.n_inputs)) - 1, 0) == 0


# ----------------------------------------------------------------------
# Scalar mirrors of the bitset operators
# ----------------------------------------------------------------------


def scalar_expand_toward_required(cube, reqs, ctx):
    """Reference phase-2 expansion: per-pair ``covers`` scans throughout."""
    while True:
        uncovered = [q for q in reqs if not ctx.covers(cube, q)]
        if not uncovered:
            break
        uncovered_keys = {(q.canonical.inbits, q.output) for q in uncovered}
        best = None
        best_gain = 0
        for q in reqs:
            if (q.canonical.inbits, q.output) not in uncovered_keys:
                continue
            outbits = cube.outbits | (1 << q.output)
            sup_in = ctx.supercube_dhf_bits(
                cube.inbits | q.canonical.inbits, outbits
            )
            if sup_in is None:
                continue
            cand = Cube(ctx.n_inputs, sup_in, outbits, ctx.n_outputs)
            gain = sum(1 for u in uncovered if ctx.covers(cand, u))
            if gain > best_gain:
                best_gain = gain
                best = cand
        if best is None:
            break
        cube = best
    return cube


def scalar_expand_cover(cubes, reqs, ctx):
    """Reference EXPAND: same ordering and tie-breaking, all-scalar scans."""
    slots: List[Optional[Cube]] = list(cubes)
    order = sorted(
        range(len(slots)),
        key=lambda i: (slots[i].num_dc(), slots[i].inbits, slots[i].outbits),
    )
    for idx in order:
        cube = slots[idx]
        if cube is None:
            continue
        while True:
            best = None
            best_gain = 0
            best_absorbed = None
            for j, other in enumerate(slots):
                if other is None or j == idx or cube.contains(other):
                    continue
                outbits = cube.outbits | other.outbits
                sup_in = ctx.supercube_dhf_bits(
                    cube.inbits | other.inbits, outbits
                )
                if sup_in is None:
                    continue
                cand = Cube(ctx.n_inputs, sup_in, outbits, ctx.n_outputs)
                absorbed = [
                    k
                    for k, d in enumerate(slots)
                    if d is not None and k != idx and cand.contains(d)
                ]
                if len(absorbed) > best_gain:
                    best_gain = len(absorbed)
                    best = cand
                    best_absorbed = absorbed
            if best is None:
                break
            cube = best
            for k in best_absorbed:
                slots[k] = None
        slots[idx] = scalar_expand_toward_required(cube, reqs, ctx)
    return [c for c in slots if c is not None]


class TestExpandDifferential:
    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
    def test_expand_cover_matches_scalar_reference(self, instance):
        ctx, reqs = ctx_and_reqs(instance)
        initial = [ctx.cube_for(q) for q in reqs]
        bitset = expand_cover(list(initial), reqs, ctx)
        # Fresh context so the scalar run shares no memoized state beyond
        # the (deterministic) supercube results.
        ctx2, reqs2 = ctx_and_reqs(instance)
        scalar = scalar_expand_cover(
            [ctx2.cube_for(q) for q in reqs2], reqs2, ctx2
        )
        assert bitset == scalar
        cover = Cover(ctx.n_inputs, bitset, ctx.n_outputs)
        assert verify_hazard_free_cover(instance, cover) == []

    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
    def test_expand_toward_required_matches_scalar(self, instance):
        ctx, reqs = ctx_and_reqs(instance)
        ctx2, reqs2 = ctx_and_reqs(instance)
        for q, q2 in zip(reqs, reqs2):
            got = expand_toward_required(ctx.cube_for(q), reqs, ctx)
            want = scalar_expand_toward_required(
                ctx2.cube_for(q2), reqs2, ctx2
            )
            assert got == want


class TestIrredundantDifferential:
    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda i: i.name)
    def test_exact_cardinality_matches_scalar_rows(self, instance):
        ctx, reqs = ctx_and_reqs(instance)
        cubes = expand_cover([ctx.cube_for(q) for q in reqs], reqs, ctx)
        chosen = irredundant_cover(cubes, reqs, ctx, exact=True)
        # Scalar reference: per-pair covering rows, same exact solver.
        rows = [
            [j for j, c in enumerate(cubes) if ctx.covers(c, q)]
            for q in reqs
        ]
        assert all(rows)
        ref = solve_mincov(rows, len(cubes), heuristic=False)
        assert ref is not None
        assert len(chosen) == len(ref)
        cover = Cover(ctx.n_inputs, chosen, ctx.n_outputs)
        assert verify_hazard_free_cover(instance, cover) == []
