"""Required-cube based REDUCE (paper §3.5).

Espresso's REDUCE maximally shrinks each cube with the unate recursive
paradigm; that paradigm does not transfer to hazard-free covers, but the
required-cube formulation gives an efficient enumerative alternative: a
cube's reduction is the dhf-supercube of the required cubes it *uniquely*
covers.  The result is still a valid hazard-free cover after every step
(required cubes covered elsewhere may be abandoned; uniquely covered ones
are kept by construction, and the reduction of a dhf-implicant through
``supercube_dhf`` stays inside it, hence stays OFF-free and legal).

Coverage bookkeeping runs on the bitset engine: per-cube ``covered_bits``
masks and per-required-cube multiplicity counts, updated in place as cubes
shrink, instead of re-scanning all (cube, required-cube) pairs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cubes.cube import Cube
from repro.hf.context import HFContext, TaggedRequired


def _coverage_counts(
    masks: Sequence[int], positions: Sequence[int]
) -> Dict[int, int]:
    """How many cover cubes cover each required cube (by universe index)."""
    counts: Dict[int, int] = {pos: 0 for pos in positions}
    for mask in masks:
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    return counts


def reduce_cover(
    cubes: List[Cube], reqs: Sequence[TaggedRequired], ctx: HFContext
) -> List[Cube]:
    """Maximally reduce each cube in turn (largest first).

    Cubes that uniquely cover nothing are dropped outright (they are
    redundant).  Coverage counts are updated after each reduction so later
    cubes see the already-reduced cover, as in Espresso.
    """
    cov = ctx.coverage
    positions = cov.positions(reqs)
    sel = cov.selection_mask(reqs)
    req_at = {pos: q for pos, q in zip(positions, reqs)}
    masks = [cov.covered_bits(c.inbits, c.outbits) & sel for c in cubes]
    counts = _coverage_counts(masks, positions)
    order = sorted(
        range(len(cubes)),
        key=lambda i: (-cubes[i].num_dc(), cubes[i].inbits, cubes[i].outbits),
    )
    slots: List[Cube] = list(cubes)
    kept: List[bool] = [True] * len(cubes)
    for idx in order:
        ctx.checkpoint("reduce")
        covered = masks[idx]
        unique: List[TaggedRequired] = []
        outbits = 0
        m = covered
        while m:
            low = m & -m
            pos = low.bit_length() - 1
            if counts[pos] == 1:
                q = req_at[pos]
                unique.append(q)
                outbits |= 1 << q.output
            m ^= low
        if not unique:
            kept[idx] = False
            m = covered
            while m:
                low = m & -m
                counts[low.bit_length() - 1] -= 1
                m ^= low
            continue
        r_bits = 0
        for q in unique:
            r_bits |= q.canonical.inbits
        sup_in = ctx.supercube_dhf_bits(r_bits, outbits)
        assert sup_in is not None, "reduction inside a dhf-implicant must exist"
        reduced = Cube(ctx.n_inputs, sup_in, outbits, ctx.n_outputs)
        slots[idx] = reduced
        reduced_mask = cov.covered_bits(sup_in, outbits) & sel
        masks[idx] = reduced_mask
        dropped = covered & ~reduced_mask
        while dropped:
            low = dropped & -dropped
            counts[low.bit_length() - 1] -= 1
            dropped ^= low
    return [c for i, c in enumerate(slots) if kept[i]]


class ReducePass:
    """REDUCE as a pipeline pass (see :mod:`repro.pipeline`)."""

    name = "reduce"

    def run(self, state):
        state.f = reduce_cover(state.f, state.remaining, state.ctx)
        return state
