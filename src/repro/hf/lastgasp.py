"""Required-cube based LAST_GASP (paper §3.7).

After the inner loop converges, each cube is *independently* reduced to the
smallest dhf-implicant containing the required cubes no other cube covers;
if the dhf-supercube of two such reductions is defined it is a candidate
replacement covering both, and IRREDUNDANT decides whether the enlarged
cube pool admits a smaller cover.

Uniqueness bookkeeping uses the coverage-bitset engine (per-cube
``covered_bits`` masks and universe-index counts) like REDUCE does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cubes.cube import Cube
from repro.hf.context import HFContext, TaggedRequired
from repro.hf.irredundant import irredundant_cover
from repro.hf.reduce_ import _coverage_counts


def last_gasp(
    cubes: List[Cube],
    reqs: Sequence[TaggedRequired],
    ctx: HFContext,
    exact: bool = True,
    node_limit: Optional[int] = None,
) -> List[Cube]:
    """One attempt to escape a local minimum; returns a cover no larger."""
    cov = ctx.coverage
    positions = cov.positions(reqs)
    sel = cov.selection_mask(reqs)
    req_at = {pos: q for pos, q in zip(positions, reqs)}
    masks = [cov.covered_bits(c.inbits, c.outbits) & sel for c in cubes]
    counts = _coverage_counts(masks, positions)
    reduced: List[Cube] = []
    for mask in masks:
        r_bits = 0
        outbits = 0
        m = mask
        while m:
            low = m & -m
            pos = low.bit_length() - 1
            if counts[pos] == 1:
                q = req_at[pos]
                r_bits |= q.canonical.inbits
                outbits |= 1 << q.output
            m ^= low
        if not outbits:
            continue
        sup_in = ctx.supercube_dhf_bits(r_bits, outbits)
        assert sup_in is not None
        reduced.append(Cube(ctx.n_inputs, sup_in, outbits, ctx.n_outputs))
    candidates: List[Cube] = []
    for i in range(len(reduced)):
        ctx.checkpoint("last_gasp")
        for j in range(i + 1, len(reduced)):
            outbits = reduced[i].outbits | reduced[j].outbits
            sup_in = ctx.supercube_dhf_bits(
                reduced[i].inbits | reduced[j].inbits, outbits
            )
            if sup_in is not None:
                candidates.append(
                    Cube(ctx.n_inputs, sup_in, outbits, ctx.n_outputs)
                )
    if not candidates:
        return cubes
    pool = list(cubes)
    seen = {(c.inbits, c.outbits) for c in pool}
    for c in candidates:
        key = (c.inbits, c.outbits)
        if key not in seen:
            seen.add(key)
            pool.append(c)
    trial = irredundant_cover(
        pool, reqs, ctx, exact=exact, node_limit=node_limit
    )
    return trial if len(trial) < len(cubes) else cubes


class LastGaspPass:
    """LAST_GASP as a pipeline pass (see :mod:`repro.pipeline`)."""

    name = "last_gasp"

    def run(self, state):
        options = state.options
        state.f = last_gasp(
            state.f,
            state.remaining,
            state.ctx,
            exact=options.exact_irredundant,
            node_limit=options.irredundant_node_limit,
        )
        return state
