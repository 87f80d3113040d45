"""MAKE_DHF_PRIME: final expansion of every cube to a dhf-prime (paper §3.8).

The main loop deliberately stops expanding once no further required cube can
be absorbed — by the Hazard-Free Covering theorem nothing else is gained.
For literal count and testability it is still desirable to deliver
dhf-primes, so this post-processing greedily raises entries: a raise is
dhf-feasible when the canonicalized (``supercube_dhf``) result exists, and a
cube none of whose single-entry raises are feasible is a dhf-prime (any
strictly larger dhf-implicant would have to contain one of those raises).
"""

from __future__ import annotations

from typing import List

from repro.cubes.cube import Cube
from repro.hf.context import _MISSING, HFContext


def make_dhf_prime(cube: Cube, ctx: HFContext) -> Cube:
    """Expand one cube into a dhf-prime (input part; outputs unchanged).

    Works on raw input bits: raising variable ``i`` to don't-care is
    ``inbits | (0b11 << 2i)``, probed directly through the memoized
    ``supercube_dhf_bits`` — no intermediate Cube objects on this loop.

    One sweep over the variables reaches a dhf-prime: forced expansion is
    monotone, so a raise that hits the OFF-set on the cube at step ``i``
    hits it on every larger cube the sweep later grows into.
    """
    inbits = cube.inbits
    outbits = cube.outbits
    supercube = ctx.supercube_dhf_bits
    scache = ctx._supercube_cache
    sc_hits = 0
    for i in range(ctx.n_inputs):
        pair = 0b11 << (2 * i)
        if inbits & pair == pair:
            continue  # already don't-care
        raised = inbits | pair
        sup_in = scache.get((raised, outbits), _MISSING)
        if sup_in is _MISSING:
            sup_in = supercube(raised, outbits)
        else:
            sc_hits += 1
        if sup_in is not None:
            inbits = sup_in
    ctx.perf.supercube_calls += sc_hits
    ctx.perf.supercube_cache_hits += sc_hits
    if inbits == cube.inbits:
        return cube
    return Cube(ctx.n_inputs, inbits, outbits, ctx.n_outputs)


def make_cover_dhf_prime(cubes: List[Cube], ctx: HFContext) -> List[Cube]:
    """Apply :func:`make_dhf_prime` to a whole cover, deduplicating."""
    seen = set()
    out: List[Cube] = []
    for c in cubes:
        ctx.checkpoint("make_prime")
        p = make_dhf_prime(c, ctx)
        key = (p.inbits, p.outbits)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


class MakePrimePass:
    """MAKE_DHF_PRIME as a pipeline pass (see :mod:`repro.pipeline`)."""

    name = "make_prime"

    def run(self, state):
        state.f = make_cover_dhf_prime(state.f, state.ctx)
        return state
