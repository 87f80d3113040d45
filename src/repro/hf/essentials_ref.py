"""Reference essentials computation (pre-batched-engine algorithm).

This is the straightforward scan-everything fixpoint that
:mod:`repro.hf.essentials` replaced with the batched escape-row engine.
It is kept verbatim as a differential oracle: the batched engine must
produce identical ``(essentials, remaining)`` on every instance
(``tests/test_essentials_batched.py`` pins this on the golden suite and
on random instances).  Nothing in the pipeline imports this module — it
exists only for tests, and for bisecting should the engines ever
diverge.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cubes.cube import Cube
from repro.hf.context import _MISSING, HFContext, TaggedRequired
from repro.hf.expand import expand_toward_required, required_candidates


def compute_essentials_reference(
    ctx: HFContext, reqs: Sequence[TaggedRequired]
) -> Tuple[List[Cube], List[TaggedRequired]]:
    """Identify essential equivalence classes (reference oracle).

    Same contract as :func:`repro.hf.essentials.compute_essentials`:
    returns ``(essential_cubes, remaining_required)``.
    """
    cov = ctx.coverage
    cov.register(reqs)
    positions = cov.positions(reqs)
    req_at = {pos: q for pos, q in zip(positions, reqs)}
    pair_at = {
        pos: (q.canonical.inbits, 1 << q.output)
        for pos, q in zip(positions, reqs)
    }
    # Universe positions per output bit: same-output partners are
    # probed first below (their pair shares one OFF set, so escapes
    # are found cheaply and cross-output fixpoint environments are
    # often never built at all).
    out_pos = {}
    for pos, q in zip(positions, reqs):
        ob = 1 << q.output
        out_pos[ob] = out_pos.get(ob, 0) | (1 << pos)
    sel = cov.selection_mask(reqs)
    candidates = required_candidates(reqs, ctx)
    essentials: List[Cube] = []
    # A seed's greedy expansion depends only on (seed, remaining set),
    # identified by (universe position, selection mask).  The memo makes
    # the fixpoint's final no-progress pass (which re-expands every
    # seed) free.
    expand_memo = {}
    esc_known = {}  # universe pos -> partner bits already probed
    esc_pair = {}  # universe pos -> probed partners with a defined pair
    scache = ctx._supercube_cache
    supercube = ctx.supercube_dhf_bits
    perf = ctx.perf
    progress = True
    while progress:
        progress = False
        snapshot = sel
        m = snapshot
        while m:
            low = m & -m
            m ^= low
            if not (sel & low):
                continue  # covered by an essential earlier this pass
            ctx.checkpoint("essentials")
            pos = low.bit_length() - 1
            memo_key = (pos, sel)
            p = expand_memo.get(memo_key)
            if p is None:
                p = expand_toward_required(
                    ctx.cube_for(req_at[pos]), reqs, ctx, sel, candidates
                )
                expand_memo[memo_key] = p
            covered_mask = cov.covered_bits(p.inbits, p.outbits) & sel
            outside = sel & ~covered_mask
            distinguished = False
            cm = covered_mask
            while cm:
                lowc = cm & -cm
                cm ^= lowc
                posc = lowc.bit_length() - 1
                pairable = esc_pair.get(posc, 0)
                if pairable & outside:
                    continue  # q escapes via an already-known partner
                # Probe the not-yet-probed partners in the outside set,
                # stopping at the first escape; verdicts accumulate
                # across passes (they depend only on the instance).
                known = esc_known.get(posc, 0)
                unknown = outside & ~known
                escaped = False
                if unknown:
                    q = req_at[posc]
                    q_in = q.canonical.inbits
                    q_ob = 1 << q.output
                    sc_hits = 0
                    same = unknown & out_pos.get(q_ob, 0)
                    for group in (same, unknown ^ same):
                        while group:
                            lows = group & -group
                            group ^= lows
                            s_in, s_ob = pair_at[lows.bit_length() - 1]
                            r_bits = q_in | s_in
                            outbits = q_ob | s_ob
                            sup = scache.get((r_bits, outbits), _MISSING)
                            if sup is _MISSING:
                                sup = supercube(r_bits, outbits)
                            else:
                                sc_hits += 1
                            known |= lows
                            if sup is not None:
                                pairable |= lows
                                escaped = True
                                break
                        if escaped:
                            break
                    perf.supercube_calls += sc_hits
                    perf.supercube_cache_hits += sc_hits
                    esc_known[posc] = known
                    esc_pair[posc] = pairable
                if not escaped:
                    distinguished = True
                    break
            if distinguished:
                essentials.append(p)
                sel = outside
                progress = True
    remaining = cov.covered_subset(sel, reqs)
    return essentials, remaining
