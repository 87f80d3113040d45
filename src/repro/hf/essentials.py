"""Essential dhf-prime *equivalence classes* (paper §3.4), batched engine.

A required cube covered by several equal-cost dhf-primes — none of them
essential individually — still forces one of them into every cover.
Espresso-HF exploits the required-cube granularity: expand a seed required
cube greedily; if some required cube it covers can pair with *no* required
cube outside the class (``supercube_dhf`` of the pair is undefined), that
cube is *distinguished* and the expanded implicant is an essential
equivalence class.  Removing its required cubes can expose secondary
essentials, so the process iterates to a fixpoint.

The fixpoint runs on the coverage-bitset universe and is organized around
*escape rows* built in bulk up front
(:meth:`repro.hf.context.HFContext.escape_filter_rows`): ``pp[q]`` has
partner bit ``s`` set iff the pair seed ``q ∪ s`` survives the seed-level
OFF-set check of both outputs.  The rows are a sound superset of true
pairability — a cleared bit proves ``supercube_dhf({q, s}) = None``
without running a fixpoint — and they are *exact* as a probe filter by the
containment lemma: any required cube a dhf-implicant covers is pairable
with every other cube it covers, so a candidate outside the seed's row can
never be absorbed by its expansion nor serve as an escape witness.  That
one relation therefore drives all three hot paths:

* greedy expansion probes only ``uncovered & pp[seed]`` (the ``allowed``
  parameter of :func:`~repro.hf.expand.expand_toward_required`);
* the distinguished test probes only ``outside & pp[q]``, batched through
  :meth:`~repro.hf.context.HFContext.supercube_dhf_many` so each escape
  row shares one concatenated OFF-set check;
* the fixpoint is *incremental*: an examination's verdict can only change
  if a later essential removed a required cube intersecting its trigger
  set (the union of the seed's and its covered cubes' rows), so clean
  seeds are skipped (``essentials_rescans_avoided``) and memoized
  expansions are invalidated by the same intersection test.

All per-instance memo tables (escape rows, expansion memo, escape
verdicts) are cleared before returning; their peak size is surfaced as
``essentials_memo_peak`` so service-style runs can watch for state
accumulation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cubes.cube import Cube
from repro.hf.context import HFContext, TaggedRequired
from repro.hf.expand import expand_toward_required, required_candidates


def compute_essentials(
    ctx: HFContext, reqs: Sequence[TaggedRequired]
) -> Tuple[List[Cube], List[TaggedRequired]]:
    """Identify essential equivalence classes.

    Returns ``(essential_cubes, remaining_required)``: the chosen
    representative cube of each essential class, and the required cubes
    still to be covered by the main loop.  Produces results identical to
    ``compute_essentials_reference`` in ``tests/essentials_ref.py`` — the
    escape-row filter is exact and the incremental skips are proven
    verdict-preserving, so only the amount of work differs.
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
    out_pos: Dict[int, int] = {}
    for pos, q in zip(positions, reqs):
        ob = 1 << q.output
        out_pos[ob] = out_pos.get(ob, 0) | (1 << pos)
    sel = cov.selection_mask(reqs)
    candidates = required_candidates(reqs, ctx)
    perf = ctx.perf
    # Escape rows, one SWAR build for the whole instance.  The rows
    # depend only on the instance, never on the shrinking selection.
    pp = ctx.escape_filter_rows(
        [
            (pos, q.canonical.inbits, q.output)
            for pos, q in zip(positions, reqs)
        ]
    )
    essentials: List[Cube] = []
    #: pos -> expansion of that seed; valid until an essential removes
    #: a bit of its *gain support* (below) — removals outside it
    #: provably leave the greedy trace unchanged
    expand_memo: Dict[int, Cube] = {}
    #: pos -> gain support of the memoized expansion: the union of
    #: covered sets of every feasible probed supercube (plus the
    #: result's own).  The trace reads the selection only through
    #: these masks, so this is a far tighter invalidation key than
    #: the seed's escape row (which also contains every pairable-but-
    #: never-probed position)
    expand_support: Dict[int, int] = {}
    esc_known: Dict[int, int] = {}  # pos -> row partners already probed
    esc_pair: Dict[int, int] = {}  # pos -> partners with a defined pair
    #: pos -> trigger set of the last "not distinguished" verdict:
    #: the expansion's gain support | the known pairable partners of
    #: every covered cube.  A removal disjoint from it leaves the
    #: expansion, the covered set, and at least one escape witness
    #: per covered cube intact, so the verdict stands.
    vtrigger: Dict[int, int] = {}
    vclean = 0  # positions whose last verdict is still valid
    memo_peak = len(pp)
    supercube_many = ctx.supercube_dhf_many
    try:
        progress = True
        while progress:
            progress = False
            m = sel  # pass snapshot; discoveries shrink sel mid-pass
            while m:
                low = m & -m
                m ^= low
                if not (sel & low):
                    continue  # covered by an essential earlier this pass
                if vclean & low:
                    perf.essentials_rescans_avoided += 1
                    continue
                ctx.checkpoint("essentials")
                pos = low.bit_length() - 1
                row = pp[pos]
                p = expand_memo.get(pos)
                if p is None:
                    holder = [0]
                    p = expand_toward_required(
                        ctx.cube_for(req_at[pos]),
                        reqs,
                        ctx,
                        sel,
                        candidates,
                        allowed=row,
                        support_out=holder,
                    )
                    expand_memo[pos] = p
                    expand_support[pos] = holder[0] | cov.covered_bits(
                        p.inbits, p.outbits
                    )
                covered_mask = cov.covered_bits(p.inbits, p.outbits) & sel
                outside = sel & ~covered_mask
                distinguished = False
                trig = expand_support[pos]
                cm = covered_mask
                while cm:
                    lowc = cm & -cm
                    cm ^= lowc
                    posc = lowc.bit_length() - 1
                    rowc = pp[posc]
                    pairable = esc_pair.get(posc, 0)
                    if pairable & outside:
                        trig |= pairable
                        continue  # escapes via an already-known partner
                    # Probe the unprobed row partners in the outside
                    # set, same-output group first, one batched call
                    # per group; verdicts accumulate across passes
                    # (they depend only on the instance).
                    known = esc_known.get(posc, 0)
                    unknown = outside & rowc & ~known
                    escaped = False
                    if unknown:
                        q_in, q_ob = pair_at[posc]
                        same = unknown & out_pos.get(q_ob, 0)
                        for group in (same, unknown ^ same):
                            if not group:
                                continue
                            members: List[int] = []
                            probes: List[Tuple[int, int]] = []
                            gm = group
                            while gm:
                                lows = gm & -gm
                                gm ^= lows
                                s_in, s_ob = pair_at[
                                    lows.bit_length() - 1
                                ]
                                members.append(lows)
                                probes.append(
                                    (q_in | s_in, q_ob | s_ob)
                                )
                            for lows, sup in zip(
                                members, supercube_many(probes)
                            ):
                                known |= lows
                                if sup is not None:
                                    pairable |= lows
                                    escaped = True
                            if escaped:
                                break
                        esc_known[posc] = known
                        esc_pair[posc] = pairable
                    trig |= pairable
                    if not escaped:
                        distinguished = True
                        break
                if distinguished:
                    essentials.append(p)
                    sel = outside
                    progress = True
                    removed = covered_mask
                    # Every memo's support contains its own covered
                    # set (the diagonal included), so the support-
                    # intersection test also retires entries whose
                    # seed was just covered.
                    for stale in [
                        k
                        for k, s in expand_support.items()
                        if s & removed
                    ]:
                        del expand_memo[stale]
                        del expand_support[stale]
                    if vclean:
                        mm = vclean & sel
                        vclean = 0
                        while mm:
                            b = mm & -mm
                            mm ^= b
                            if not (
                                vtrigger[b.bit_length() - 1] & removed
                            ):
                                vclean |= b
                else:
                    vclean |= low
                    vtrigger[pos] = trig
            size = (
                len(expand_memo)
                + len(expand_support)
                + len(esc_known)
                + len(esc_pair)
                + len(pp)
            )
            if size > memo_peak:
                memo_peak = size
    finally:
        # Bound per-instance state: service-style runs reuse contexts
        # and must not accumulate memo tables across instances.  The
        # escape rows themselves stay on the context (EXPAND reuses
        # them); they die with it, like the supercube memo.
        if memo_peak > perf.essentials_memo_peak:
            perf.essentials_memo_peak = memo_peak
        expand_memo.clear()
        expand_support.clear()
        esc_known.clear()
        esc_pair.clear()
        vtrigger.clear()
    remaining = cov.covered_subset(sel, reqs)
    return essentials, remaining


class EssentialsPass:
    """Essential-class detection as a pipeline pass.

    Always present in the default spec so phase timing and the trace keep
    one uniform shape; with ``use_essentials=False`` it degenerates to
    rebuilding the working cover from the full canonical required set.
    """

    name = "essentials"

    def run(self, state):
        ctx = state.ctx
        if state.options.use_essentials:
            essentials, state.remaining = compute_essentials(ctx, state.qf)
            state.essentials = essentials
            state.essential_classes = list(essentials)
        state.f = [ctx.cube_for(q) for q in state.remaining]
        return state
