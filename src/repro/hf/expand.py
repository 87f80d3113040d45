"""Hazard-free EXPAND (paper §3.3, Figure 7) on the coverage-bitset engine.

Expansion differs from Espresso-II in two ways.  First, raising an entry may
*force* other entries to be raised: growing a cube across a privileged cube
obliges it to absorb the start point, so every candidate expansion goes
through ``supercube_dhf`` (raising is a binate problem).  Second, the
secondary goal is to contain as many *required cubes* as possible — by the
Hazard-Free Covering theorem nothing else can ever be gained by growing
further, so expansion stops there instead of pushing on to a prime
(dhf-primeness is restored by a final MAKE_DHF_PRIME pass).

A note on the paper's §3.3.1 accelerations (free lists, the overexpanded
cube, and the local sets ``F_a``/``Q_a``/``P_a``/``R_a``): those exist to
avoid re-scanning privileged and OFF cubes on every feasibility probe.
This implementation gets the same effect from
:meth:`repro.hf.context.HFContext.supercube_dhf_bits` — a bitmask inner
loop memoized on ``(input bits, output set)``, so repeated probes against
the same local configuration are O(1) dictionary hits.  Filters (1)-(3) of
the paper (dropping privileged cubes whose start point is already covered,
or that can never be legally reached) are exactly the cases the memoized
chain resolves without growth, so they are not duplicated here.

The gain functions are bit-parallel.  Phase 1 ranks candidates by how many
other cover cubes they absorb: per ``expand_one`` call the cover slots are
transposed into per-bit masks (``repro.cubes.cover._bit_columns``, the
transpose behind ``CoverColumns``), so a candidate's absorbed set is an
AND/OR chain over its *missing* bits plus one popcount — O(|F|) big-int
words per candidate instead of an O(|F|) Python scan with per-pair method
calls.
Phase 2 ranks candidates by newly covered required cubes:
``covered_bits(candidate) & uncovered`` replaces the per-pair
``ctx.covers`` scan.  Both phases preserve the scalar tie-breaking exactly
(first strictly-better candidate in scan order wins).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cubes.cover import _bit_columns
from repro.cubes.cube import Cube, full_input_mask
from repro.hf.context import _MISSING, HFContext, TaggedRequired
from repro._compat import popcount


def expand_cover(
    cubes: List[Cube], reqs: Sequence[TaggedRequired], ctx: HFContext
) -> List[Cube]:
    """Expand every cube of the cover; absorbed cubes are removed.

    ``reqs`` is the set of (canonical) required cubes the cover must keep
    covering; it is used for the secondary expansion goal.  The returned
    list is never larger than the input and always covers at least the same
    required cubes.
    """
    cov = ctx.coverage
    cov.register(reqs)
    sel = cov.selection_mask(reqs)
    candidates = required_candidates(reqs, ctx)
    slots: List[Optional[Cube]] = list(cubes)
    order = sorted(
        range(len(slots)),
        key=lambda i: (slots[i].num_dc(), slots[i].inbits, slots[i].outbits),
    )
    for idx in order:
        if slots[idx] is None:
            continue
        ctx.checkpoint("expand")
        slots[idx] = expand_one(
            slots[idx], idx, slots, reqs, ctx, sel, candidates
        )
    return [c for c in slots if c is not None]


def expand_one(
    cube: Cube,
    idx: int,
    slots: List[Optional[Cube]],
    reqs: Sequence[TaggedRequired],
    ctx: HFContext,
    sel: Optional[int] = None,
    candidates: Optional[dict] = None,
) -> Cube:
    """Expand a single cube: absorb cover cubes first, then required cubes."""
    perf = ctx.perf
    full_in = full_input_mask(ctx.n_inputs)
    full_out = (1 << ctx.n_outputs) - 1
    # Per-bit slot masks (a dead slot has no bits): the live slots NOT
    # contained in a candidate are the OR of its missing bits' masks.
    in_by_bit = _bit_columns(
        [0 if d is None else d.inbits for d in slots], 2 * ctx.n_inputs
    )
    out_by_bit = _bit_columns(
        [0 if d is None else d.outbits for d in slots], ctx.n_outputs
    )
    others = sum(1 << k for k, d in enumerate(slots) if d is not None and k != idx)

    def contained_mask(cand_in: int, cand_out: int) -> int:
        """Live slots (except ``idx``) wholly contained in the candidate."""
        m = others
        missing = full_in & ~cand_in
        while m and missing:
            low = missing & -missing
            m &= ~in_by_bit[low.bit_length() - 1]
            missing ^= low
        missing = full_out & ~cand_out
        while m and missing:
            low = missing & -missing
            m &= ~out_by_bit[low.bit_length() - 1]
            missing ^= low
        return m

    scache = ctx._supercube_cache
    supercube = ctx.supercube_dhf_bits
    probes = sc_hits = 0
    # Anchor-based pair prefilter on the escape rows (if ESSENTIALS built
    # them): a probe X ∪ Y can only be dhf-feasible if the required cubes
    # the two sides cover are pairwise dhf-pairable, so a cleared
    # escape-row bit between one anchor of each side proves the probe
    # returns None — skip it without touching the supercube memo.
    rows_sel = ctx._escape_rows_sel
    anchor_row = None
    slot_anchor: List[Optional[int]] = []
    if rows_sel:
        cbits = ctx.coverage.covered_bits
        acov = cbits(cube.inbits, cube.outbits) & rows_sel
        if acov:
            anchor_row = ctx._escape_rows[(acov & -acov).bit_length() - 1]
            slot_anchor = [None] * len(slots)
    # Phase 1: dhf-feasibly covered cubes of F (primary goal).
    while True:
        best: Optional[Cube] = None
        best_gain = 0
        best_mask = 0
        for j, other in enumerate(slots):
            if other is None or j == idx or cube.contains(other):
                continue
            if anchor_row is not None:
                a = slot_anchor[j]
                if a is None:
                    oc = cbits(other.inbits, other.outbits) & rows_sel
                    a = (oc & -oc).bit_length() - 1 if oc else -1
                    slot_anchor[j] = a
                if a >= 0 and not (anchor_row >> a) & 1:
                    continue
            outbits = cube.outbits | other.outbits
            probes += 1
            r_bits = cube.inbits | other.inbits
            sup_in = scache.get((r_bits, outbits), _MISSING)
            if sup_in is _MISSING:
                sup_in = supercube(r_bits, outbits)
            else:
                sc_hits += 1
            if sup_in is None:
                continue
            absorbed = contained_mask(sup_in, outbits)
            gain = popcount(absorbed)
            if gain > best_gain:
                best_gain = gain
                best = Cube(ctx.n_inputs, sup_in, outbits, ctx.n_outputs)
                best_mask = absorbed
        if best is None:
            break
        cube = best
        m = best_mask
        while m:
            low = m & -m
            slots[low.bit_length() - 1] = None
            m ^= low
        others &= ~best_mask
    perf.expand_probes += probes
    perf.supercube_calls += sc_hits
    perf.supercube_cache_hits += sc_hits
    # Phase 2: dhf-feasibly covered required cubes (secondary goal).
    allowed = None
    if rows_sel:
        acov = cbits(cube.inbits, cube.outbits) & rows_sel
        if acov:
            allowed = ctx._escape_rows[(acov & -acov).bit_length() - 1]
    cube = expand_toward_required(
        cube, reqs, ctx, sel, candidates, allowed=allowed
    )
    return cube


def required_candidates(
    reqs: Sequence[TaggedRequired], ctx: HFContext
) -> dict:
    """Universe position -> ``(input bits, output bit)`` for each required.

    Callers that expand many seeds against the same required set build
    this once and pass it to :func:`expand_toward_required`.
    """
    return {
        pos: (q.canonical.inbits, 1 << q.output)
        for pos, q in zip(ctx.coverage.positions(reqs), reqs)
    }


def expand_toward_required(
    cube: Cube,
    reqs: Sequence[TaggedRequired],
    ctx: HFContext,
    sel: Optional[int] = None,
    candidates: Optional[dict] = None,
    allowed: Optional[int] = None,
    support_out: Optional[List[int]] = None,
) -> Cube:
    """Greedily absorb required cubes while any absorption is dhf-feasible.

    ``allowed`` optionally restricts the candidates probed to a position
    mask of *possibly feasible* partners.  It is an exact filter, not a
    heuristic: callers must guarantee that every excluded candidate's
    probe would return ``None`` (the batched essentials engine passes the
    seed's escape row, whose cleared bits are proven infeasible by the
    seed-level OFF-set check).  Skipped candidates therefore never carry a
    gain, so the greedy choice — and the resulting cube — is unchanged.

    ``support_out``, if given, is a one-element list whose slot is ORed
    with the *gain support* of the run: the union of ``covered_bits`` of
    every feasible probed expansion.  The greedy trace reads the
    selection only through these masks — every gain counts positions
    from them, and a probed candidate sits inside its own supercube's
    covered set — so a caller may memoize the result and keep it valid
    across any selection shrink that misses the support (the batched
    essentials engine's incremental fixpoint relies on exactly this).
    """
    cov = ctx.coverage
    if sel is None:
        sel = cov.selection_mask(reqs)
    if not sel:
        return cube
    perf = ctx.perf
    covered_bits = cov.covered_bits
    scache = ctx._supercube_cache
    supercube = ctx.supercube_dhf_bits
    erows = ctx._escape_rows
    probes = sc_hits = 0
    if candidates is None:
        candidates = required_candidates(reqs, ctx)
    cin, cout = cube.inbits, cube.outbits
    # Exact candidate filter from the escape rows (when ESSENTIALS built
    # them): the expansion's result covers everything the current cube
    # covers, so an absorbable candidate must be pairable with *every*
    # covered position — ``inter``, the running AND of their rows, drops
    # provably infeasible candidates without probing (containment lemma:
    # a cleared pair bit means no dhf-implicant covers both cubes).
    use_rows = bool(erows)
    inter = -1
    prev_cov = 0
    support = 0
    # Combined-cache fast path for the per-probe gain masks: the
    # universe is static inside one expansion, so a fresh cache entry is
    # exactly what ``covered_bits`` would return — stale or missing
    # entries fall back to the real call.  Bypassed in scalar mode.
    ccache = cov._combined_cache if not cov.scalar_mode else None
    ulen = len(cov)
    # Scanning set bits of ``uncovered`` visits candidates in ascending
    # universe position — the same order as the required list (positions
    # are assigned in registration order), so tie-breaking is unchanged.
    cov_now = None
    while True:
        ctx.checkpoint("expand")
        if cov_now is None:
            cov_now = covered_bits(cin, cout)
        uncovered = sel & ~cov_now
        if not uncovered:
            break
        if use_rows:
            new = cov_now & ~prev_cov
            prev_cov = cov_now
            while new:
                b = new & -new
                new ^= b
                row = erows.get(b.bit_length() - 1)
                if row is not None:
                    inter &= row
        best = None
        best_gain = 0
        m = uncovered if allowed is None else uncovered & allowed
        if use_rows:
            m &= inter
        while m:
            low = m & -m
            m ^= low
            pos = low.bit_length() - 1
            if best_gain:
                # Gain bound without probing: an expansion absorbing this
                # candidate covers only required cubes pairable with it
                # *and* with every already-covered cube, so the row AND
                # ``inter`` caps the gain.  Skipping candidates that
                # provably cannot *strictly* beat the running best
                # preserves the greedy trace.
                row = erows.get(pos)
                if (
                    row is not None
                    and popcount(row & uncovered & inter) <= best_gain
                ):
                    continue
            q_in, q_out = candidates[pos]
            outbits = cout | q_out
            probes += 1
            r_bits = cin | q_in
            sup_in = scache.get((r_bits, outbits), _MISSING)
            if sup_in is _MISSING:
                sup_in = supercube(r_bits, outbits)
            else:
                sc_hits += 1
            if sup_in is None:
                continue
            if ccache is not None:
                cached = ccache.get((sup_in, outbits))
                if cached is not None and cached[0] == ulen:
                    perf.coverage_mask_hits += 1
                    cov_sup = cached[1]
                else:
                    cov_sup = covered_bits(sup_in, outbits)
            else:
                cov_sup = covered_bits(sup_in, outbits)
            support |= cov_sup
            gain = popcount(cov_sup & uncovered)
            if gain > best_gain:
                best_gain = gain
                best = (sup_in, outbits)
                best_cov = cov_sup
        if best is None:
            break
        cin, cout = best
        cov_now = best_cov
    perf.expand_probes += probes
    perf.supercube_calls += sc_hits
    perf.supercube_cache_hits += sc_hits
    if support_out is not None:
        support_out[0] |= support
    if cin == cube.inbits and cout == cube.outbits:
        return cube
    return Cube(ctx.n_inputs, cin, cout, ctx.n_outputs)


class ExpandPass:
    """EXPAND as a pipeline pass (see :mod:`repro.pipeline`)."""

    name = "expand"

    def run(self, state):
        state.f = expand_cover(state.f, state.remaining, state.ctx)
        return state
