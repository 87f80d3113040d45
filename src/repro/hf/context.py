"""Shared state for one Espresso-HF run.

The :class:`HFContext` precomputes, from a :class:`HazardFreeInstance`, the
objects every operator needs — per-output privileged cubes and OFF covers —
and provides the multi-output generalization of ``supercube_dhf``: a cover
cube participating in output set ``O`` must be a dhf-implicant with respect
to *every* output in ``O``, so forced expansions chain across the privileged
cubes of all of them and the result must clear every OFF-set in ``O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cubes.cube import Cube
from repro.cubes.containment import maximal
from repro.cubes.cover import CoverColumns
from repro.guard.budget import RunBudget
from repro.guard.errors import NoSolutionError
from repro.hazards.instance import (
    HazardFreeInstance,
    PrivilegedCube,
    RequiredCube,
)
from repro.hf.coverage import CoverageIndex
from repro.perf import PerfCounters

#: cache sentinel distinguishing "not computed" from a computed ``None``
_MISSING = object()


def _off_rows(off: CoverColumns, cubes: int, m01: int) -> List[int]:
    """Input parts of the selected OFF cubes, in cover order, without the
    cubes that have an EMPTY literal."""
    rows: List[int] = []
    while cubes:
        low = cubes & -cubes
        cubes ^= low
        bits = off.cubes[low.bit_length() - 1].inbits
        if not (~(bits | (bits >> 1)) & m01):
            rows.append(bits)
    return rows


@dataclass(frozen=True)
class TaggedRequired:
    """A canonical required cube: input part plus the output it belongs to.

    ``canonical`` is ``supercube_dhf({original})`` — the unique smallest
    dhf-implicant containing the original required cube (paper §3.2).  A
    dhf-implicant contains the original iff it contains the canonical cube,
    so all covering bookkeeping uses ``canonical``.
    """

    canonical: Cube  # input part, single-output encoding
    output: int
    original: Cube

    def key(self) -> Tuple[int, int]:
        return (self.canonical.inbits, self.output)

    def __str__(self) -> str:
        return f"{self.canonical.input_string()}@out{self.output}"


class HFContext:
    """Precomputed per-run state: privileged cubes, OFF covers, helpers.

    ``supercube_dhf`` is the inner loop of every operator, so it works on
    raw bitmasks and is memoized: for a fixed instance the result depends
    only on the supercube's input bits and the output set.
    """

    def __init__(
        self,
        instance: HazardFreeInstance,
        perf: Optional[PerfCounters] = None,
        budget: Optional[RunBudget] = None,
        checked: bool = False,
    ):
        self.instance = instance
        self.n_inputs = instance.n_inputs
        self.n_outputs = instance.n_outputs
        self.perf = perf if perf is not None else PerfCounters()
        #: cooperative run budget (None = uncapped); see repro.guard.budget
        self.budget = budget
        #: checked mode: phase-boundary invariant checkpoints are active
        self.checked = checked
        #: phase trace: one line per phase boundary / guard event, in order
        self.trace: List[str] = []
        self.coverage = CoverageIndex(self.n_outputs, self.perf)
        self.priv_by_output: List[List[PrivilegedCube]] = [
            instance.privileged_for_output(j) for j in range(self.n_outputs)
        ]
        from repro.cubes.cube import mask01

        self._mask01 = mask01(self.n_inputs)
        # Raw (cube bits, start bits) pairs per output, and OFF bits.
        self._priv_bits_by_output = [
            [(p.cube.inbits, p.start.inbits) for p in privs]
            for privs in self.priv_by_output
        ]
        m01 = self._mask01
        # Per-output OFF bits (OFF cover order, read off the instance's OFF
        # columns), degenerate cubes dropped, then reduced to the maximal
        # cubes: every consumer only ever asks "does r intersect the OFF
        # union", and a cube contained in another (o1 & o2 == o1) cannot
        # flip that test on its own — dropping it leaves the union (hence
        # every verdict) unchanged while shrinking every SWAR
        # concatenation and scalar scan.  10-36% of OFF cubes are
        # redundant on the benchmark suite.
        off = instance.off_columns
        self._off_bits_by_output = []
        for j in range(self.n_outputs):
            rows = _off_rows(off, off.by_output[j], m01)
            self._off_bits_by_output.append([rows[i] for i in maximal(rows)])
        self._priv_bits_cache: Dict[int, List[Tuple[int, int]]] = {}
        self._off_bits_cache: Dict[int, List[int]] = {}
        self._rep_env_cache: Dict[int, tuple] = {}
        #: escape rows (universe pos -> partner mask) built by
        #: :meth:`escape_filter_rows`; instance-lifetime, like the
        #: supercube memo — EXPAND reuses them to skip pair-infeasible
        #: probes long after ESSENTIALS built them
        self._escape_rows: Dict[int, int] = {}
        #: selection mask of the positions covered by ``_escape_rows``
        self._escape_rows_sel = 0
        self._supercube_cache: Dict[Tuple[int, int], Optional[int]] = {}
        #: outbits -> SWAR environment for the supercube fixpoint loop
        self._outbits_env_cache: Dict[int, tuple] = {}
        self._output_swar_cache: Dict[int, tuple] = {}
        self._output_unions: Dict[int, Tuple[int, int]] = {}
        self._rep_cache: Dict[int, int] = {}
        #: SWAR block width: the input part plus one always-zero spare bit,
        #: so per-block values stay below the high (zero-flag) bit.
        self._block_width = 2 * self.n_inputs + 1

    # ------------------------------------------------------------------
    # Guarded execution hooks
    # ------------------------------------------------------------------

    def checkpoint(self, phase: str = "") -> None:
        """Cooperative budget checkpoint, called by the operators per cube.

        A no-op without a budget; with one, raises
        :class:`~repro.guard.errors.BudgetExceeded` once a cap is blown.
        The driver catches it at the phase boundary and degrades to the
        best cover built so far.
        """
        if self.budget is not None:
            self.budget.checkpoint(phase)

    def activate_scalar_fallback(self, phase: str = "") -> None:
        """Degrade coverage queries to the scalar path (checked mode).

        Called by :func:`repro.guard.invariants.check_phase` when the
        scalar-vs-bitset cross-check diverges; idempotent.
        """
        if not self.coverage.scalar_mode:
            self.coverage.enter_scalar_mode()
            self.perf.scalar_fallbacks += 1
            self.trace.append(f"scalar-fallback@{phase or 'unknown'}")

    # ------------------------------------------------------------------
    # supercube_dhf over an output set
    # ------------------------------------------------------------------

    def supercube_dhf(
        self, cubes: Iterable[Cube], outbits: int
    ) -> Optional[Cube]:
        """Smallest input cube that is a dhf-implicant for every output in
        ``outbits`` and contains all of ``cubes`` — or ``None``.

        Input cubes may use any output encoding; only input parts are read.
        The result is a single-output-encoded input cube.
        """
        r_bits = 0
        for c in cubes:
            r_bits |= c.inbits
        result = self.supercube_dhf_bits(r_bits, outbits)
        if result is None:
            return None
        return Cube(self.n_inputs, result, 1, 1)

    def supercube_dhf_bits(self, r: int, outbits: int) -> Optional[int]:
        """Bitmask core of ``supercube_dhf`` (memoized).

        The fixpoint loop is SWAR-batched: all privileged cubes of the
        output set are concatenated into one big int (one block of
        ``2n + 1`` bits per cube — the spare top bit keeps the zero-block
        detector carry-free), so a whole forced-expansion pass is a handful
        of big-int operations instead of a Python scan.  Per pass:
        replicate ``r`` across blocks, AND with the concatenated cubes,
        flag the blocks whose intersection is non-empty with the carry-free
        zero-block trick ``hi & ~(t + low)``, expand those flags to block
        masks selecting the start points, and OR-fold the selected start
        bits into ``r`` in one shot.  Start points already contained in
        ``r`` are no-ops under OR, so the batch pass reaches the same
        (confluent) fixpoint as the sequential scan.  The OFF-set
        intersection check is the same one-shot pattern.

        Two further accelerations on top of the memo table:

        * a variable-support prefilter: once ``r`` is don't-care on every
          variable any privileged cube constrains, it intersects all of
          them and their start points are absorbed in one OR;
        * the forced-expansion chain is confluent, so *every* intermediate
          cube along it is cached to the same fixpoint, not just the
          endpoints.

        Two-output probes (the essentials engine's pair seeds — thousands
        of distinct pairs, each probed a handful of times) alternate the
        *per-output* closures until neither output forces growth — the
        same least fixpoint as a joint pass (the forced-expansion
        operators are monotone, so their interleaved closure is
        confluent), but only one cached environment per single output
        ever exists instead of one per distinct pair.  Wider output sets
        (growing expansion cubes, cover cubes in MAKE_DHF_PRIME) keep the
        joint environment: alternating many small closures costs more
        rounds than one wide pass, and those sets recur enough to
        amortize the build.
        """
        perf = self.perf
        perf.supercube_calls += 1
        key = (r, outbits)
        cache = self._supercube_cache
        cached = cache.get(key, _MISSING)
        if cached is not _MISSING:
            perf.supercube_cache_hits += 1
            return cached
        m01 = self._mask01
        if ~(r | (r >> 1)) & m01:
            raise ValueError("supercube_dhf of an empty cube collection")
        env_cache = self._outbits_env_cache
        low_bit = outbits & -outbits
        rest = outbits ^ low_bit
        if rest and rest & (rest - 1) == 0:
            # Exactly two outputs: per-output environments, alternated.
            envs = []
            for b in (low_bit, rest):
                env = env_cache.get(b)
                if env is None:
                    env = self._build_env(b)
                    env_cache[b] = env
                envs.append(env)
        else:
            env = env_cache.get(outbits)
            if env is None:
                env = self._build_env(outbits)
                env_cache[outbits] = env
            envs = [env]
        # Early infeasibility: the fixpoint only ever raises ``r``, so an
        # OFF-set intersection of the seed can never be repaired by growth
        # — skip the whole forced-expansion loop for such probes.
        for env in envs:
            if self._off_hit(r, env, m01):
                cache[key] = None
                return None
        chain: Optional[List[int]] = None
        if len(envs) == 1:
            r, chain = self._force_fix(r, envs[0], chain, m01)
        else:
            changed = True
            while changed:
                changed = False
                for env in envs:
                    r2, chain = self._force_fix(r, env, chain, m01)
                    if r2 != r:
                        r = r2
                        changed = True
        result: Optional[int] = r
        if chain:
            # The cube grew, so the seed's clean OFF check must be redone.
            for env in envs:
                if self._off_hit(r, env, m01):
                    result = None
                    break
        cache[key] = result
        if chain:
            for c in chain:
                chain_key = (c, outbits)
                if chain_key not in cache:
                    cache[chain_key] = result
                    perf.supercube_chain_cached += 1
        return result

    @staticmethod
    def _off_hit(r: int, env: tuple, m01: int) -> bool:
        """True iff ``r`` intersects an OFF cube of the environment."""
        swar_o = env[5]
        if swar_o is None:
            for obits in env[3]:
                meet = r & obits
                if not (~(meet | (meet >> 1)) & m01):
                    return True
            return False
        off_cat, rep_o, low_o, hi_o, m01cat_o = swar_o
        meet = r * rep_o & off_cat
        t = ~(meet | (meet >> 1)) & m01cat_o
        return bool(hi_o & ~(t + low_o))

    def _force_fix(
        self, r: int, env: tuple, chain: Optional[List[int]], m01: int
    ) -> Tuple[int, Optional[List[int]]]:
        """Forced-expansion closure of ``r`` under one environment."""
        start_union, support_union, privs, _offs, swar_p, _swar_o = env
        if swar_p is None:
            # Few privileged cubes: the plain scan beats SWAR setup costs.
            changed = True
            while changed and start_union & r != start_union:
                if support_union & ~(r & (r >> 1)) & m01 == 0:
                    r |= start_union
                    if chain is None:
                        chain = []
                    chain.append(r)
                    break
                changed = False
                for pin, sbits in privs:
                    if sbits & r == sbits:
                        continue  # start point contained: legal
                    meet = r & pin
                    if ~(meet | (meet >> 1)) & m01:
                        continue  # no intersection with the privileged cube
                    r |= sbits
                    if chain is None:
                        chain = []
                    chain.append(r)
                    changed = True
        else:
            pin_cat, sb_cat, rep_p, low_p, hi_p, m01cat_p, total_p = swar_p
            W = self._block_width
            blk0 = (1 << (W - 1)) - 1
            while start_union & r != start_union:
                if support_union & ~(r & (r >> 1)) & m01 == 0:
                    # r is DC on every constrained variable: it intersects
                    # every privileged cube, so all start points are forced.
                    r |= start_union
                    if chain is None:
                        chain = []
                    chain.append(r)
                    break
                meet = r * rep_p & pin_cat
                t = ~(meet | (meet >> 1)) & m01cat_p
                flags = hi_p & ~(t + low_p)  # high bit per intersecting block
                # Expand flags to block masks and pick those start points.
                s = sb_cat & (flags - (flags >> (W - 1)))
                sh = W
                while sh < total_p:
                    s |= s >> sh
                    sh <<= 1
                forced = s & blk0 & ~r
                if forced == 0:
                    break
                r |= forced
                if chain is None:
                    chain = []
                chain.append(r)
        return r, chain

    def supercube_dhf_many(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[Optional[int]]:
        """Batch entry point for :meth:`supercube_dhf_bits`.

        ``pairs`` is a sequence of ``(r bits, outbits)`` probes — typically
        the outstanding partners of one escape row.  Probes already in the
        memo table when the batch arrives are answered first and counted
        at probe time (``escape_probe_hits``, not lump-summed); the rest
        run :meth:`supercube_dhf_bits` in order.  No seed-level OFF-set
        check is needed here: essentials probes only partners left in an
        escape row (:meth:`escape_filter_rows`), whose seeds already
        cleared it.  Results align with ``pairs``.
        """
        perf = self.perf
        cache = self._supercube_cache
        results: List[Optional[int]] = []
        misses: List[int] = []
        for i, key in enumerate(pairs):
            cached = cache.get(key, _MISSING)
            if cached is _MISSING:
                misses.append(i)
                cached = None
            else:
                perf.supercube_calls += 1
                perf.supercube_cache_hits += 1
                perf.escape_probe_hits += 1
            results.append(cached)
        for i in misses:
            results[i] = self.supercube_dhf_bits(*pairs[i])
        return results

    def escape_filter_rows(
        self, entries: Sequence[Tuple[int, int, int]]
    ) -> Dict[int, int]:
        """Escape-row prefilter: a sound superset of pairability, in bulk.

        ``entries`` lists the required-cube universe as ``(universe
        position, canonical input bits, output index)`` triples.  The
        returned row for position ``q`` has partner bit ``s`` set iff the
        pair seed ``q ∪ s`` survives the seed-level OFF-set check of
        *both* members' outputs.  ``supercube_dhf`` of the pair is
        ``None`` whenever the seed already meets an OFF cube (the fixpoint
        only raises bits), so a cleared bit proves the pair infeasible
        without running any fixpoint; a set bit merely licenses one.

        Construction exploits that the seed-level check depends only on
        *input* parts: universe positions sharing a canonical input part
        are identical as partners, so the SWAR concatenation holds one
        block per **distinct input part** (typically 4-5x fewer blocks
        than positions), and a surviving block fans back out to its whole
        position group with one precomputed OR.  Each pass replicates the
        row cube's input bits across the group blocks with a single
        multiply and flags non-empty OFF meets carry-free; OFF cubes are
        pre-replicated once per output.  One-sided rows are further
        memoized on ``(input part, OFF-list identity)`` — outputs often
        share OFF covers, so duplicate rows are free.  The two-sided
        verdict is the row AND its transpose.  Rows depend only on the
        instance — never on the shrinking selection — so one build serves
        the whole essentials fixpoint, and they stay on the context
        afterwards for EXPAND's anchor prefilter.
        """
        perf = self.perf
        rows: Dict[int, int] = {}
        if not entries:
            return rows
        entries = sorted(entries)
        W = self._block_width
        # Partner blocks, deduped by canonical input part.
        group_of: Dict[int, int] = {}  # inbits -> block index
        group_in: List[int] = []  # block index -> inbits
        group_mask: List[int] = []  # block index -> universe-position mask
        for pos, q_in, _j in entries:
            gi = group_of.get(q_in)
            if gi is None:
                gi = len(group_in)
                group_of[q_in] = gi
                group_in.append(q_in)
                group_mask.append(0)
            group_mask[gi] |= 1 << pos
        u = len(group_in)
        rep, low, hi, m01cat = self._rep_env(u)
        cat0 = 0
        for gi, v in enumerate(group_in):
            cat0 |= v << (W * gi)
        #: output j -> ([o*rep, ...], OFF-list identity)
        off_env: Dict[int, Tuple[List[int], int]] = {}
        off_ids: Dict[Tuple[int, ...], int] = {}
        #: (inbits, OFF-list identity) -> (survivor groups, one-sided row)
        row_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: (inbits, OFF-list identity) -> universe positions with that key
        key_pos: Dict[Tuple[int, int], int] = {}
        for pos, q_in, j in entries:
            env = off_env.get(j)
            if env is None:
                offs = self._off_bits_by_output[j]
                oid = off_ids.setdefault(tuple(sorted(offs)), len(off_ids))
                env = ([o * rep for o in offs], oid)
                off_env[j] = env
            reps, oid = env
            ck = (q_in, oid)
            cached = row_cache.get(ck)
            if cached is None:
                cat = cat0 | q_in * rep
                # The row's own group can never be flagged (its seed is
                # the row cube itself, an implicant of output j), so
                # "everything else flagged" is the fixpoint — stop there.
                dead = hi & ~(
                    1 << (W * group_of[q_in] + W - 1)
                )
                flags = 0
                for o_cat in reps:
                    meet = cat & o_cat
                    z = ~(meet | (meet >> 1)) & m01cat
                    flags |= hi & ~(z + low)
                    if flags == dead:
                        break
                gset = rowmask = 0
                m = hi & ~flags
                while m:
                    b = m & -m
                    m ^= b
                    gi = (b.bit_length() - 1) // W
                    gset |= 1 << gi
                    rowmask |= group_mask[gi]
                cached = (gset, rowmask)
                row_cache[ck] = cached
            key_pos[ck] = key_pos.get(ck, 0) | (1 << pos)
            rows[pos] = cached[1]
            self._escape_rows_sel |= 1 << pos
        # Two-sided refinement: the pair must also clear the partner's OFF
        # set, which is exactly "q survives in s's row".  Whether a
        # position survives in a row depends only on its *group*, so the
        # transpose collapses to one column mask per group — the union of
        # the key position masks whose survivor set contains that group —
        # and the refinement is a single AND per position.
        cols_g = [0] * u
        for ck, pmask in key_pos.items():
            gset = row_cache[ck][0]
            while gset:
                b = gset & -gset
                gset ^= b
                cols_g[b.bit_length() - 1] |= pmask
        for pos, q_in, _j in entries:
            rows[pos] &= cols_g[group_of[q_in]]
        self._escape_rows.update(rows)
        perf.escape_rows_built += len(entries)
        return rows

    #: below these list sizes a plain Python scan beats the SWAR batch
    #: (the scalar OFF check also early-exits, so its break-even is higher)
    _SWAR_MIN_PRIV = 16
    _SWAR_MIN_OFF = 16
    def _build_env(self, outbits: int) -> tuple:
        """Fixpoint environment for one output set (see supercube_dhf_bits).

        ``(start_union, support_union, privs, offs, swar_p, swar_o)``.
        Thousands of distinct output sets show up in one run, so the
        per-output concatenations are cached and an output set's
        environment is assembled with one shift-OR per *output* rather
        than per cube.  The SWAR pieces are only materialized above a size
        threshold; small lists keep ``None`` and use the scalar scan,
        whose environment is just the cached flat lists and unions.
        """
        n_priv = n_off = 0
        start_union = support_union = 0
        unions = self._output_unions
        ob = outbits
        while ob:
            b = ob & -ob
            ob ^= b
            j = b.bit_length() - 1
            n_priv += len(self._priv_bits_by_output[j])
            n_off += len(self._off_bits_by_output[j])
            cached = unions.get(j)
            if cached is None:
                m01 = self._mask01
                su = vu = 0
                for pin, sbits in self._priv_bits_by_output[j]:
                    su |= sbits
                    vu |= ~(pin & (pin >> 1)) & m01
                cached = (su, vu)
                unions[j] = cached
            start_union |= cached[0]
            support_union |= cached[1]
        swar_p = swar_o = None
        if n_priv >= self._SWAR_MIN_PRIV:
            swar_p = self._materialize_swar_priv(outbits)
        if n_off >= self._SWAR_MIN_OFF:
            swar_o = self._materialize_swar_off(outbits)
        return (
            start_union,
            support_union,
            None if swar_p is not None else self._privs_bits(outbits),
            None if swar_o is not None else self._off_bits(outbits),
            swar_p,
            swar_o,
        )

    def _materialize_swar_priv(self, outbits: int) -> tuple:
        """Concatenate the output set's privileged cubes for SWAR passes."""
        W = self._block_width
        pin_cat = sb_cat = 0
        k = 0
        for j in self._outputs(outbits):
            pc, sc, kp, _oc, _ko = self._output_swar(j)
            pin_cat |= pc << (W * k)
            sb_cat |= sc << (W * k)
            k += kp
        rep_p, low_p, hi_p, m01cat_p = self._rep_env(k)
        return (pin_cat, sb_cat, rep_p, low_p, hi_p, m01cat_p, W * k)

    def _materialize_swar_off(self, outbits: int) -> tuple:
        """Concatenate the output set's OFF cubes for the SWAR check."""
        W = self._block_width
        off_cat = 0
        k = 0
        for j in self._outputs(outbits):
            _pc, _sc, _kp, oc, ko = self._output_swar(j)
            off_cat |= oc << (W * k)
            k += ko
        rep_o, low_o, hi_o, m01cat_o = self._rep_env(k)
        return (off_cat, rep_o, low_o, hi_o, m01cat_o)

    def _rep(self, k: int) -> int:
        """``k`` one-bits spaced a block apart (bit 0 of each block).

        Built by doubling — O(log k) shift-ORs — instead of the closed-form
        big-int division, which costs quadratically in the concatenation
        width and showed up in environment builds (a fresh block count
        appears for almost every distinct output set).
        """
        cached = self._rep_cache.get(k)
        if cached is None:
            W = self._block_width
            cached = 1 if k else 0
            have = 1
            while have < k:
                take = min(have, k - have)
                cached |= (cached & ((1 << (W * take)) - 1)) << (W * have)
                have += take
            self._rep_cache[k] = cached
        return cached

    def _rep_env(self, k: int) -> tuple:
        """``(rep, low, hi, m01cat)`` for ``k`` blocks, memoized.

        The replications derived from ``rep`` are multiplies over the full
        concatenation width; thousands of distinct output sets reuse the
        same handful of block counts, so caching them takes the constant
        setup out of every environment materialization.
        """
        cached = self._rep_env_cache.get(k)
        if cached is None:
            W = self._block_width
            rep = self._rep(k)
            cached = (
                rep,
                rep * ((1 << (W - 1)) - 1),
                rep << (W - 1),
                rep * self._mask01,
            )
            self._rep_env_cache[k] = cached
        return cached

    def _output_swar(self, j: int) -> tuple:
        """Per-output SWAR concatenations of privileged and OFF cubes."""
        cached = self._output_swar_cache.get(j)
        if cached is None:
            W = self._block_width
            pin_cat = sb_cat = 0
            privs = self._priv_bits_by_output[j]
            for i, (pin, sbits) in enumerate(privs):
                pin_cat |= pin << (W * i)
                sb_cat |= sbits << (W * i)
            off_cat = 0
            offs = self._off_bits_by_output[j]
            for i, obits in enumerate(offs):
                off_cat |= obits << (W * i)
            cached = (pin_cat, sb_cat, len(privs), off_cat, len(offs))
            self._output_swar_cache[j] = cached
        return cached

    def is_dhf_implicant(self, cube: Cube, outbits: int) -> bool:
        """dhf-implicant test for an input cube over an output set."""
        m01 = self._mask01
        r = cube.inbits
        for obits in self._off_bits(outbits):
            meet = r & obits
            if not (~(meet | (meet >> 1)) & m01):
                return False
        for pin, sbits in self._privs_bits(outbits):
            meet = r & pin
            if ~(meet | (meet >> 1)) & m01:
                continue
            if sbits & r != sbits:
                return False
        return True

    def _outputs(self, outbits: int):
        while outbits:
            b = outbits & -outbits
            outbits ^= b
            yield b.bit_length() - 1

    def _privs_bits(self, outbits: int) -> List[Tuple[int, int]]:
        cached = self._priv_bits_cache.get(outbits)
        if cached is None:
            cached = []
            for j in self._outputs(outbits):
                cached.extend(self._priv_bits_by_output[j])
            self._priv_bits_cache[outbits] = cached
        return cached

    def _off_bits(self, outbits: int) -> List[int]:
        cached = self._off_bits_cache.get(outbits)
        if cached is None:
            cached = []
            for j in self._outputs(outbits):
                cached.extend(self._off_bits_by_output[j])
            self._off_bits_cache[outbits] = cached
        return cached

    # ------------------------------------------------------------------
    # Canonical required cubes (dhf-canonicalization, §3.2)
    # ------------------------------------------------------------------

    def canonical_required(self) -> List[TaggedRequired]:
        """``Q_f``: the canonical required cubes, SCC-minimized per output.

        This is the one Theorem 4.1 decision in the package: every required
        cube is tested, and when any has no dhf-supercube the instance has
        no hazard-free cover and :class:`NoSolutionError` is raised naming
        all of them, in required-cube order.
        """
        tagged: List[TaggedRequired] = []
        failures: List[RequiredCube] = []
        n = self.n_inputs
        for q in self.instance.required_cubes():
            sup_in = self.supercube_dhf_bits(q.cube.inbits, 1 << q.output)
            if sup_in is None:
                failures.append(q)
            elif not failures:
                tagged.append(
                    TaggedRequired(Cube(n, sup_in, 1, 1), q.output, q.cube)
                )
        if failures:
            raise NoSolutionError(self.instance.name, failures)
        # SCC-minimize per output: drop canonical cubes another of the
        # same output contains, in (widest, inbits) order per output.
        by_output: Dict[int, List[TaggedRequired]] = {}
        for t in tagged:
            by_output.setdefault(t.output, []).append(t)
        kept: List[TaggedRequired] = []
        for _, group in sorted(by_output.items()):
            group.sort(key=lambda t: (-t.canonical.num_dc(), t.canonical.inbits))
            kept.extend(group[i] for i in maximal([t.canonical.inbits for t in group]))
        return kept

    # ------------------------------------------------------------------
    # Covering helpers
    # ------------------------------------------------------------------

    def covers(self, cover_cube: Cube, req: TaggedRequired) -> bool:
        """True iff a multi-output cover cube covers a tagged required cube.

        Scalar reference predicate; the operators use the bit-parallel
        :meth:`covered_bits` instead.
        """
        return cover_cube.has_output(req.output) and cover_cube.contains_input(
            req.canonical
        )

    def covered_set(
        self, cover_cube: Cube, reqs: Sequence[TaggedRequired]
    ) -> List[TaggedRequired]:
        """All tagged required cubes covered by ``cover_cube`` (scalar path)."""
        return [q for q in reqs if self.covers(cover_cube, q)]

    def covered_bits(self, inbits: int, outbits: int) -> int:
        """Coverage bitmask over the registered required-cube universe.

        Bit ``i`` is set iff universe required cube ``i`` is covered by a
        cover cube with this input part and output set.  The universe is
        populated by :meth:`CoverageIndex.register` — the operators register
        the canonical required cubes they work on, so within one minimizer
        run the mask is |Q_f|-wide.  Memoized per (inbits, output).
        """
        return self.coverage.covered_bits(inbits, outbits)

    def cube_for(self, req: TaggedRequired) -> Cube:
        """The multi-output cover cube representing one canonical required cube."""
        return Cube(
            self.n_inputs, req.canonical.inbits, 1 << req.output, self.n_outputs
        )
