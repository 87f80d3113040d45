"""Generation of all prime implicants (single- and multi-output).

Single-output primes use the recursive Shannon-expansion method with
merge-by-consensus at each node and a unate terminal case (the maximal
cubes of a unate cover are exactly the primes of its function).

Multiple-output primes — pairs ``(c, O)`` of an input cube and an output
set, maximal under simultaneous containment — are built from the
single-output primes: every multi-output prime's input part is an
intersection of single-output primes (one per output in ``O``), so the
closure of the single-output primes under pairwise
(input-intersection, output-union) merges contains every implicant's
dominator, and its maximal elements are exactly the primes.  The closure is
keyed by input part with output sets accumulated by union, which keeps it
compact in practice; it can still explode combinatorially — that is the
exact method's first bottleneck (paper §5) — so both a cube budget and a
wall-clock deadline are enforced.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.cubes.cube import Cube, LITERAL_ONE, LITERAL_ZERO, empty_pairs, full_input_mask
from repro.cubes.cover import Cover
from repro.cubes.containment import maximal_cubes
from repro.espresso.complement import _lit_cofactor
from repro.espresso.unate import select_binate_var


class PrimeExplosionError(RuntimeError):
    """Raised when prime generation exceeds its cube budget or deadline.

    The exact hazard-free minimization flow has exponential worst-case
    behaviour in each of its three stages (paper §5); this error is how the
    benchmark harness observes "could not generate all prime implicants"
    (the paper's stetson-p1 failure mode).
    """


def all_primes(
    cover: Cover, limit: Optional[int] = None, deadline: Optional[float] = None
) -> List[Cube]:
    """All prime implicants of the function whose ON∪DC union is ``cover``.

    Output parts are ignored (single-output semantics).  ``limit`` bounds
    the number of live cubes at any recursion node; ``deadline`` is an
    absolute :func:`time.perf_counter` timestamp.  Exceeding either raises
    :class:`PrimeExplosionError`.
    """
    flat = Cover(cover.n_inputs, (), 1)
    flat.cubes = [Cube(cover.n_inputs, c.inbits, 1, 1) for c in cover if not c.is_empty]
    return _primes_rec(flat, limit, deadline)


def all_primes_multi(
    cover: Cover, limit: Optional[int] = None, deadline: Optional[float] = None
) -> List[Cube]:
    """All multiple-output prime implicants of a multi-output cover.

    Cubes in the result carry the (maximal) output set in ``outbits``.
    ``limit`` bounds the number of distinct input parts in the closure pool.
    """
    n, m = cover.n_inputs, cover.n_outputs
    if m == 1:
        return all_primes(cover, limit=limit, deadline=deadline)
    pool: Dict[int, int] = {}
    for j in range(m):
        restricted = Cover(n, (), 1)
        restricted.cubes = [
            Cube(n, c.inbits, 1, 1)
            for c in cover
            if c.has_output(j) and not c.is_empty
        ]
        if not restricted.cubes:
            continue
        for p in all_primes(restricted, limit=limit, deadline=deadline):
            pool[p.inbits] = pool.get(p.inbits, 0) | (1 << j)
    # Closure under (input-intersection, output-union) merges.
    frontier = list(pool.items())
    while frontier:
        _check(len(pool), limit, deadline)
        fresh: Dict[int, int] = {}
        items = list(pool.items())
        for row, (in_a, out_a) in enumerate(frontier):
            if row % 64 == 0:
                _check(len(pool) + len(fresh), limit, deadline)
            for in_b, out_b in items:
                union = out_a | out_b
                if union == out_a or union == out_b:
                    continue  # no output gained: merged cube is dominated
                meet = in_a & in_b
                if empty_pairs(meet, n):
                    continue
                have = pool.get(meet, 0) | fresh.get(meet, 0)
                if union | have != have:
                    fresh[meet] = have | union
        frontier = []
        for inbits, outbits in fresh.items():
            prev = pool.get(inbits, 0)
            if outbits | prev != prev:
                pool[inbits] = prev | outbits
                frontier.append((inbits, pool[inbits]))
    cubes = [Cube(n, inbits, outbits, m) for inbits, outbits in pool.items()]
    return maximal_cubes(cubes)


def _check(size: int, limit: Optional[int], deadline: Optional[float]) -> None:
    if limit is not None and size > limit:
        raise PrimeExplosionError(f"prime generation exceeded {limit} cubes")
    if deadline is not None and time.perf_counter() > deadline:
        raise PrimeExplosionError("prime generation exceeded its deadline")


def _primes_rec(
    cover: Cover, limit: Optional[int], deadline: Optional[float]
) -> List[Cube]:
    n = cover.n_inputs
    live = [c for c in cover if not c.is_empty]
    if not live:
        return []
    _check(len(live), limit, deadline)
    full = full_input_mask(n)
    if any(c.inbits == full for c in live):
        # Tautology: the universal cube is the only prime.
        return [Cube(n, full, live[0].outbits, cover.n_outputs)]
    work = Cover(n, (), cover.n_outputs)
    work.cubes = live
    var = select_binate_var(work)
    if var is None:
        # Unate cover: its maximal cubes are exactly the primes.
        return maximal_cubes(live)
    p0 = _primes_rec(_lit_cofactor(work, var, 0), limit, deadline)
    p1 = _primes_rec(_lit_cofactor(work, var, 1), limit, deadline)
    candidates: List[Cube] = []
    ones_keys = {c.inbits for c in p1}
    for c in p0:
        if c.inbits in ones_keys:
            candidates.append(c)
        else:
            candidates.append(c.with_literal(var, LITERAL_ZERO))
    zeros_keys = {c.inbits for c in p0}
    for c in p1:
        if c.inbits not in zeros_keys:
            candidates.append(c.with_literal(var, LITERAL_ONE))
    for a in p0:
        for b in p1:
            meet = a.intersect(b)
            if not meet.is_empty:
                candidates.append(meet)
    _check(len(candidates), limit, deadline)
    return maximal_cubes(candidates)
