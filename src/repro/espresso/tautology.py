"""Unate-recursive tautology check (Espresso's TAUTOLOGY operator)."""

from __future__ import annotations

from typing import List

from repro.cubes.cube import Cube, full_input_mask, mask01
from repro.cubes.cover import Cover
from repro._compat import popcount


def tautology(cover: Cover) -> bool:
    """True iff the union of the cover's cubes is the whole input space.

    Output parts are ignored: the cover is interpreted as a single-output
    cover (callers handling multi-output covers restrict per output first).
    """
    return tautology_rows([c.inbits for c in cover], cover.n_inputs)


def tautology_rows(rows: List[int], n_inputs: int) -> bool:
    """True iff the positional input parts ``rows`` cover all ``n_inputs``
    variables' space.

    Implements the unate-recursive paradigm: terminal cases for the empty
    cover, a universal row, vanishing minterm counts and unate covers;
    otherwise Shannon-split on the most binate variable.  Rows with an
    EMPTY literal are dropped by the first split on that variable.
    """
    return _tautology(rows, full_input_mask(n_inputs), mask01(n_inputs), 1 << n_inputs)


def _tautology(rows: List[int], full: int, m01: int, target: int) -> bool:
    if full in rows:
        return True
    if not rows:
        return False
    # Vanishing heuristic: not enough minterms to possibly fill the space.
    total = 0
    for r in rows:
        total += 1 << popcount(r & (r >> 1) & m01)
        if total >= target:
            break
    if total < target:
        return False
    zero = _most_binate(rows, m01)
    if not zero:
        # Unate cover with no universal row is never a tautology.
        return False
    one = zero << 1
    pair = zero | one
    return _tautology([r | pair for r in rows if r & zero], full, m01, target) and (
        _tautology([r | pair for r in rows if r & one], full, m01, target)
    )


def _most_binate(rows: List[int], m01: int) -> int:
    """The low bit of :func:`~repro.espresso.unate.select_binate_var`'s
    variable for ``rows``, or 0 when they are unate."""
    zeros = ones = 0
    for r in rows:
        zeros |= r & ~(r >> 1) & m01
        ones |= (r >> 1) & ~r & m01
    binate = zeros & ones
    best = 0
    best_key = None
    while binate:
        low = binate & -binate
        binate ^= low
        high = low << 1
        n_zero = n_one = 0
        for r in rows:
            lit = r & (low | high)
            if lit == low:
                n_zero += 1
            elif lit == high:
                n_one += 1
        key = (min(n_zero, n_one), n_zero + n_one)
        if best_key is None or key > best_key:
            best_key = key
            best = low
    return best


def cover_contains_cube(cover: Cover, cube: Cube) -> bool:
    """True iff ``cube`` is contained in the union of the cover's cubes.

    For multi-output shapes the containment is required for every output the
    cube participates in.  This is the standard cofactor/tautology reduction:
    ``c ⊆ F`` iff ``F`` cofactored by ``c`` is a tautology.
    """
    if cube.is_empty:
        return True
    if cover.n_outputs == 1:
        return tautology(cover.cofactor(cube))
    for j in range(cube.n_outputs):
        if not cube.has_output(j):
            continue
        restricted = Cover(cover.n_inputs, (), cover.n_outputs)
        for c in cover:
            if c.has_output(j):
                restricted.append(c)
        probe = Cube(cube.n_inputs, cube.inbits, (1 << cover.n_outputs) - 1, cover.n_outputs)
        if not tautology(restricted.cofactor(probe)):
            return False
    return True
