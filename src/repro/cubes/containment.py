"""Single-cube containment minimization (Espresso's SCC step)."""

from __future__ import annotations

from typing import List, Sequence

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro._compat import popcount


def maximal(parts: Sequence[int]) -> List[int]:
    """Positions, in input order, of the parts no other part contains.

    A part is a cube's bits in the 2-bits-per-variable encoding, so
    ``x ⊆ y`` iff ``x & y == x``.  Of equal duplicates the first is kept.
    Scanning widest-first (by popcount) means a kept part can never be
    contained in a later one, so one pass against the kept list suffices.
    """
    order = sorted(range(len(parts)), key=lambda i: -popcount(parts[i]))
    kept: List[int] = []
    positions: List[int] = []
    for i in order:
        x = parts[i]
        if any(x & k == x for k in kept):
            continue
        kept.append(x)
        positions.append(i)
    positions.sort()
    return positions


def minimize_scc(cover: Cover) -> Cover:
    """Remove every cube contained in another single cube of the cover.

    Duplicates and empty cubes are removed as well.  The relative order of
    surviving cubes is preserved.  This is Espresso's "single cube
    containment" minimization — cheap, and sound because removing a contained
    cube never changes the function.
    """
    out = Cover(cover.n_inputs, (), cover.n_outputs)
    out.cubes = maximal_cubes(cover.cubes)
    return out


def maximal_cubes(cubes: Sequence[Cube]) -> List[Cube]:
    """The maximal non-empty cubes of a list under single-cube containment,
    in list order; of equal cubes the first is kept."""
    live = [c for c in cubes if not c.is_empty]
    if not live:
        return []
    shift = 2 * live[0].n_inputs
    return [
        live[i] for i in maximal([(c.outbits << shift) | c.inbits for c in live])
    ]
