"""Required-cube generation (Definition 2.9) via minimal hitting sets.

For a 1→0 transition ``[A, B]`` the required cubes are the maximal subcubes
``[A, X]`` on which the function stays 1.  Freeing a set ``S`` of changing
variables is safe iff the resulting cube avoids every OFF cube; an OFF cube
``o`` meeting the transition cube blocks exactly the freed-sets
``S ⊇ D_o = {changing i : A_i ∉ o_i}``.  The maximal safe sets are therefore
the complements (within the changing set) of the *minimal hitting sets* of
``{D_o}``, which we enumerate with Berge's incremental algorithm.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Sequence, Tuple

from repro._compat import popcount
from repro.cubes.cube import Cube, LITERAL_DC
from repro.cubes.cover import Cover
from repro.hazards.transitions import Transition, TransitionEntry


def minimal_hitting_masks(sets: Sequence[int]) -> List[int]:
    """All minimal hitting sets of a family of non-empty bitmask sets.

    Berge's incremental construction: maintain the minimal hitting sets of a
    prefix of the family; to add a set ``D``, extend each current hitting set
    that misses ``D`` by every element of ``D`` and re-minimize.
    """
    if 0 in sets:
        raise ValueError("cannot hit an empty set")
    current = [0]
    # Process only the minimal sets: a hitting set of D' ⊆ D also hits D.
    for d in _minimal_masks(sets):
        extended = set()
        for h in current:
            if h & d:
                extended.add(h)
                continue
            rest = d
            while rest:
                low = rest & -rest
                extended.add(h | low)
                rest ^= low
        current = _minimal_masks(extended)
    return current


def _minimal_masks(sets) -> List[int]:
    kept: List[int] = []
    for s in sorted(set(sets), key=lambda m: (popcount(m), m)):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def minimal_hitting_sets(sets: Sequence[FrozenSet[Hashable]]) -> List[FrozenSet[Hashable]]:
    """All minimal hitting sets of a family of non-empty sets, ordered by
    size and then by sorted elements (:func:`minimal_hitting_masks` on the
    elements numbered in sorted order)."""
    universe = sorted(frozenset().union(*sets))
    index = {x: i for i, x in enumerate(universe)}
    masks = [sum(1 << index[x] for x in d) for d in sets]
    hitting = [
        frozenset(x for i, x in enumerate(universe) if (h >> i) & 1)
        for h in minimal_hitting_masks(masks)
    ]
    return sorted(hitting, key=lambda h: (len(h), sorted(h)))


def subcubes_from_blockers(
    n_inputs: int, start: int, changing: int, blockers: Sequence[int]
) -> List[Cube]:
    """The maximal subcubes ``[A, X]`` that avoid every blocker, sorted.

    ``start`` is the minterm bits of ``A``, ``changing`` the changing
    variables and ``blockers`` the ``D_o`` masks of the OFF cubes meeting
    the transition cube (all on the low bit of each variable's pair).
    """
    if 0 in blockers:
        raise ValueError(
            "OFF cube contains the start point of a 1->0 transition; "
            "the instance is ill-formed (f(A) must be 1)"
        )
    if not blockers:
        raise ValueError(
            "no OFF cube meets the transition cube of a 1->0 transition; "
            "the end point must be OFF"
        )
    cubes = []
    for h in minimal_hitting_masks(blockers):
        freed = changing & ~h
        cubes.append(Cube(n_inputs, start | freed | (freed << 1)))
    return sorted(cubes)


def maximal_on_subcubes(
    transition: Transition, off: Cover
) -> List[Cube]:
    """The required cubes of a 1→0 transition: maximal ON subcubes ``[A, X]``.

    ``off`` is the single-output OFF cover.  The transition is assumed
    function-hazard-free with ``f(A)=1`` and ``f(B)=0``.
    """
    entry = TransitionEntry(transition, Cover(off.n_inputs).columns(), off.columns())
    return subcubes_from_blockers(
        entry.n_inputs, entry.start, entry.changing, entry.blockers(0, True)
    )


def maximal_on_subcubes_brute(transition: Transition, on: Cover) -> List[Cube]:
    """Exhaustive oracle for :func:`maximal_on_subcubes` (small n only).

    Enumerates every subset of changing variables, keeps those whose cube
    ``[A, X]`` lies inside the ON cover, and returns the maximal ones.
    """
    import itertools

    start = transition.start
    changing = transition.changing
    good: List[Tuple[FrozenSet[int], Cube]] = []
    for r in range(len(changing) + 1):
        for combo in itertools.combinations(changing, r):
            cube = Cube.minterm(start)
            for i in combo:
                cube = cube.with_literal(i, LITERAL_DC)
            if all(on.evaluate(v) for v in cube.minterm_vectors()):
                good.append((frozenset(combo), cube))
    maximal = [
        cube
        for s, cube in good
        if not any(s < s2 for s2, _ in good)
    ]
    return sorted(maximal)
