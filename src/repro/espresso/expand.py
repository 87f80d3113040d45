"""Espresso-II EXPAND: enlarge each cube into a prime, absorbing others."""

from __future__ import annotations

from typing import List, Optional

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover, CoverColumns


def expand_cover(cover: Cover, off: Cover) -> Cover:
    """Expand every cube of ``cover`` against the OFF-set ``off``.

    Primary goal (as in Espresso-II): grow each cube so that it swallows as
    many other cubes of the cover as possible, shrinking the cover's
    cardinality.  Secondary goal: raise remaining literals until the cube is
    prime.  The cover's function can only grow, never beyond ON∪DC (every
    expansion step is checked against the OFF-set).
    """
    order = sorted(
        range(len(cover.cubes)), key=lambda i: (cover.cubes[i].num_dc(), cover.cubes[i].inbits)
    )
    off_columns = off.columns()
    cubes: List[Optional[Cube]] = list(cover.cubes)
    for idx in order:
        cube = cubes[idx]
        if cube is None:
            continue
        cube = _expand_one(cube, idx, cubes, off_columns)
        cubes[idx] = cube
    out = Cover(cover.n_inputs, (), cover.n_outputs)
    out.cubes = [c for c in cubes if c is not None]
    return out


def _expand_one(cube: Cube, idx: int, cubes: List[Optional[Cube]], off: CoverColumns) -> Cube:
    # Phase 1: greedily absorb whole cubes ("feasibly covered" in Espresso).
    while True:
        best_j = None
        best_gain = 0
        best_sup = None
        for j, other in enumerate(cubes):
            if other is None or j == idx or cube.contains(other):
                continue
            sup = cube.supercube(other)
            if off.meeting(sup.inbits):
                continue
            gain = sum(
                1
                for k, d in enumerate(cubes)
                if d is not None and k != idx and sup.contains(d)
            )
            if gain > best_gain:
                best_gain, best_j, best_sup = gain, j, sup
        if best_sup is None:
            break
        cube = best_sup
        for k in range(len(cubes)):
            if k != idx and cubes[k] is not None and cube.contains(cubes[k]):
                cubes[k] = None
    # Phase 2: raise single literals until prime.
    inbits = off.raise_to_prime(cube.inbits)
    return Cube(cube.n_inputs, inbits, cube.outbits, cube.n_outputs)
