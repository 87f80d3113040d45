"""Dhf-implicants and the ``supercube_dhf`` operator (paper §3.2, Figure 6).

A *dhf-implicant* is an implicant that intersects no privileged cube
illegally (Definition 2.12).  ``supercube_dhf(C)`` is the smallest
dhf-implicant containing the cubes of ``C`` (Definition 3.1): repeatedly
absorb the start point of any illegally intersected privileged cube; the
result is unique because each absorption is forced.  If the grown cube ever
meets the OFF-set, no dhf-implicant containing ``C`` exists.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.cubes.operations import supercube_of
from repro.hazards.instance import PrivilegedCube


def illegally_intersects(cube: Cube, privileged: PrivilegedCube) -> bool:
    """True iff ``cube`` meets the privileged cube without its start point.

    Operates on input parts; callers must pre-filter privileged cubes to the
    output(s) the cube participates in.
    """
    return cube.intersects_input(privileged.cube) and not cube.contains_input(
        privileged.start
    )


def is_dhf_implicant(
    cube: Cube, privileged: Sequence[PrivilegedCube], off: Optional[Cover] = None
) -> bool:
    """True iff ``cube`` is a dhf-implicant w.r.t. the given privileged cubes.

    When ``off`` is provided, implicant-ness (OFF-set disjointness) is
    checked as well.
    """
    if off is not None and any(cube.intersects_input(o) for o in off):
        return False
    return not any(illegally_intersects(cube, p) for p in privileged)


def supercube_dhf(
    cubes: Iterable[Cube],
    privileged: Sequence[PrivilegedCube],
    off: Cover,
) -> Optional[Cube]:
    """The smallest dhf-implicant containing all of ``cubes`` (Figure 6).

    Returns ``None`` ("undefined") when the forced expansion chain runs into
    the OFF-set.  ``privileged`` must already be restricted to the relevant
    output; ``off`` is that output's OFF cover.
    """
    r = supercube_of(cubes)
    if r is None:
        raise ValueError("supercube_dhf of an empty cube collection")
    changed = True
    while changed:
        changed = False
        for p in privileged:
            if illegally_intersects(r, p):
                r = r.supercube(p.start)
                changed = True
    if any(r.intersects_input(o) for o in off):
        return None
    return r
