"""Espresso-II LAST_GASP: escape local minima with independent reductions."""

from __future__ import annotations

from typing import List, Optional

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.espresso.irredundant import irredundant_cover
from repro.espresso.reduce_ import max_reduce


def last_gasp(cover: Cover, dc: Optional[Cover], off: Cover) -> Cover:
    """Try one more cover-size reduction after the inner loop converges.

    Every cube is *independently* maximally reduced (against all the other
    original cubes, not the partially reduced ones).  If the supercube of two
    reduced cubes is OFF-free, that merged prime can replace both; all such
    candidates are added and IRREDUNDANT picks a smaller cover if one exists.
    """
    reduced: List[Cube] = []
    for idx, cube in enumerate(cover.cubes):
        others = Cover(cover.n_inputs, (), cover.n_outputs)
        others.cubes = [c for k, c in enumerate(cover.cubes) if k != idx]
        if dc is not None:
            others.cubes = others.cubes + list(dc.cubes)
        r = max_reduce(cube, others)
        if r is not None:
            reduced.append(r)
    off_columns = off.columns()
    candidates: List[Cube] = []
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            sup = reduced[i].supercube(reduced[j])
            if not off_columns.meeting(sup.inbits):
                inbits = off_columns.raise_to_prime(sup.inbits)
                candidates.append(Cube(sup.n_inputs, inbits, sup.outbits, sup.n_outputs))
    if not candidates:
        return cover
    trial = cover.copy()
    trial.extend(candidates)
    trial = irredundant_cover(trial.deduplicate(), dc)
    return trial if len(trial) < len(cover) else cover
