"""Scalar reference for the Theorem 2.11 verifier of ``repro.hazards.verify``.

:func:`repro.hazards.verify.verify_hazard_free_cover` runs on
:class:`repro.cubes.cover.CoverColumns` bitsets: one meeting or containment
mask per cover, required or privileged cube.  This module keeps the
original loops over pairs of ``Cube`` objects — OFF x cover per output,
required x cover, privileged x cover — as the oracle the differential in
``tests/test_verify_columns.py`` compares against.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from typing import List

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.hazards.dhf import illegally_intersects
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.verify import HazardFreeViolation


def verify_hazard_free_cover(
    instance: HazardFreeInstance, cover: Cover, collect_all: bool = False
) -> List[HazardFreeViolation]:
    """All Theorem 2.11 violations of ``cover`` (empty list = hazard-free).

    With ``collect_all`` false (default) the check stops at the first
    violation of each condition per output, which is cheaper on large
    instances; the returned list is still empty exactly when the cover is a
    valid hazard-free cover.
    """
    violations: List[HazardFreeViolation] = []

    # (a) OFF-set disjointness per output.
    for j in range(instance.n_outputs):
        off_j = instance.off_for_output(j)
        for c in cover:
            if not c.has_output(j):
                continue
            for o in off_j:
                if c.intersects_input(o):
                    violations.append(
                        HazardFreeViolation(
                            "off-intersection",
                            j,
                            c,
                            o,
                            f"cover cube {c.input_string()} meets OFF cube "
                            f"{o.input_string()}",
                        )
                    )
                    if not collect_all:
                        break
            else:
                continue
            if not collect_all:
                break

    # (b) required-cube containment.
    for q in instance.required_cubes():
        contained = any(
            c.has_output(q.output) and c.contains_input(q.cube) for c in cover
        )
        if not contained:
            violations.append(
                HazardFreeViolation(
                    "uncovered-required",
                    q.output,
                    q.cube,
                    None,
                    f"required cube {q.cube.input_string()} not contained in "
                    "any cover cube",
                )
            )
            if not collect_all:
                break

    # (c) no illegal intersections.
    outer_done = False
    for p in instance.privileged_cubes():
        for c in cover:
            if not c.has_output(p.output):
                continue
            if illegally_intersects(Cube(c.n_inputs, c.inbits, 1, 1), p):
                violations.append(
                    HazardFreeViolation(
                        "illegal-intersection",
                        p.output,
                        c,
                        p.cube,
                        f"cover cube {c.input_string()} illegally intersects "
                        f"privileged cube {p.cube.input_string()} "
                        f"(start {p.start.input_string()})",
                    )
                )
                if not collect_all:
                    outer_done = True
                    break
        if outer_done:
            break
    return violations
