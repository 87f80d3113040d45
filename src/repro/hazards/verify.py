"""Hazard-free cover verification: the Theorem 2.11 checker.

Given an instance and a candidate multi-output cover, checks the three
conditions of the Hazard-Free Covering theorem:

  (a) no cube of the cover intersects the OFF-set of its outputs;
  (b) every required cube is contained in some single cube of the cover
      (with a matching output);
  (c) no cube intersects a privileged cube of one of its outputs illegally.

This is the library's ground-truth oracle: every minimizer's result is
checked against it in the test suite and the benchmark harness, and the
gate-level simulators in :mod:`repro.simulate` provide an independent
dynamic cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.hazards.instance import HazardFreeInstance


@dataclass(frozen=True)
class HazardFreeViolation:
    """One violated condition of Theorem 2.11."""

    condition: str  # "off-intersection" | "uncovered-required" | "illegal-intersection"
    output: int
    cube: Optional[Cube] = None
    other: Optional[Cube] = None
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.condition}@out{self.output}: {self.detail}"


def verify_hazard_free_cover(
    instance: HazardFreeInstance, cover: Cover, collect_all: bool = False
) -> List[HazardFreeViolation]:
    """All Theorem 2.11 violations of ``cover`` (empty list = hazard-free).

    With ``collect_all`` false (default) the check reports at most one
    OFF-set violation per output and stops at the first uncovered required
    cube and at the first illegal intersection, which is cheaper on large
    instances; the returned list is still empty exactly when the cover is a
    valid hazard-free cover.  Raises ``ValueError`` when the cover's shape
    differs from the instance's.

    Each condition is a mask over the cover's columns, with one bit per
    cover cube; walking its set bits low to high visits the cubes in cover
    order.
    """
    if (cover.n_inputs, cover.n_outputs) != (instance.n_inputs, instance.n_outputs):
        raise ValueError(
            f"cover shape ({cover.n_inputs},{cover.n_outputs}) does not match "
            f"instance shape ({instance.n_inputs},{instance.n_outputs})"
        )
    violations: List[HazardFreeViolation] = []
    cols = cover.columns()
    cubes = cover.cubes

    # (a) OFF-set disjointness per output: the OFF cubes of output j that
    # each cover cube of output j meets.
    off = instance.off_columns
    for j in range(instance.n_outputs):
        off_j = off.by_output[j]
        rows = cols.by_output[j] if off_j else 0
        while rows:
            low = rows & -rows
            rows ^= low
            c = cubes[low.bit_length() - 1]
            hit = off.meeting(c.inbits) & off_j
            while hit:
                bit = hit & -hit
                hit ^= bit
                o = Cube(instance.n_inputs, off.cubes[bit.bit_length() - 1].inbits)
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
                    rows = 0
                    break

    # (b) required-cube containment: the cover cubes of the required
    # cube's output that contain it.
    for q in instance.required_cubes():
        if not cols.containing(q.cube.inbits) & cols.by_output[q.output]:
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

    # (c) no illegal intersections: the cover cubes of the privileged
    # cube's output that meet it without containing its start point.
    for p in instance.privileged_cubes():
        hit = (
            cols.meeting(p.cube.inbits)
            & ~cols.containing(p.start.inbits)
            & cols.by_output[p.output]
        )
        while hit:
            bit = hit & -hit
            hit ^= bit
            c = cubes[bit.bit_length() - 1]
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
                return violations
    return violations


def is_hazard_free_cover(instance: HazardFreeInstance, cover: Cover) -> bool:
    """Convenience wrapper: True iff Theorem 2.11 holds for the cover."""
    return not verify_hazard_free_cover(instance, cover)
