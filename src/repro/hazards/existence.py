"""Existence of a hazard-free cover (paper §4, Theorem 4.1).

A hazard-free cover exists iff ``supercube_dhf(q)`` is defined for every
required cube ``q``.  Unlike the exact method — which can only decide
existence after generating *all* dhf-prime implicants — this check is a few
forced supercube expansions per required cube.

The decision itself is made in one place, the minimizer's own
dhf-canonicalization (:meth:`repro.hf.context.HFContext.canonical_required`),
which raises :class:`~repro.guard.errors.NoSolutionError` naming every
failing required cube; this module is a view over that call, plus the
JSON row form of the failures that crosses process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.cubes.cube import Cube
from repro.guard.errors import NoSolutionError
from repro.hazards.instance import HazardFreeInstance, RequiredCube
from repro.hazards.transitions import Transition


@dataclass
class ExistenceReport:
    """Outcome of the Theorem 4.1 existence check."""

    exists: bool
    #: required cubes whose dhf-supercube is undefined (empty iff exists)
    failures: List[RequiredCube] = field(default_factory=list)


def existence_report(instance: HazardFreeInstance) -> ExistenceReport:
    """Run the existence check; ``failures`` are in required-cube order."""
    from repro.hf.context import HFContext

    try:
        HFContext(instance).canonical_required()
    except NoSolutionError as exc:
        return ExistenceReport(exists=False, failures=exc.failures)
    return ExistenceReport(exists=True)


def hazard_free_solution_exists(instance: HazardFreeInstance) -> bool:
    """True iff the instance admits a hazard-free cover (Theorem 4.1)."""
    return existence_report(instance).exists


def failure_rows(failures: Sequence[RequiredCube]) -> List[list]:
    """JSON form of failing required cubes: ``[input part, output, start,
    end]`` each, the transition endpoints as 0/1 strings."""
    return [
        [q.cube.input_string(), q.output, _bits(q.transition.start), _bits(q.transition.end)]
        for q in failures
    ]


def failures_from_rows(rows: Sequence[Sequence]) -> List[RequiredCube]:
    """Inverse of :func:`failure_rows`."""
    return [
        RequiredCube(Cube.from_string(cube), output, Transition(_vector(start), _vector(end)))
        for cube, output, start, end in rows
    ]


def _bits(vector: Sequence[int]) -> str:
    return "".join(map(str, vector))


def _vector(bits: str) -> Tuple[int, ...]:
    return tuple(map(int, bits))
