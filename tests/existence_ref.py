"""Scalar reference for the Theorem 4.1 existence check.

:func:`repro.hazards.existence.existence_report` is a view over the
minimizer's dhf-canonicalization
(:meth:`repro.hf.context.HFContext.canonical_required`), which runs the
memoized bitmask ``supercube_dhf`` over each output's maximal OFF cubes.
This module keeps the original loop — one scalar
:func:`repro.hazards.dhf.supercube_dhf` per required cube, on ``Cube``
objects — as the oracle the differential in
``tests/test_existence_ref.py`` compares against.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cubes.cube import Cube
from repro.hazards.dhf import supercube_dhf
from repro.hazards.instance import HazardFreeInstance, RequiredCube


@dataclass
class ExistenceReport:
    """Outcome of the Theorem 4.1 existence check."""

    exists: bool
    #: required cubes whose dhf-supercube is undefined (empty iff exists)
    failures: List[RequiredCube] = field(default_factory=list)
    #: per-required-cube canonical expansions (for diagnostics)
    canonical: List[Tuple[RequiredCube, Optional[Cube]]] = field(default_factory=list)


def existence_report(instance: HazardFreeInstance) -> ExistenceReport:
    """Run the existence check, returning canonical cubes and failures."""
    failures: List[RequiredCube] = []
    canonical: List[Tuple[RequiredCube, Optional[Cube]]] = []
    priv_by_output = {
        j: instance.privileged_for_output(j) for j in range(instance.n_outputs)
    }
    for q in instance.required_cubes():
        sup = supercube_dhf(
            [q.cube], priv_by_output[q.output], instance.off_for_output(q.output)
        )
        canonical.append((q, sup))
        if sup is None:
            failures.append(q)
    return ExistenceReport(exists=not failures, failures=failures, canonical=canonical)


def hazard_free_solution_exists(instance: HazardFreeInstance) -> bool:
    """True iff the instance admits a hazard-free cover (Theorem 4.1)."""
    return existence_report(instance).exists
