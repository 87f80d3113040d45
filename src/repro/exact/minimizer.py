"""The exact hazard-free minimizer: all primes → dhf-primes → MINCOV."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cubes.cover import Cover
from repro.espresso.primes import PrimeExplosionError
from repro.exact.dhf_primes import (
    DhfTransformExplosionError,
    instance_primes,
    transform_to_dhf_primes,
)
from repro.guard.errors import NoSolutionError
from repro.hazards.instance import HazardFreeInstance, RequiredCube
from repro.mincov import solve_mincov, CoveringExplosionError


class ExactFailure(RuntimeError):
    """The exact flow failed in one of its three exponential stages.

    ``stage`` is ``"primes"``, ``"transform"`` or ``"covering"`` — matching
    the three failure modes the paper reports for stetson-p1, cache-ctrl and
    pscsi-pscsi respectively.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(f"exact minimizer failed in stage '{stage}': {message}")
        self.stage = stage


@dataclass
class ExactBudget:
    """Stage budgets for the exact flow (``None`` = unbounded)."""

    prime_limit: Optional[int] = None
    transform_limit: Optional[int] = None
    covering_node_limit: Optional[int] = None
    #: overall wall-clock budget; checked between stages
    time_limit_s: Optional[float] = None


@dataclass
class ExactHFResult:
    """Outcome of an exact run.

    ``status`` distinguishes the two *answers* the exact flow can give:

    ``"ok"``
        a minimum-cardinality hazard-free cover was found (``cover`` set);
    ``"no_solution"``
        Theorem 4.1 failed — some required cube is covered by no dhf-prime
        implicant, so no hazard-free cover exists (``cover`` is ``None``,
        ``failures`` lists every such required cube and ``detail`` is the
        message of the heuristic's :class:`~repro.guard.errors.NoSolutionError`
        for them).

    Budget exhaustion is *not* a status: a stage blowing its budget still
    raises :class:`ExactFailure`, because "too expensive to answer" is a
    property of the budget, not of the instance.
    """

    cover: Optional[Cover]
    num_primes: int
    num_dhf_primes: int
    runtime_s: float
    phase_seconds: dict = field(default_factory=dict)
    status: str = "ok"
    detail: str = ""
    failures: List[RequiredCube] = field(default_factory=list)

    @property
    def num_cubes(self) -> int:
        return 0 if self.cover is None else len(self.cover)


def exact_hazard_free_minimize(
    instance: HazardFreeInstance,
    budget: Optional[ExactBudget] = None,
    heuristic_cover: bool = False,
) -> ExactHFResult:
    """Minimum-cardinality hazard-free cover via the exact flow.

    Raises :class:`ExactFailure` when a stage budget is exceeded; an
    unsolvable instance is an *answer*, not a failure — the result comes
    back with ``status="no_solution"`` and ``cover=None`` (the CLI maps
    that to exit code 2, see docs/FAILURES.md).  With ``heuristic_cover``
    the covering stage runs MINCOV's greedy mode (then the result is not
    guaranteed minimum).
    """
    budget = budget or ExactBudget()
    phases = {}
    t_start = time.perf_counter()
    deadline = (
        t_start + budget.time_limit_s if budget.time_limit_s is not None else None
    )

    t0 = time.perf_counter()
    try:
        primes = instance_primes(
            instance, limit=budget.prime_limit, deadline=deadline
        )
    except PrimeExplosionError as exc:
        raise ExactFailure("primes", str(exc)) from exc
    phases["primes"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        dhf_primes = transform_to_dhf_primes(
            primes, instance, limit=budget.transform_limit, deadline=deadline
        )
    except DhfTransformExplosionError as exc:
        raise ExactFailure("transform", str(exc)) from exc
    phases["transform"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    required = instance.required_cubes()
    rows = []
    failures = []
    for q in required:
        cols = [
            j
            for j, p in enumerate(dhf_primes)
            if p.has_output(q.output) and p.contains_input(q.cube)
        ]
        if not cols:
            failures.append(q)
        rows.append(cols)
    if failures:
        phases["covering"] = time.perf_counter() - t0
        return ExactHFResult(
            cover=None,
            num_primes=len(primes),
            num_dhf_primes=len(dhf_primes),
            runtime_s=time.perf_counter() - t_start,
            phase_seconds=phases,
            status="no_solution",
            detail=str(NoSolutionError(instance.name, failures)),
            failures=failures,
        )
    try:
        chosen = solve_mincov(
            rows,
            len(dhf_primes),
            heuristic=heuristic_cover,
            node_limit=budget.covering_node_limit,
        )
    except CoveringExplosionError as exc:
        raise ExactFailure("covering", str(exc)) from exc
    phases["covering"] = time.perf_counter() - t0
    assert chosen is not None

    cover = Cover(instance.n_inputs, (), instance.n_outputs)
    for j in sorted(chosen):
        cover.append(dhf_primes[j])
    return ExactHFResult(
        cover=cover,
        num_primes=len(primes),
        num_dhf_primes=len(dhf_primes),
        runtime_s=time.perf_counter() - t_start,
        phase_seconds=phases,
    )
