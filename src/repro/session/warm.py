"""Warm-start planning: identical short-circuit, or cold.

Given a stored :class:`~repro.session.MinimizationSession` and the newly
submitted instance, :func:`plan_warm_start` decides one of two modes:

``identical``
    The ordered signatures and the cover-shaping options are equal — the
    minimizer cannot distinguish the runs, so the session cover *is* the
    cold cover.  The cover is still re-verified with the Theorem 2.11
    checker (defence against corrupt or hand-edited sessions) and the plan
    falls back cold on a violation.
``cold``
    Anything else — an edit, other options, a budget, a shape or version
    mismatch, a session that failed verification: run as if no session
    existed, so the cover is the cold cover by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cubes.cover import Cover
from repro.cubes.cube import Cube
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.verify import verify_hazard_free_cover
from repro.session.session import (
    SESSION_VERSION,
    MinimizationSession,
    options_record,
    signature_of,
)


@dataclass
class WarmStartPlan:
    """Outcome of warm-start planning (see module docstring)."""

    mode: str  # "identical" | "cold"
    reasons: List[str] = field(default_factory=list)
    #: session cover, re-verified hazard-free on the instance — the
    #: identical-mode result; None on a cold plan
    seed: Optional[List[Cube]] = None


def plan_warm_start(
    session: MinimizationSession,
    instance: HazardFreeInstance,
    options=None,
) -> WarmStartPlan:
    """Classify a warm-start attempt against ``instance`` run under
    ``options`` (``None`` = the default options).

    Never raises on bad sessions — every defect downgrades to a cold
    plan with a reason string (surfaced in the run trace).

    A budgeted run always plans cold: a budget that runs out stops the
    cold run at a snapshot the session's converged cover is not, so only
    the cold run can give the budgeted answer.
    """
    if session.version != SESSION_VERSION:
        return WarmStartPlan(
            "cold", [f"session version {session.version} != {SESSION_VERSION}"]
        )
    if session.status != "ok":
        return WarmStartPlan("cold", [f"session status {session.status!r}"])
    if (session.n_inputs, session.n_outputs) != (
        instance.n_inputs,
        instance.n_outputs,
    ):
        return WarmStartPlan(
            "cold",
            [
                f"shape {session.n_inputs}x{session.n_outputs} != "
                f"{instance.n_inputs}x{instance.n_outputs}"
            ],
        )
    if options is not None and options.budget is not None:
        return WarmStartPlan("cold", ["budget set"])
    # A session without recorded options (an older file) never matches.
    if session.options != options_record(options):
        return WarmStartPlan("cold", ["options differ"])
    if session.signature != signature_of(instance):
        return WarmStartPlan("cold", ["signatures differ"])

    # The defensive Theorem 2.11 gate before short-circuiting: a session
    # claiming identity but failing the verifier is corrupt.
    try:
        cubes = session.cover_cubes()
        cover = Cover(instance.n_inputs, cubes, instance.n_outputs)
        violations = verify_hazard_free_cover(instance, cover)
    except (TypeError, ValueError):
        violations = True
    if violations:
        return WarmStartPlan(
            "cold", ["identical signature but cover failed verification"]
        )
    return WarmStartPlan("identical", ["signatures identical"], seed=cubes)
