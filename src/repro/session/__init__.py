"""First-class minimization sessions: identical-resubmit short-circuits.

A :class:`MinimizationSession` is the explicit, serializable form of a
finished run — the final cover, the pipeline's best-verified snapshot,
the derived-set signature of the producing instance, and the canonical
key from :mod:`repro.serve.canon` — behind a stable capture/restore
protocol (``to_dict`` / ``from_dict`` / ``save`` / ``load``).

On top of it sits the warm-start planner (:func:`plan_warm_start`), which
``espresso_hf(warm_start=session)`` consults to decide between an
*identical* short-circuit (equal :func:`signature_of` values: the stored
cover is re-verified and returned) and a *cold* run.  See
``docs/WARMSTART.md`` for the session format and the soundness argument.
"""

from repro.session.session import (
    SESSION_VERSION,
    MinimizationSession,
    capture_session,
    signature_of,
)
from repro.session.warm import WarmStartPlan, plan_warm_start

__all__ = [
    "SESSION_VERSION",
    "MinimizationSession",
    "capture_session",
    "signature_of",
    "WarmStartPlan",
    "plan_warm_start",
]
