"""Guarded execution runtime for the hazard-free minimizer.

The guard package wraps the Espresso-HF engine with the operational
guarantees a long batch run needs:

* :mod:`repro.guard.budget` — cooperative run budgets (wall-clock deadline
  plus deterministic iteration/checkpoint caps) with graceful degradation;
* :mod:`repro.guard.invariants` — opt-in phase-boundary invariant
  checkpoints (Theorem 2.11) and the scalar-vs-bitset coverage
  cross-check, with automatic fallback to the scalar engine;
* :mod:`repro.guard.bundle` / :mod:`repro.guard.shrink` — self-contained,
  delta-debugged failure repro bundles under ``artifacts/``;
* :mod:`repro.guard.runner` — the crash-isolated process scheduler
  (:func:`run_isolated`) with per-item timeouts and structured status
  rows, over the per-slot worker processes of :mod:`repro.guard.workers`;
* :mod:`repro.guard.errors` — the error taxonomy (:class:`HFError` and
  friends) with CLI exit codes.

``errors``, ``budget`` and ``invariants`` are imported eagerly — the core
engine depends on them.  The higher layers (``bundle``, ``shrink``,
``runner``, ``fuzz``) import the engine back, so they are exposed lazily
(PEP 562) to keep ``repro.hf.context -> repro.guard.budget`` cycle-free.
"""

from repro.guard.budget import RunBudget
from repro.guard.errors import (
    BudgetExceeded,
    HFError,
    InvariantViolation,
    MalformedInstance,
    NoSolutionError,
    WorkerCrashed,
)

__all__ = [
    "RunBudget",
    "HFError",
    "NoSolutionError",
    "BudgetExceeded",
    "InvariantViolation",
    "MalformedInstance",
    "WorkerCrashed",
    # lazy (PEP 562):
    "ReproBundle",
    "write_bundle",
    "load_bundle",
    "replay_bundle",
    "probe_failure",
    "shrink_instance",
    "guarded_espresso_hf",
    "run_isolated",
    "run_one",
    "run_batch",
    "run_pool",
    "benchmark_payload",
    "pla_payload",
]

_LAZY = {
    "ReproBundle": "repro.guard.bundle",
    "write_bundle": "repro.guard.bundle",
    "load_bundle": "repro.guard.bundle",
    "replay_bundle": "repro.guard.bundle",
    "probe_failure": "repro.guard.bundle",
    "shrink_instance": "repro.guard.shrink",
    "guarded_espresso_hf": "repro.guard.runner",
    "run_isolated": "repro.guard.runner",
    "run_one": "repro.guard.runner",
    "run_batch": "repro.guard.runner",
    "run_pool": "repro.guard.runner",
    "benchmark_payload": "repro.guard.runner",
    "pla_payload": "repro.guard.runner",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
