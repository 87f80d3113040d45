"""Unified pass-pipeline framework for the minimizer drivers.

One :class:`PassManager` runs both minimizers:

* :func:`repro.hf.espresso_hf` executes the paper's Figure 2 algorithm as
  a declarative spec (canonicalize → essentials → [reduce, expand,
  irredundant]* → last_gasp → make_prime → final_irredundant) built by
  :func:`repro.hf.espresso_hf.build_hf_pipeline`;
* :func:`repro.espresso.espresso` runs the Espresso-II baseline loop on
  the same engine.

The manager times each pass itself (one record per pass, in
``state.phase_seconds``) and applies every other cross-cutting concern
uniformly around it through its hooks: run-budget charging,
best-verified-snapshot capture, checked-mode invariant checkpoints, and
trace emission.  See
:mod:`repro.pipeline.base` for the spec vocabulary and
:mod:`repro.pipeline.manager` for execution semantics.
"""

from repro.pipeline.base import (
    FixedPoint,
    Group,
    Pass,
    PipelineState,
    Step,
    flatten_pass_names,
    map_passes,
)
from repro.pipeline.hooks import Hook, SnapshotHook, TraceHook
from repro.pipeline.manager import PassManager, default_hooks

__all__ = [
    "FixedPoint",
    "Group",
    "Hook",
    "Pass",
    "PassManager",
    "PipelineState",
    "SnapshotHook",
    "Step",
    "TraceHook",
    "default_hooks",
    "flatten_pass_names",
    "map_passes",
]
