"""The hook protocol of the :class:`PassManager`, and its stock hooks.

Every hook subclasses :class:`Hook`.  A hook observes pipeline execution
through four events; every method has a no-op default so hooks implement
only what they need:

``pass_started(step, state)``
    before a pass body runs;
``pass_finished(step, state, seconds)``
    after a pass body returned (``seconds`` is its wall time, already
    added to ``state.phase_seconds`` by the manager);
``round_finished(fixed_point, state)``
    after each *charged* round of a :class:`~repro.pipeline.base.FixedPoint`;
``fixed_point_finished(fixed_point, state, rounds)``
    after a fixed point exits *normally* (skipped on a cooperative
    ``state.stop``, preserved for backward compatibility).

Beyond those four, the manager dispatches *extended* structural events —
``group_started(group, state)`` / ``group_finished(group, state)`` and
``fixed_point_started(fixed_point, state)`` /
``fixed_point_exited(fixed_point, state, rounds)`` — which are always
paired (``finally``-dispatched), even when the body stops early or raises.
They exist for observers that must mirror the pipeline's structure
exactly, like the span tracer (:class:`repro.obs.hook.ObsHook`).

Pass timing is not a hook: the manager records each pass's seconds once
(see :mod:`repro.pipeline.manager`).  The hooks here are engine-agnostic
(snapshots, trace).  The guarded-runtime hooks — budget charging and
checked-mode invariants — live with the policies they apply: :class:`repro.guard.budget.BudgetChargeHook`
and :class:`repro.guard.invariants.InvariantCheckHook`.  The span-tracing
hook lives with the observability layer: :class:`repro.obs.hook.ObsHook`.
"""

from __future__ import annotations

from typing import Any

from repro.pipeline.base import FixedPoint, Step


class Hook:
    """Base class: all events default to no-ops."""

    def pass_started(self, step: Step, state: Any) -> None:
        pass

    def pass_finished(self, step: Step, state: Any, seconds: float) -> None:
        pass

    def round_finished(self, fixed_point: FixedPoint, state: Any) -> None:
        pass

    def fixed_point_finished(
        self, fixed_point: FixedPoint, state: Any, rounds: int
    ) -> None:
        pass

    # -- extended structural events (always paired, see module docstring)

    def group_started(self, group: Any, state: Any) -> None:
        pass

    def group_finished(self, group: Any, state: Any) -> None:
        pass

    def fixed_point_started(self, fixed_point: FixedPoint, state: Any) -> None:
        pass

    def fixed_point_exited(
        self, fixed_point: FixedPoint, state: Any, rounds: int
    ) -> None:
        pass


class SnapshotHook(Hook):
    """Capture the best-verified cover snapshot after each pass.

    Every operator of both minimizers preserves cover validity, so the
    state after any pass is a safe point to degrade to when the budget
    runs out mid-phase later on.  States that return ``None`` from
    ``snapshot_cubes`` (e.g. the Espresso-II baseline, which has no guard
    runtime) opt out.
    """

    def pass_finished(self, step: Step, state: Any, seconds: float) -> None:
        if not step.snapshot:
            return
        snap = state.snapshot_cubes()
        if snap is not None:
            state.best = snap


class TraceHook(Hook):
    """Emit one phase-trace line per recorded pass and fixed point."""

    def pass_finished(self, step: Step, state: Any, seconds: float) -> None:
        if step.record:
            state.record_pass(step.name)

    def fixed_point_finished(
        self, fixed_point: FixedPoint, state: Any, rounds: int
    ) -> None:
        state.trace.append(
            f"{fixed_point.name}:rounds={rounds}:|F|={state.cover_size()}"
        )
