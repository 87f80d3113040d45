"""The pass manager: one engine for both minimizers' phase loops.

:class:`PassManager` executes a declarative pipeline spec (a sequence of
:class:`~repro.pipeline.base.Step` / :class:`~repro.pipeline.base.Group` /
:class:`~repro.pipeline.base.FixedPoint` nodes) against a mutable state,
timing every pass itself and applying the cross-cutting hooks uniformly
around it:

1. **timing** — one ``perf_counter`` pair per pass, recorded by the
   manager and nowhere else: the seconds go to ``state.phase_seconds``,
   the pass name to ``state.executed_passes``, and ``passes_executed`` on
   the context's :class:`~repro.perf.PerfCounters` is bumped; every
   other timing view (reports, metrics, the regression gate) is read from
   ``state.phase_seconds``;
2. **snapshots** — best-verified-cover capture after each pass
   (:class:`~repro.pipeline.hooks.SnapshotHook`);
3. **trace** — phase-boundary lines
   (:class:`~repro.pipeline.hooks.TraceHook`);
4. **invariants** — checked-mode Theorem 2.11 checkpoints
   (:class:`repro.guard.invariants.InvariantCheckHook`);
5. **budget** — per-round iteration charging
   (:class:`repro.guard.budget.BudgetChargeHook`).

When a tracer is active (:func:`repro.obs.current_tracer`), drivers append
a sixth, opt-in hook: **spans** — one structured span per pass / group /
fixed point (:class:`repro.obs.hook.ObsHook`), fed by the extended,
always-paired structural events this manager dispatches (see
:mod:`repro.pipeline.hooks`).

Budget exhaustion is handled here, once, instead of in every driver: a
:class:`~repro.guard.errors.BudgetExceeded` raised anywhere inside the
pipeline is caught, the state degrades to its best snapshot with
``status="budget_exceeded"``, and the run finishes normally.  While no
snapshot exists yet (e.g. canonicalization has not produced a first valid
cover) the exception propagates — exactly the pre-pipeline driver
contract.  :class:`~repro.guard.errors.NoSolutionError` and
:class:`~repro.guard.errors.InvariantViolation` always propagate: they are
properties of the input and of the implementation, not of the budget.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence

from repro.guard.errors import BudgetExceeded
from repro.pipeline.base import FixedPoint, Group, Node, Step
from repro.pipeline.hooks import Hook, SnapshotHook, TraceHook


def default_hooks() -> List[Hook]:
    """The standard hook stack, in application order.

    Order matters and mirrors the pre-pipeline drivers: snapshot capture
    first (so a later invariant failure still leaves a valid ``best``),
    then trace, invariants, and budget charging last.  Timing is not a
    hook: the manager records it before any hook sees the pass.
    """
    from repro.guard.budget import BudgetChargeHook
    from repro.guard.invariants import InvariantCheckHook

    return [
        SnapshotHook(),
        TraceHook(),
        InvariantCheckHook(),
        BudgetChargeHook(),
    ]


class PassManager:
    """Executes a pipeline spec with a uniform hook stack."""

    def __init__(self, hooks: Optional[Sequence[Hook]] = None):
        self.hooks = list(hooks) if hooks is not None else default_hooks()

    def run(self, nodes: Sequence[Node], state: Any) -> Any:
        """Run the whole pipeline; returns the (mutated) state.

        Degrades to ``state.best`` on budget exhaustion once a snapshot
        exists; re-raises while none does (no valid cover yet).
        """
        try:
            self._run_sequence(nodes, state)
        except BudgetExceeded as exc:
            if state.best is None:
                raise
            state.status = "budget_exceeded"
            state.on_budget_exceeded(exc)
            state.trace.append(
                f"budget-exceeded:{exc.reason}@{exc.phase or '?'}"
            )
        return state

    # ------------------------------------------------------------------

    def _run_sequence(self, nodes: Sequence[Node], state: Any) -> None:
        for node in nodes:
            if state.stop:
                return
            if isinstance(node, Step):
                self._run_step(node, state)
            elif isinstance(node, Group):
                if node.enabled is None or node.enabled(state):
                    for hook in self.hooks:
                        hook.group_started(node, state)
                    try:
                        self._run_sequence(node.body, state)
                    finally:
                        for hook in self.hooks:
                            hook.group_finished(node, state)
            elif isinstance(node, FixedPoint):
                self._run_fixed_point(node, state)
            else:  # pragma: no cover - spec construction error
                raise TypeError(f"not a pipeline node: {node!r}")

    def _run_step(self, step: Step, state: Any) -> None:
        if step.enabled is not None and not step.enabled(state):
            return
        for hook in self.hooks:
            hook.pass_started(step, state)
        t0 = time.perf_counter()
        returned = step.pass_.run(state)
        seconds = time.perf_counter() - t0
        if returned is not None and returned is not state:
            raise TypeError(
                f"pass {step.name!r} returned a new state object; passes "
                "must mutate and return the state they were given"
            )
        name = step.name
        state.phase_seconds[name] = state.phase_seconds.get(name, 0.0) + seconds
        state.executed_passes.append(name)
        perf = getattr(state.ctx, "perf", None)
        if perf is not None:
            perf.passes_executed += 1
        for hook in self.hooks:
            hook.pass_finished(step, state, seconds)

    def _run_fixed_point(self, fp: FixedPoint, state: Any) -> None:
        if fp.enabled is not None and not fp.enabled(state):
            return
        measure = fp.measure if fp.measure is not None else type(state).measure
        if fp.track_convergence:
            state.converged = False
        rounds = 0
        for hook in self.hooks:
            hook.fixed_point_started(fp, state)
        try:
            while fp.max_rounds is None or rounds < fp.max_rounds:
                size_before = measure(state)
                self._run_sequence(fp.body, state)
                rounds += 1
                if fp.charge:
                    state.iterations += 1
                    for hook in self.hooks:
                        hook.round_finished(fp, state)
                if state.stop:
                    return
                if measure(state) >= size_before:
                    if fp.track_convergence:
                        state.converged = True
                    break
        finally:
            for hook in self.hooks:
                hook.fixed_point_exited(fp, state, rounds)
        for hook in self.hooks:
            hook.fixed_point_finished(fp, state, rounds)
        if fp.track_convergence and not state.converged:
            # Exhausting the round cap without a non-shrinking round means
            # convergence was never demonstrated; surface it instead of
            # posing as a converged minimum.
            if state.status == "ok":
                state.status = "degraded"
            if fp.exhausted_message:
                state.trace.append(fp.exhausted_message)
