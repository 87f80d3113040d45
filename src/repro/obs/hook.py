"""The observability hook: pipeline events → structured spans.

:class:`ObsHook` plugs into the :class:`~repro.pipeline.manager.PassManager`
hook stack and turns every pipeline node application into a span on the
run's :class:`~repro.obs.span.Tracer`:

* ``pass:<name>`` for each :class:`~repro.pipeline.base.Step`;
* ``group:<name>`` / ``fixedpoint:<name>`` around the structural nodes —
  these use the structural hook events (``group_started``,
  ``group_finished``, ``fixed_point_started``, ``fixed_point_exited``),
  which every :class:`~repro.pipeline.hooks.Hook` inherits as no-ops.
  They are *always paired* (dispatched in ``finally`` blocks), unlike
  ``fixed_point_finished``, which is skipped on cooperative early stops —
  pairing is what keeps the span stack consistent.

Pass spans carry the attributes the ISSUE calls out: cover size and
measure after the pass, budget consumption so far, and the deltas of the
hot-path :class:`~repro.perf.PerfCounters` across the pass (what *this*
pass cost, not the running totals).  The manager runs nodes strictly
nested and sequentially, so the tracer's open-span stack mirrors the
pipeline structure exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.span import Span, Tracer
from repro.pipeline.hooks import Hook

#: PerfCounters fields whose per-pass deltas are attached to pass spans
DELTA_FIELDS: Tuple[str, ...] = (
    "supercube_calls",
    "supercube_cache_hits",
    "expand_probes",
    "coverage_masks_built",
    "mincov_nodes",
)


class ObsHook(Hook):
    """Emit one span per pipeline node application."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (span, perf-counter snapshot) per open pass, innermost last
        self._passes: List[Tuple[Span, Dict[str, int]]] = []
        self._structural: List[Span] = []

    # -- pass spans ------------------------------------------------------

    def pass_started(self, step, state) -> None:
        span = self.tracer.start(f"pass:{step.name}")
        self._passes.append((span, self._perf_snapshot(state)))

    def pass_finished(self, step, state, seconds: float) -> None:
        span, before = self._passes.pop()
        attrs: Dict[str, Any] = {
            "cover_size": state.cover_size(),
            "measure": state.measure(),
        }
        after = self._perf_snapshot(state)
        for field in DELTA_FIELDS:
            attrs[f"d_{field}"] = after.get(field, 0) - before.get(field, 0)
        budget = state.budget
        if budget is not None:
            attrs["budget_checkpoints"] = budget.checkpoints
            attrs["budget_iterations"] = budget.iterations
        self.tracer.finish(span, **attrs)

    # -- structural spans ------------------------------------------------

    def group_started(self, group, state) -> None:
        self._structural.append(self.tracer.start(f"group:{group.name}"))

    def group_finished(self, group, state) -> None:
        # unwind, not finish: an exception escaping a pass inside the
        # group leaves that pass's span open (pass_finished never fires).
        self.tracer.unwind(
            self._structural.pop(), cover_size=state.cover_size()
        )

    def fixed_point_started(self, fixed_point, state) -> None:
        self._structural.append(
            self.tracer.start(f"fixedpoint:{fixed_point.name}")
        )

    def fixed_point_exited(self, fixed_point, state, rounds: int) -> None:
        self.tracer.unwind(
            self._structural.pop(),
            rounds=rounds,
            cover_size=state.cover_size(),
        )

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _perf_snapshot(state) -> Dict[str, int]:
        perf = getattr(state.ctx, "perf", None) if state.ctx is not None else None
        if perf is None:
            return {}
        return {field: getattr(perf, field) for field in DELTA_FIELDS}
