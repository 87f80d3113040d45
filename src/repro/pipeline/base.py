"""Pass protocol and declarative pipeline specs.

Both minimizers in this repository — Espresso-HF (:mod:`repro.hf`) and the
Espresso-II baseline (:mod:`repro.espresso`) — are fixed-point loops over a
small set of phase operators.  This module gives that shape a first-class
representation: a *pipeline* is a sequence of steps, where each step is

:class:`Step`
    one :class:`Pass` application, annotated with the hook behaviour the
    :class:`~repro.pipeline.manager.PassManager` applies around it
    (timing, snapshot capture, trace emission, invariant checks);
:class:`Group`
    a gated sub-sequence (e.g. "the whole minimization loop runs only when
    the cover left after essentials is non-empty");
:class:`FixedPoint`
    a sub-sequence repeated until the state's measure stops shrinking,
    optionally round-capped, budget-charged per round, and
    convergence-tracked (the driver's ``status="degraded"`` reporting).

The spec is *declarative*: drivers build a pipeline from options
(:func:`repro.hf.espresso_hf.build_hf_pipeline`) and hand it to the
manager, which owns every cross-cutting concern.  The design follows the
phase-driven engine style of property-testing shrinkers (see SNIPPETS):
phases are data, the loop around them is one reusable engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - typing nicety only
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 has no Protocol
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class Pass(Protocol):
    """One phase operator: a name plus ``run(state) -> state``.

    Passes mutate the pipeline state in place and return it (the return
    value is what the manager threads forward, so purely functional passes
    work too).  Everything *around* the pass — timing, budget charging,
    best-snapshot capture, checked-mode invariants, trace emission — is the
    manager's job; a pass body contains only the algorithmic phase itself.
    """

    name: str

    def run(self, state: Any) -> Any:  # pragma: no cover - protocol
        ...


#: predicate deciding whether a step/group/fixed point runs for this state
Enabled = Optional[Callable[[Any], bool]]


@dataclass
class Step:
    """One pass application plus its hook configuration.

    Attributes
    ----------
    pass_:
        The :class:`Pass` to run.
    record:
        Emit a phase-trace line after the pass (``"<name>:|F|=<size>"``).
    snapshot:
        Capture the state's best-verified snapshot after the pass.  Every
        operator of both minimizers preserves cover validity, so the
        default is on; turn it off only for passes whose intermediate
        state is not a valid cover.
    check:
        Run the checked-mode invariant checkpoint after the pass.
    check_cubes / check_reqs:
        What the invariant checkpoint verifies: the cover cubes and the
        required cubes they must keep covering.  ``None`` falls back to
        the hook's defaults (``state.f`` / skip).
    enabled:
        Gate: the step is skipped when this returns false.
    """

    pass_: Pass
    record: bool = True
    snapshot: bool = True
    check: bool = True
    check_cubes: Optional[Callable[[Any], Sequence]] = None
    check_reqs: Optional[Callable[[Any], Sequence]] = None
    enabled: Enabled = None

    @property
    def name(self) -> str:
        return self.pass_.name


@dataclass
class Group:
    """A gated sub-sequence of steps (no repetition)."""

    name: str
    body: Tuple["Node", ...]
    enabled: Enabled = None


@dataclass
class FixedPoint:
    """Repeat ``body`` until the state's measure stops shrinking.

    Attributes
    ----------
    max_rounds:
        Round cap (``None`` = until the measure stops shrinking).  With a
        cap, exhausting it *without* a non-shrinking round means the fixed
        point was never demonstrated.
    charge:
        Charge one budget iteration per round
        (:meth:`repro.guard.budget.RunBudget.charge_iteration` via the
        manager's budget hook) and count it on ``state.iterations``.
    track_convergence:
        Maintain ``state.converged``: cleared on entry, set when a round
        fails to shrink the measure.  Exhausting ``max_rounds`` first
        leaves it cleared and, when ``exhausted_message`` is set, degrades
        ``state.status`` to ``"degraded"`` with that trace line — the
        driver-visible "stopped before converging" report.
    measure:
        Progress measure (defaults to ``state.measure()``, typically the
        cover size).  A round that does not strictly shrink it ends the
        loop.
    """

    name: str
    body: Tuple["Node", ...]
    max_rounds: Optional[int] = None
    charge: bool = False
    track_convergence: bool = False
    exhausted_message: Optional[str] = None
    measure: Optional[Callable[[Any], int]] = None
    enabled: Enabled = None


Node = Union[Step, Group, FixedPoint]


def map_passes(
    nodes: Sequence[Node], fn: Callable[[Pass], Pass]
) -> Tuple[Node, ...]:
    """Rebuild a spec with every :class:`Pass` routed through ``fn``.

    Structure (groups, fixed points, gates, hook configuration) is
    preserved; only the ``pass_`` objects are substituted.  ``fn`` may
    return its argument unchanged to leave a pass alone.  This is the
    instrumentation seam of the pipeline layer: the proptest fault
    injector (:mod:`repro.proptest.faults`) wraps individual phase
    operators with deliberately defective variants through it, and
    tracing/measurement wrappers can use the same hook.
    """
    rebuilt: List[Node] = []
    for node in nodes:
        if isinstance(node, Step):
            new_pass = fn(node.pass_)
            if new_pass is node.pass_:
                rebuilt.append(node)
            else:
                rebuilt.append(
                    Step(
                        new_pass,
                        record=node.record,
                        snapshot=node.snapshot,
                        check=node.check,
                        check_cubes=node.check_cubes,
                        check_reqs=node.check_reqs,
                        enabled=node.enabled,
                    )
                )
        elif isinstance(node, Group):
            rebuilt.append(
                Group(node.name, map_passes(node.body, fn), enabled=node.enabled)
            )
        elif isinstance(node, FixedPoint):
            rebuilt.append(
                FixedPoint(
                    node.name,
                    map_passes(node.body, fn),
                    max_rounds=node.max_rounds,
                    charge=node.charge,
                    track_convergence=node.track_convergence,
                    exhausted_message=node.exhausted_message,
                    measure=node.measure,
                    enabled=node.enabled,
                )
            )
        else:  # pragma: no cover - spec construction error
            raise TypeError(f"not a pipeline node: {node!r}")
    return tuple(rebuilt)


def flatten_pass_names(nodes: Sequence[Node]) -> List[str]:
    """Static pass-name sequence of a spec (fixed points listed once).

    Used by the golden-pipeline regression test and ``--pipeline``
    validation errors; the *dynamic* sequence (with loop repetitions) is
    ``state.executed_passes`` after a run.
    """
    names: List[str] = []
    for node in nodes:
        if isinstance(node, Step):
            names.append(node.name)
        elif isinstance(node, (Group, FixedPoint)):
            inner = flatten_pass_names(node.body)
            if isinstance(node, FixedPoint):
                names.append(f"[{'+'.join(inner)}]*")
            else:
                names.extend(inner)
        else:  # pragma: no cover - spec construction error
            raise TypeError(f"not a pipeline node: {node!r}")
    return names


class PipelineState:
    """Base state threaded through a pipeline run.

    Drivers subclass this and add their own fields (cover, context,
    options).  The manager and the stock hooks rely only on this surface:

    ``phase_seconds`` / ``executed_passes``
        per-pass wall-time accumulator and dynamic pass sequence, both
        written by the manager itself after each pass;
    ``trace`` / ``record_pass``
        phase-trace lines (trace hook); HF aliases this to
        ``HFContext.trace`` so guard events interleave correctly;
    ``best`` / ``snapshot_cubes`` / ``on_budget_exceeded``
        best-verified-snapshot capture and restoration (snapshot hook and
        the manager's budget-exhaustion handler); a ``snapshot_cubes`` of
        ``None`` opts out of snapshotting entirely;
    ``budget``
        the active :class:`~repro.guard.budget.RunBudget` or ``None``;
    ``measure``
        default fixed-point progress measure;
    ``stop``
        cooperative early exit: once set, no further node runs.
    """

    def __init__(self) -> None:
        self.phase_seconds: dict = {}
        self.trace: List[str] = []
        self.executed_passes: List[str] = []
        self.status: str = "ok"
        self.best: Optional[list] = None
        self.iterations: int = 0
        self.converged: bool = True
        self.stop: bool = False
        self.stopped_early: bool = False
        self.ctx: Any = None

    # -- hook surface ---------------------------------------------------

    @property
    def budget(self):
        """The run budget charged by the manager (default: none)."""
        ctx = self.ctx
        return getattr(ctx, "budget", None) if ctx is not None else None

    def snapshot_cubes(self) -> Optional[list]:
        """Current best-verified cover candidate (None = unsupported)."""
        return None

    def cover_size(self) -> int:
        """Cover size reported in trace lines."""
        snap = self.snapshot_cubes()
        return len(snap) if snap is not None else 0

    def measure(self) -> int:
        """Default fixed-point progress measure."""
        return self.cover_size()

    def record_pass(self, name: str) -> None:
        """Append one phase-boundary trace line."""
        self.trace.append(f"{name}:|F|={self.cover_size()}")

    def on_budget_exceeded(self, exc) -> None:
        """Restore the best snapshot after budget exhaustion."""
        if self.best is not None:
            pass  # subclasses restore their cover from ``best``
