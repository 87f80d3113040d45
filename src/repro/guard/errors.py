"""Structured error taxonomy and the one table of request outcomes.

Every failure the minimizer stack can produce maps onto one subclass of
:class:`HFError`, so callers (the CLI, the batch runner, service frontends)
can branch on *kind* of failure instead of string-matching messages.  The
classes double-inherit from the built-in exceptions the pre-guard code
raised (``RuntimeError`` / ``ValueError`` / ``AssertionError``), so
existing ``except`` clauses keep working.

:data:`OUTCOMES` defines each request outcome once: its worst-of rank, CLI
exit code, wire status, cover/``ok``/cacheable flags, ``serve`` counter
and exception class.  The CLI, the isolated runner's rows, the ``serve``
protocol and cache, the per-output merge, the regression gate and the
corpus differential all derive from it, and :func:`outcome_of` is the one
exception -> outcome mapping.

This module must stay import-light: it is imported by ``repro.hf`` and
``repro.pla`` and must never import them back.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple


class HFError(Exception):
    """Base class of every structured Espresso-HF failure."""

    @property
    def exit_code(self) -> int:
        """CLI exit code of this failure kind (its :data:`OUTCOMES` row)."""
        return outcome_of(self).exit_code


def no_solution_message(name: str, cubes: Iterable[Tuple[str, int]]) -> str:
    """The one rendering of a Theorem 4.1 failure.

    ``cubes`` are ``(input part, output)`` pairs of the required cubes
    with no dhf-supercube; each distinct pair is listed once, sorted by
    ``(output, input part)``, so the text depends on the set only.
    """
    pairs = sorted({(j, cube) for cube, j in cubes})
    listed = ", ".join(f"{cube} (output {j})" for j, cube in pairs)
    return (
        f"{name}: no hazard-free cover exists (Theorem 4.1); "
        f"offending required cubes: {listed or 'unknown'}"
    )


class NoSolutionError(HFError, RuntimeError):
    """The instance admits no hazard-free cover (Theorem 4.1) — a property
    of the input, not a fault.

    ``failures`` holds every required cube whose dhf-supercube is
    undefined (:class:`repro.hazards.instance.RequiredCube`, with the
    transition it came from), in required-cube order; ``name`` is the
    instance's.  The message is :func:`no_solution_message` of the two.
    """

    def __init__(self, name: str, failures: Iterable = ()):
        self.name = name
        self.failures = list(failures)
        super().__init__(
            no_solution_message(
                name, [(q.cube.input_string(), q.output) for q in self.failures]
            )
        )

    def __reduce__(self):
        # The default reduce passes the message as the only argument,
        # which would become the name of a second message.
        return (type(self), (self.name, self.failures))


class BudgetExceeded(HFError, RuntimeError):
    """A run budget was exhausted before any valid cover existed.

    Raised cooperatively by :meth:`repro.guard.budget.RunBudget.checkpoint`.
    Once the canonical cover is available the driver *catches* this and
    returns a degraded result instead, so user code normally only sees the
    ``status`` field, not the exception.
    """

    def __init__(self, reason: str, phase: str = ""):
        super().__init__(f"{reason}" + (f" (during {phase})" if phase else ""))
        self.reason = reason
        self.phase = phase


class InvariantViolation(HFError, AssertionError):
    """Checked mode caught a Theorem 2.11 violation at a phase boundary —
    an implementation bug, never user error.

    Carries the phase name, the individual violation descriptions, and —
    once the guarded wrapper has serialized one — the path of the repro
    bundle that replays the failure.
    """

    def __init__(
        self,
        phase: str,
        violations: Optional[List[str]] = None,
        bundle_path: Optional[str] = None,
    ):
        self.phase = phase
        self.violations = list(violations or [])
        self.bundle_path = bundle_path
        detail = "; ".join(self.violations[:3]) or "unspecified violation"
        suffix = f" [bundle: {bundle_path}]" if bundle_path else ""
        super().__init__(f"invariant violated after {phase}: {detail}{suffix}")


class MalformedInstance(HFError, ValueError):
    """The input is ill-formed: bad PLA text, inconsistent ON/OFF sets,
    function hazards (user error)."""


class WorkerCrashed(HFError, RuntimeError):
    """An isolated worker process died without reporting a result.

    Carries the child's raw ``exitcode`` (negative = killed by that signal
    number, per :attr:`multiprocessing.Process.exitcode`) and the decoded
    ``signal`` name when one applies.  Unlike :class:`MalformedInstance`
    or :class:`NoSolutionError` this says nothing about the *input*: the
    worker died, so a supervisor is entitled to retry the job on a fresh
    worker — which is exactly what :mod:`repro.serve` does, with bounded
    backoff and a poison-job quarantine for inputs that kill repeatedly.
    """

    def __init__(self, message: str, exitcode: Optional[int] = None):
        super().__init__(message)
        self.exitcode = exitcode
        self.signal = signal_name(exitcode)


def signal_name(exitcode: Optional[int]) -> Optional[str]:
    """Decode a negative :attr:`Process.exitcode` into a signal name."""
    if exitcode is None or exitcode >= 0:
        return None
    try:
        import signal as _signal

        return _signal.Signals(-exitcode).name
    except (ValueError, ImportError):  # pragma: no cover - exotic signal
        return f"signal {-exitcode}"


class Outcome(NamedTuple):
    """One request outcome, as every surface reports it.

    ``name`` is the row status; ``rank`` orders the outcomes a run can end
    in, best first (``None`` for the service-side refusals no run
    produces); ``exit_code`` is the CLI's (``None`` where no CLI path ends
    this way); ``wire`` is the ``serve`` response status; ``cover`` means
    a verified hazard-free cover is attached; ``ok`` is the response's
    ``ok`` flag (the request got an answer); ``cacheable`` marks a property
    of the instance rather than of one run; ``counter`` is the ``serve``
    counter bumped when a worker ends this way; ``exc`` is the exception
    class :func:`outcome_of` maps here.
    """

    name: str
    rank: Optional[int]
    exit_code: Optional[int]
    wire: str
    cover: bool
    ok: bool
    cacheable: bool
    counter: Optional[str]
    exc: Optional[type]


#: every request outcome, best first.  ``crash`` (an exception the worker
#: caught) answers on the wire as ``error``; ``worker_crashed`` (the
#: worker died without reporting) is the one retry-safe failure and ranks
#: worst.  An escaped :class:`BudgetExceeded` ends a run like its wall
#: clock does: ``timeout``.  ``usage`` is a bad CLI invocation or request
#: line.  Detector verdicts are per transition, not per request, and live
#: in :mod:`repro.detect`.
OUTCOMES: Dict[str, Outcome] = {
    o.name: o
    for o in (
        # name, rank, exit, wire, cover, ok, cacheable, counter, exception
        Outcome("ok", 0, 0, "ok", True, True, True,
                "serve.completed_ok", None),
        Outcome("degraded", 1, 0, "degraded", True, True, False,
                "serve.completed_degraded", None),
        Outcome("budget_exceeded", 2, 0, "budget_exceeded", True, True, False,
                "serve.completed_degraded", None),
        Outcome("no_solution", 3, 2, "no_solution", False, True, True,
                "serve.no_solution", NoSolutionError),
        Outcome("invariant_violation", 4, 3, "invariant_violation", False,
                False, False, "serve.invariant_violations", InvariantViolation),
        Outcome("malformed", 5, 4, "malformed", False, False, False,
                "serve.malformed", MalformedInstance),
        Outcome("crash", 6, 1, "error", False, False, False,
                "serve.worker_errors", None),
        Outcome("timeout", 7, 5, "timeout", False, False, False,
                "serve.timeouts", BudgetExceeded),
        Outcome("worker_crashed", 8, 6, "worker_crashed", False, False, False,
                "serve.worker_crashes", WorkerCrashed),
        Outcome("quarantined", None, None, "quarantined", False, False, False,
                None, None),
        Outcome("shed", None, None, "shed", False, False, False, None, None),
        Outcome("shutting_down", None, None, "shutting_down", False, False,
                False, None, None),
        Outcome("usage", None, 1, "protocol_error", False, False, False,
                None, None),
    )
}

#: wire status -> outcome
BY_WIRE: Dict[str, Outcome] = {o.wire: o for o in OUTCOMES.values()}

_WORST = max(o.rank for o in OUTCOMES.values() if o.rank is not None)


def outcome_of(exc: BaseException) -> Outcome:
    """The outcome of a run that raised ``exc``: ``crash`` unless a row's
    exception class matches."""
    for outcome in OUTCOMES.values():
        if outcome.exc is not None and isinstance(exc, outcome.exc):
            return outcome
    return OUTCOMES["crash"]


def status_rank(status: str) -> int:
    """Worst-of rank of a row status; an unknown status ranks worst."""
    outcome = OUTCOMES.get(status)
    if outcome is None or outcome.rank is None:
        return _WORST
    return outcome.rank
