"""Run budgets: wall-clock deadlines and deterministic work caps.

A :class:`RunBudget` bounds one logical minimizer run.  The EXPAND / REDUCE
/ IRREDUNDANT / LAST_GASP operators call
:meth:`~repro.hf.context.HFContext.checkpoint` at cube granularity; the
checkpoint delegates here and raises
:class:`~repro.guard.errors.BudgetExceeded` the first time any cap is blown.
The driver catches the exception at the phase boundary and returns the best
cover built so far with ``status="budget_exceeded"`` — the run *degrades*,
it never hangs and never returns an unverified cover.

Two kinds of caps coexist on purpose:

* ``wall_s`` is the production knob — a hard deadline in seconds;
* ``max_iterations`` / ``max_checkpoints`` are deterministic work caps
  (outer+inner loop iterations, cooperative checkpoints).  They make budget
  exhaustion reproducible in tests and repro bundles, where a wall-clock
  deadline would be machine-dependent.

A budget instance is *stateful* and spans one logical run: the clock starts
at the first checkpoint, and :func:`repro.hf.espresso_hf_per_output` passes
the same instance to every per-output sub-run so the deadline is shared.
Use :meth:`reset` (or a fresh instance) to reuse a configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.guard.errors import BudgetExceeded
from repro.pipeline.hooks import Hook


@dataclass
class RunBudget:
    """Caps for one minimizer run; ``None`` disables the respective cap.

    Attributes
    ----------
    wall_s:
        Wall-clock deadline in seconds, measured from the first checkpoint.
    max_iterations:
        Cap on inner REDUCE/EXPAND/IRREDUNDANT iterations (the driver
        charges these via :meth:`charge_iteration`).
    max_checkpoints:
        Deterministic cap on cooperative checkpoints — roughly one per cube
        per operator pass.  Machine-independent, so exhaustion under this
        cap reproduces exactly.
    """

    wall_s: Optional[float] = None
    max_iterations: Optional[int] = None
    max_checkpoints: Optional[int] = None

    # -- runtime state (not configuration) -----------------------------
    started_at: Optional[float] = field(default=None, repr=False)
    checkpoints: int = field(default=0, repr=False)
    iterations: int = field(default=0, repr=False)
    exhausted_reason: Optional[str] = field(default=None, repr=False)

    def start(self) -> None:
        """Start the wall clock (idempotent)."""
        if self.started_at is None:
            self.started_at = time.perf_counter()

    def reset(self) -> None:
        """Clear runtime state so the configuration can be reused."""
        self.started_at = None
        self.checkpoints = 0
        self.iterations = 0
        self.exhausted_reason = None

    @property
    def exhausted(self) -> bool:
        return self.exhausted_reason is not None

    def elapsed_s(self) -> float:
        """Seconds since the first checkpoint (0.0 before it)."""
        if self.started_at is None:
            return 0.0
        return time.perf_counter() - self.started_at

    def checkpoint(self, phase: str = "") -> None:
        """Cooperative check; raises :class:`BudgetExceeded` on any blown cap.

        Once a cap has been blown every later checkpoint raises again, so an
        operator that swallows the first exception cannot run away.
        """
        self.start()
        self.checkpoints += 1
        if self.exhausted_reason is not None:
            raise BudgetExceeded(self.exhausted_reason, phase)
        if (
            self.max_checkpoints is not None
            and self.checkpoints > self.max_checkpoints
        ):
            self._exhaust(f"checkpoint cap {self.max_checkpoints} reached", phase)
        if self.wall_s is not None and self.elapsed_s() > self.wall_s:
            self._exhaust(f"wall-clock deadline {self.wall_s:g}s reached", phase)

    def would_raise(self, n: int) -> bool:
        """Whether one of ``n`` checkpoints fired now would raise.

        Lets a caller that fires its checkpoints after a stretch of work
        stop that work early: the checkpoints it then fires raise exactly
        as if each had fired on time.
        """
        return n > 0 and (
            self.exhausted_reason is not None
            or (
                self.max_checkpoints is not None
                and self.checkpoints + n > self.max_checkpoints
            )
            or (self.wall_s is not None and self.elapsed_s() > self.wall_s)
        )

    def charge_iteration(self, phase: str = "loop") -> None:
        """Charge one inner-loop iteration against ``max_iterations``."""
        self.iterations += 1
        if (
            self.max_iterations is not None
            and self.iterations > self.max_iterations
        ):
            self._exhaust(f"iteration cap {self.max_iterations} reached", phase)

    def _exhaust(self, reason: str, phase: str) -> None:
        self.exhausted_reason = reason
        raise BudgetExceeded(reason, phase)


class BudgetChargeHook(Hook):
    """Pipeline hook charging the run budget (see :mod:`repro.pipeline`).

    One iteration is charged per *charged fixed-point round* — the inner
    REDUCE/EXPAND/IRREDUNDANT rounds of the minimization loop — exactly
    where the pre-pipeline driver called :meth:`RunBudget.charge_iteration`
    by hand.  Cube-granularity checkpoints stay inside the operators
    (:meth:`repro.hf.context.HFContext.checkpoint`); this hook is only the
    loop-level accounting.  States without a budget are no-ops.
    """

    def round_finished(self, fixed_point, state) -> None:
        budget = state.budget
        if budget is not None:
            budget.charge_iteration(fixed_point.name)
