"""Result object returned by :func:`repro.hf.espresso_hf`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.perf import PerfCounters


@dataclass
class HFResult:
    """Outcome of one Espresso-HF run.

    Attributes
    ----------
    cover:
        The hazard-free cover (multi-output; cubes carry output sets).
    essentials:
        Representative cubes of the essential equivalence classes found.
    num_required / num_canonical_required:
        Sizes of ``Q`` and ``Q_f`` (after SCC minimization) — the paper's
        problem-size measures.
    iterations:
        Number of inner REDUCE/EXPAND/IRREDUNDANT iterations executed.
    runtime_s:
        Wall-clock seconds of the whole run.
    phase_seconds:
        Wall-clock breakdown per phase (canonicalize / essentials / loop /
        make_prime).
    counters:
        Operator-level performance counters collected by the run's
        :class:`~repro.hf.context.HFContext` — supercube memo hit rates,
        expansion probes, MINCOV problem sizes, and per-operator wall time
        (see :class:`repro.perf.PerfCounters`).
    status:
        Outcome classification of the run:

        ``"ok"``
            the loop converged normally;
        ``"degraded"``
            the outer loop hit ``max_outer_iterations`` before converging —
            the cover is valid and verified-equivalent to any other result,
            but may be larger than a converged run would produce;
        ``"budget_exceeded"``
            a :class:`~repro.guard.budget.RunBudget` ran out mid-run and
            the best phase-boundary snapshot was returned.

        Every status yields a *valid hazard-free cover* (Theorem 2.11);
        status is about optimality, never about correctness.
    trace:
        Phase trace: one line per phase boundary (``"expand:|F|=12"``) and
        per guard event (budget exhaustion, scalar fallback), in execution
        order.  Serialized into repro bundles on failure.
    """

    cover: Cover
    essentials: List[Cube] = field(default_factory=list)
    num_required: int = 0
    num_canonical_required: int = 0
    iterations: int = 0
    runtime_s: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    counters: PerfCounters = field(default_factory=PerfCounters)
    status: str = "ok"
    trace: List[str] = field(default_factory=list)

    @property
    def num_cubes(self) -> int:
        """Cover cardinality (the paper's cost function)."""
        return len(self.cover)

    @property
    def num_literals(self) -> int:
        """Total input literals (secondary cost; MAKE_DHF_PRIME reduces it)."""
        return self.cover.num_literals()

    @property
    def num_essential_classes(self) -> int:
        return len(self.essentials)

    @property
    def converged(self) -> bool:
        """True iff the run completed without degradation."""
        return self.status == "ok"

    def summary(self) -> str:
        """One-line human-readable result summary."""
        tag = "" if self.status == "ok" else f", {self.status.upper()}"
        return (
            f"{self.num_cubes} cubes ({self.num_essential_classes} essential "
            f"classes, {self.num_canonical_required} canonical required cubes, "
            f"{self.runtime_s:.2f}s{tag})"
        )
