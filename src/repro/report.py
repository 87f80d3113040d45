"""Instance and cover statistics: problem metrics, PLA area, text reports.

The classic PLA area model charges every product row ``2·inputs + outputs``
crosspoints (true and complemented input columns plus output columns), so
``area = p · (2i + o)``.  Cover cardinality is the paper's cost function;
literal count and area are the secondary metrics MAKE_DHF_PRIME improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cubes.cover import Cover
from repro.hazards.instance import HazardFreeInstance
from repro.perf import PerfCounters
from repro._compat import popcount


@dataclass
class InstanceStats:
    """Size metrics of a hazard-free minimization instance."""

    name: str
    n_inputs: int
    n_outputs: int
    n_transitions: int
    n_required_cubes: int
    n_privileged_cubes: int
    transitions_by_kind: Dict[str, int]

    def lines(self) -> List[str]:
        out = [
            f"instance {self.name}: {self.n_inputs} inputs, "
            f"{self.n_outputs} outputs, {self.n_transitions} transitions",
            f"  required cubes  : {self.n_required_cubes}",
            f"  privileged cubes: {self.n_privileged_cubes}",
        ]
        kinds = ", ".join(f"{k}: {v}" for k, v in sorted(self.transitions_by_kind.items()))
        out.append(f"  transition kinds (summed over outputs): {kinds}")
        return out


@dataclass
class CoverStats:
    """Cost metrics of a two-level cover."""

    n_cubes: int
    n_literals: int
    n_inputs: int
    n_outputs: int
    output_connections: int

    @property
    def pla_area(self) -> int:
        """Crosspoint count: products × (2·inputs + outputs)."""
        return self.n_cubes * (2 * self.n_inputs + self.n_outputs)

    @property
    def avg_fanin(self) -> float:
        """Average AND-gate fan-in (literals per product)."""
        return self.n_literals / self.n_cubes if self.n_cubes else 0.0

    def lines(self) -> List[str]:
        return [
            f"cover: {self.n_cubes} products, {self.n_literals} literals "
            f"(avg AND fan-in {self.avg_fanin:.1f})",
            f"  output connections: {self.output_connections}",
            f"  PLA area (crosspoints): {self.pla_area}",
        ]


def instance_stats(instance: HazardFreeInstance) -> InstanceStats:
    """Collect size metrics for an instance."""
    kinds: Dict[str, int] = {}
    for t in instance.transitions:
        for j in range(instance.n_outputs):
            kind = instance.kind(t, j)
            kinds[kind.value] = kinds.get(kind.value, 0) + 1
    return InstanceStats(
        name=instance.name,
        n_inputs=instance.n_inputs,
        n_outputs=instance.n_outputs,
        n_transitions=len(instance.transitions),
        n_required_cubes=len(instance.required_cubes()),
        n_privileged_cubes=len(instance.privileged_cubes()),
        transitions_by_kind=kinds,
    )


def cover_stats(cover: Cover) -> CoverStats:
    """Collect cost metrics for a cover."""
    return CoverStats(
        n_cubes=len(cover),
        n_literals=cover.num_literals(),
        n_inputs=cover.n_inputs,
        n_outputs=cover.n_outputs,
        output_connections=sum(popcount(c.outbits) for c in cover),
    )


def phase_table(phase_seconds: Dict[str, float]) -> List[str]:
    """Per-pass timing table, slowest pass first.

    ``phase_seconds`` is an :class:`HFResult`'s per-pass wall-time
    breakdown, keyed by pipeline pass name (accumulated over loop
    repetitions by the pass manager).
    """
    if not phase_seconds:
        return []
    total = sum(phase_seconds.values())
    width = max(len(name) for name in phase_seconds)
    lines = ["per-pass wall time:"]
    for name, seconds in sorted(
        phase_seconds.items(), key=lambda kv: kv[1], reverse=True
    ):
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"  {name:<{width}}  {seconds:9.4f}s  {share:5.1f}%")
    lines.append(f"  {'total':<{width}}  {total:9.4f}s")
    return lines


def minimization_report(
    instance: HazardFreeInstance,
    cover: Cover,
    baseline: Optional[Cover] = None,
    counters: Optional[PerfCounters] = None,
    status: str = "ok",
    phase_seconds: Optional[Dict[str, float]] = None,
    spans: Optional[list] = None,
) -> str:
    """Human-readable before/after report for one minimization run.

    With ``counters`` (an :class:`HFResult`'s ``counters`` attribute) the
    report ends with the performance-engine section: supercube memo hit
    rate, coverage-mask hit rate, probe counts, and per-operator wall time.
    With ``phase_seconds`` it also includes the pipeline's per-pass timing
    table (:func:`phase_table`).  With ``spans`` (finished
    :class:`repro.obs.Span` objects from a traced run) it appends the
    top-N slowest-spans table (:func:`repro.obs.top_spans_report`).

    A non-``"ok"`` ``status`` (an :class:`HFResult`'s ``status``) prepends a
    warning: the cover is hazard-free either way, but a degraded or
    budget-capped run may not be locally minimal, and silently reporting it
    as converged would misstate the result.
    """
    lines: List[str] = []
    if status == "degraded":
        lines.append(
            "WARNING: run stopped at the outer-iteration cap before "
            "converging; the cover is hazard-free but may not be locally "
            "minimal"
        )
    elif status == "budget_exceeded":
        lines.append(
            "WARNING: run budget exhausted; reporting the best verified "
            "intermediate cover (hazard-free, not minimized to convergence)"
        )
    lines.extend(instance_stats(instance).lines())
    lines.extend(cover_stats(cover).lines())
    if baseline is not None:
        base = cover_stats(baseline)
        ours = cover_stats(cover)
        lines.append(
            f"  vs baseline: {base.n_cubes} -> {ours.n_cubes} products, "
            f"area {base.pla_area} -> {ours.pla_area}"
        )
    if phase_seconds:
        lines.extend(phase_table(phase_seconds))
    if counters is not None:
        lines.append("performance counters:")
        lines.extend(f"  {line}" for line in counters.summary_lines())
    if spans:
        from repro.obs import top_spans_report

        lines.extend(top_spans_report(spans))
    return "\n".join(lines)
