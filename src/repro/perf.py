"""Operator-level performance counters for one minimizer run.

Every :class:`repro.hf.context.HFContext` owns a :class:`PerfCounters`
instance; the hot-path primitives (``supercube_dhf_bits``, the coverage
bitmask cache, the MINCOV solver) bump counters as they run.  The final
snapshot travels on :class:`repro.hf.result.HFResult` and into the
benchmark JSON (``scripts/bench_hf.py``), so performance regressions show
up as numbers, not vibes.

:class:`PerfCounters` holds counters only.  Wall time has one clock: the
:class:`~repro.pipeline.manager.PassManager` times each pass once into
``HFResult.phase_seconds``, and every timing view (reports, metrics, the
regression gate) is read from there.

All counters are plain integers updated inline — the bookkeeping must cost
(almost) nothing on the path it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List


@dataclass
class PerfCounters:
    """Counters for one Espresso-HF run.

    Attributes
    ----------
    supercube_calls / supercube_cache_hits:
        ``supercube_dhf_bits`` invocations and how many were answered from
        the memo table.  The hit rate is the paper's §3.3.1 acceleration
        story in one number.
    supercube_chain_cached:
        Intermediate cubes of forced-expansion chains written to the memo
        table (every cube along a chain maps to the same fixpoint).
    expand_probes:
        Candidate feasibility probes issued by EXPAND (phase 1 and the
        required-cube phase).
    coverage_masks_built / coverage_mask_hits:
        Coverage-bitset rows computed from scratch vs. served memoized.
    mincov_problems / mincov_rows / mincov_nodes:
        Covering problems solved by IRREDUNDANT/LAST_GASP, their total row
        count, and branch-and-bound nodes explored.
    passes_executed:
        Pipeline passes executed by the
        :class:`~repro.pipeline.manager.PassManager` (dynamic count, loop
        repetitions included).
    invariant_checks / crosscheck_divergences / scalar_fallbacks:
        Guarded-runtime events (checked mode): phase-boundary invariant
        checkpoints executed, scalar-vs-bitset coverage divergences caught,
        and fallbacks to the scalar coverage path they triggered.  Any
        nonzero divergence count on a run is a caught engine bug — the
        result is still correct (the run continued on the scalar path) but
        the event must be investigated.
    escape_rows_built:
        Escape-row prefilter rows constructed by the batched essentials
        engine (one per canonical required cube of the instance).
    escape_probe_hits:
        Escape-row probes answered from the supercube memo table.  Counted
        at probe time (the old lump-sum accounting misstated interleaving
        in span-correlated metrics); these probes also count toward
        ``supercube_calls`` / ``supercube_cache_hits``.
    essentials_rescans_avoided:
        Seed re-examinations skipped by the incremental essentials
        fixpoint because no removed required cube intersected the seed's
        escape-row trigger set — the examination verdict is provably
        unchanged, so neither the greedy expansion nor the distinguished
        scan reruns.
    essentials_memo_peak:
        Peak entry count across the essentials engine's per-instance memo
        tables (expansion memo, escape rows, escape verdicts).  The
        tables are cleared when ``compute_essentials`` returns, so
        service-style runs don't accumulate per-instance state; merging
        takes the max, not the sum.
    """

    supercube_calls: int = 0
    supercube_cache_hits: int = 0
    supercube_chain_cached: int = 0
    expand_probes: int = 0
    coverage_masks_built: int = 0
    coverage_mask_hits: int = 0
    mincov_problems: int = 0
    mincov_rows: int = 0
    mincov_nodes: int = 0
    passes_executed: int = 0
    invariant_checks: int = 0
    crosscheck_divergences: int = 0
    scalar_fallbacks: int = 0
    escape_rows_built: int = 0
    escape_probe_hits: int = 0
    essentials_rescans_avoided: int = 0
    essentials_memo_peak: int = 0

    @property
    def supercube_hit_rate(self) -> float:
        """Fraction of ``supercube_dhf_bits`` calls served from the memo."""
        if not self.supercube_calls:
            return 0.0
        return self.supercube_cache_hits / self.supercube_calls

    @property
    def coverage_hit_rate(self) -> float:
        """Fraction of coverage-mask lookups served from the memo."""
        total = self.coverage_masks_built + self.coverage_mask_hits
        return self.coverage_mask_hits / total if total else 0.0

    def merge(self, other: "PerfCounters") -> None:
        """Fold another run's counters into this one (per-output mode).

        Every counter sums, except ``essentials_memo_peak``: a peak takes
        the max.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(
                self,
                f.name,
                max(mine, theirs)
                if f.name == "essentials_memo_peak"
                else mine + theirs,
            )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by ``scripts/bench_hf.py``)."""
        return {
            "supercube_calls": self.supercube_calls,
            "supercube_cache_hits": self.supercube_cache_hits,
            "supercube_hit_rate": round(self.supercube_hit_rate, 4),
            "supercube_chain_cached": self.supercube_chain_cached,
            "expand_probes": self.expand_probes,
            "coverage_masks_built": self.coverage_masks_built,
            "coverage_mask_hits": self.coverage_mask_hits,
            "coverage_hit_rate": round(self.coverage_hit_rate, 4),
            "mincov_problems": self.mincov_problems,
            "mincov_rows": self.mincov_rows,
            "mincov_nodes": self.mincov_nodes,
            "passes_executed": self.passes_executed,
            "invariant_checks": self.invariant_checks,
            "crosscheck_divergences": self.crosscheck_divergences,
            "scalar_fallbacks": self.scalar_fallbacks,
            "escape_rows_built": self.escape_rows_built,
            "escape_probe_hits": self.escape_probe_hits,
            "essentials_rescans_avoided": self.essentials_rescans_avoided,
            "essentials_memo_peak": self.essentials_memo_peak,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerfCounters":
        """Rebuild counters from an :meth:`as_dict` snapshot.

        Derived rates are recomputed, not read back; unknown keys are
        ignored so old snapshots stay loadable.
        """
        counters = cls()
        for f in fields(cls):
            if f.name in data:
                setattr(counters, f.name, int(data[f.name]))
        return counters

    def summary_lines(self) -> List[str]:
        """Human-readable counter report (``report.py`` / CLI ``--stats``)."""
        lines = [
            f"supercube_dhf: {self.supercube_calls} calls, "
            f"{100.0 * self.supercube_hit_rate:.1f}% cache hits "
            f"({self.supercube_chain_cached} chain entries cached)",
            f"coverage masks: {self.coverage_masks_built} built, "
            f"{self.coverage_mask_hits} hits "
            f"({100.0 * self.coverage_hit_rate:.1f}% hit rate)",
            f"expand probes: {self.expand_probes}",
            f"mincov: {self.mincov_problems} problems, "
            f"{self.mincov_rows} rows, {self.mincov_nodes} nodes",
        ]
        if self.escape_rows_built:
            lines.append(
                f"essentials engine: {self.escape_rows_built} escape rows, "
                f"{self.escape_probe_hits} probe memo hits, "
                f"{self.essentials_rescans_avoided} rescans avoided "
                f"(memo peak {self.essentials_memo_peak})"
            )
        if self.invariant_checks:
            lines.append(
                f"checked mode: {self.invariant_checks} invariant checks, "
                f"{self.crosscheck_divergences} cross-check divergences, "
                f"{self.scalar_fallbacks} scalar fallbacks"
            )
        return lines
