"""The exact-vs-heuristic differential: one instance, both flows, a verdict.

This is the corpus-scale version of the paper's Figure-8 comparison, run
as a shard-executor worker body.  For every instance it

1. runs **Espresso-HF** (:func:`repro.hf.espresso_hf`) and re-verifies
   any cover it returns under the **Theorem 2.11** checker — the
   heuristic is never trusted, every cover in the scoreboard is verified;
2. runs the **exact** flow (:func:`repro.exact.exact_hazard_free_minimize`)
   under a stage/time budget;
3. classifies the pair into a verdict, split into *explained* and
   *unexplained*:

   ================== =========== ==========================================
   verdict            explained?  meaning
   ================== =========== ==========================================
   exact_match        yes         both solved, same cardinality
   heuristic_larger   yes         both solved, HF cover larger (the paper's
                                  expected heuristic gap; ratio recorded)
   both_no_solution   yes         both say no hazard-free cover exists
   exact_unavailable  yes         exact blew a stage budget/deadline — the
                                  paper's own "could not be solved" regime
   timeout            yes         the whole task hit the executor timeout
   hf_budget          yes         HF's run budget expired pre-canonicalize
   exact_suboptimal   **no**      HF found a *smaller* cover than "exact" —
                                  impossible if exact is exact
   solvability_mismatch **no**    the two flows (or the manifest
                                  annotation) disagree about existence
   hf_verify_failed   **no**      HF's cover failed Theorem 2.11
   hf_error           **no**      HF crashed or misbehaved
   ================== =========== ==========================================

Every unexplained verdict writes a replayable repro bundle
(:mod:`repro.guard.bundle`) when ``bundle_dir`` is set — corpus runs must
hand back evidence, not anecdotes.  Per-task metrics land in a
:class:`repro.obs.MetricsRegistry` snapshot on the row; snapshots merge
associatively, so shards can complete out of order (or on other machines)
and the scoreboard still adds up.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.guard.errors import OUTCOMES

#: verdicts that indicate a real, unexplained disagreement — the corpus
#: CI gate fails if any of these survive a run
UNEXPLAINED_VERDICTS = (
    "exact_suboptimal",
    "solvability_mismatch",
    "hf_verify_failed",
    "hf_error",
)

#: all verdicts the worker can emit (executor-level timeouts are stamped
#: by the parent and folded in by the scoreboard)
VERDICTS = (
    "exact_match",
    "heuristic_larger",
    "both_no_solution",
    "exact_unavailable",
    "hf_budget",
    "malformed",
) + UNEXPLAINED_VERDICTS


def differential_payload(
    name: str,
    pla_text: str,
    stratum: str = "",
    solvable: Optional[bool] = None,
    timeout_s: Optional[float] = None,
    options=None,
    exact_budget: Optional[Dict[str, Any]] = None,
    inject: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Work item for one corpus instance's differential run.

    ``solvable`` is the manifest's ground-truth annotation (computed from
    Theorem 4.1 at generation time); when provided, both flows are
    cross-checked against it.  ``exact_budget`` maps onto
    :class:`repro.exact.ExactBudget` fields.  ``inject`` is the guard
    runner's test-only fault seam (kills, delays, pipeline defects) —
    corpus fault-injection tests are built on it.
    """
    from repro.guard.bundle import options_to_dict

    payload: Dict[str, Any] = {
        "worker": "differential",
        "kind": "pla",
        "name": name,
        "pla_text": pla_text,
        "stratum": stratum,
        "options": options_to_dict(options),
        "timeout_s": timeout_s,
    }
    if solvable is not None:
        payload["solvable"] = bool(solvable)
    if exact_budget:
        payload["exact_budget"] = dict(exact_budget)
    if inject:
        payload["inject"] = dict(inject)
    return payload


DEFAULT_EXACT_BUDGET: Dict[str, Any] = {
    "prime_limit": 20_000,
    "transform_limit": 50_000,
    "covering_node_limit": 200_000,
    "time_limit_s": 20.0,
}


def _classify(
    hf_status: str,
    hf_cubes: Optional[int],
    hf_verified: Optional[bool],
    exact_status: str,
    exact_cubes: Optional[int],
    solvable_expected: Optional[bool],
) -> str:
    if hf_status in ("crash", "invariant_violation", "malformed"):
        return "hf_error"
    # a cover that fails Theorem 2.11 is unexplained no matter what status
    # the heuristic attached to it
    if hf_verified is False:
        return "hf_verify_failed"
    # the budget ran out after the canonical cover existed, or before it
    # (an escaped BudgetExceeded is a ``timeout``)
    if hf_status in ("budget_exceeded", "timeout"):
        return "hf_budget"
    if exact_status in ("exact_failure", "crash"):
        # budget/stage explosion: the paper's "could not be solved" column
        return "exact_unavailable"
    hf_solved = OUTCOMES[hf_status].cover
    exact_solved = exact_status == "ok"
    if hf_solved and exact_solved:
        if solvable_expected is False:
            return "solvability_mismatch"
        assert hf_cubes is not None and exact_cubes is not None
        if hf_cubes < exact_cubes:
            return "exact_suboptimal"
        return "exact_match" if hf_cubes == exact_cubes else "heuristic_larger"
    if not hf_solved and not exact_solved:
        if solvable_expected is True:
            return "solvability_mismatch"
        return "both_no_solution"
    return "solvability_mismatch"


def run_differential_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one differential work item in-process; returns a row.

    This is the body the shard executor's subprocess runs; tests may call
    it directly.  It never raises — every outcome is a structured row.
    """
    from repro.exact import ExactBudget, ExactFailure, exact_hazard_free_minimize
    from repro.guard.bundle import (
        describe_exception,
        options_from_dict,
        write_bundle,
    )
    from repro.guard.errors import MalformedInstance
    from repro.guard.inject import apply_option_faults, apply_preflight_faults
    from repro.guard.runner import failure_fields
    from repro.hazards.verify import verify_hazard_free_cover
    from repro.hf.espresso_hf import espresso_hf
    from repro.obs import MetricsRegistry, TIME_BUCKETS_S
    from repro.pla import parse_pla
    from repro.pla.reader import PlaError

    name = payload.get("name", "instance")
    stratum = payload.get("stratum", "")
    solvable_expected = payload.get("solvable")
    row: Dict[str, Any] = {
        "name": name,
        "stratum": stratum,
        "status": "ok",
        "verdict": None,
        "explained": True,
        "bundle_path": None,
    }
    inject = payload.get("inject") or {}
    if inject:
        apply_preflight_faults(inject, payload)
    try:
        instance = parse_pla(payload["pla_text"], name=name).to_instance()
    except (PlaError, MalformedInstance, ValueError, KeyError) as exc:
        row.update(
            status="malformed",
            verdict="malformed",
            error=f"{type(exc).__name__}: {exc}",
        )
        return row
    row["n_inputs"] = instance.n_inputs
    row["n_outputs"] = instance.n_outputs

    options = options_from_dict(payload.get("options", {}))
    if inject:
        apply_option_faults(inject, options)

    # --- heuristic side -------------------------------------------------
    hf_cubes: Optional[int] = None
    hf_verified: Optional[bool] = None
    hf_cover = None
    t0 = time.perf_counter()
    try:
        hf_result = espresso_hf(instance, options)
        hf_status = hf_result.status  # "ok" or "degraded"
        hf_cubes = hf_result.num_cubes
        hf_cover = hf_result.cover
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        failure = failure_fields(exc)
        hf_status = failure["status"]
        if not OUTCOMES[hf_status].ok:
            row["error"] = failure["error"]
    hf_time = time.perf_counter() - t0
    if hf_cover is not None:
        # Theorem 2.11 re-verification: non-negotiable for scoreboard rows
        violations = verify_hazard_free_cover(instance, hf_cover)
        hf_verified = not violations
        if violations:
            row["error"] = "; ".join(str(v) for v in violations[:3])

    # --- exact side -----------------------------------------------------
    budget_dict = dict(DEFAULT_EXACT_BUDGET)
    budget_dict.update(payload.get("exact_budget") or {})
    exact_cubes: Optional[int] = None
    exact_stage: Optional[str] = None
    t0 = time.perf_counter()
    try:
        exact_result = exact_hazard_free_minimize(
            instance, budget=ExactBudget(**budget_dict)
        )
        exact_status = exact_result.status  # "ok" or "no_solution"
        if exact_status == "ok":
            exact_cubes = exact_result.num_cubes
    except ExactFailure as exc:
        exact_status = "exact_failure"
        exact_stage = exc.stage
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        exact_status = "crash"
        row.setdefault("error", describe_exception(exc))
    exact_time = time.perf_counter() - t0

    # --- verdict --------------------------------------------------------
    verdict = _classify(
        hf_status,
        hf_cubes,
        hf_verified,
        exact_status,
        exact_cubes,
        solvable_expected,
    )
    explained = verdict not in UNEXPLAINED_VERDICTS
    row.update(
        {
            "verdict": verdict,
            "explained": explained,
            "hf_status": hf_status,
            "hf_cubes": hf_cubes,
            "hf_verified": hf_verified,
            "hf_time_s": round(hf_time, 6),
            "exact_status": exact_status,
            "exact_stage": exact_stage,
            "exact_cubes": exact_cubes,
            "exact_time_s": round(exact_time, 6),
            "ratio": (
                round(hf_cubes / exact_cubes, 6)
                if hf_cubes is not None and exact_cubes not in (None, 0)
                else None
            ),
            "solvable_expected": solvable_expected,
        }
    )

    # --- evidence for unexplained disagreements -------------------------
    bundle_dir = payload.get("bundle_dir")
    if not explained and bundle_dir:
        try:
            row["bundle_path"] = write_bundle(
                instance,
                failure_kind="differential_disagreement",
                failure_message=(
                    f"verdict={verdict} hf={hf_status}/{hf_cubes} "
                    f"exact={exact_status}/{exact_cubes} "
                    f"expected_solvable={solvable_expected}"
                ),
                failure_phase="differential",
                options=options,
                bundle_dir=bundle_dir,
            )
        except Exception:  # noqa: BLE001 - bundling is best-effort
            pass

    # --- associative metrics snapshot -----------------------------------
    registry = MetricsRegistry()
    registry.counter("corpus.instances").inc()
    registry.counter(f"corpus.verdict.{verdict}").inc()
    if not explained:
        registry.counter("corpus.unexplained").inc()
    registry.histogram("corpus.hf_seconds", TIME_BUCKETS_S).observe(hf_time)
    registry.histogram("corpus.exact_seconds", TIME_BUCKETS_S).observe(exact_time)
    if stratum:
        registry.counter(f"corpus.{stratum}.instances").inc()
        registry.counter(f"corpus.{stratum}.verdict.{verdict}").inc()
        registry.histogram(
            f"corpus.{stratum}.hf_seconds", TIME_BUCKETS_S
        ).observe(hf_time)
        registry.histogram(
            f"corpus.{stratum}.exact_seconds", TIME_BUCKETS_S
        ).observe(exact_time)
    if hf_cubes is not None and exact_cubes is not None:
        registry.counter("corpus.cover_cubes_hf").inc(hf_cubes)
        registry.counter("corpus.cover_cubes_exact").inc(exact_cubes)
        if stratum:
            registry.counter(f"corpus.{stratum}.cover_cubes_hf").inc(hf_cubes)
            registry.counter(f"corpus.{stratum}.cover_cubes_exact").inc(
                exact_cubes
            )
    row["metrics"] = registry.snapshot()
    return row
