"""Guarded single-run wrapper and the crash-isolated process scheduler.

Two layers:

:func:`guarded_espresso_hf`
    In-process wrapper around :func:`repro.hf.espresso_hf` that turns the
    guard policy on: on an invariant violation, a coverage cross-check
    divergence, or a crash it serializes a repro bundle
    (:mod:`repro.guard.bundle`), delta-debugs it down
    (:mod:`repro.guard.shrink`), and attaches the bundle path to the
    exception / result trace before propagating.

:func:`run_isolated`
    Process isolation: each work item (a benchmark circuit, a PLA text, a
    corpus task) runs in a worker subprocess with a wall-clock timeout,
    and the parent receives a structured, JSON-ready row per
    item — ``status ∈ ROW_STATUSES`` plus metrics and the bundle path,
    never an exception.  One pathological circuit can therefore never
    take down a Figure-8 sweep: it times out or crashes *in its own
    process* and the batch report simply records that.

Each concurrent slot has one long-lived worker process
(:mod:`repro.guard.workers`), which the caller forks at the slot's first
item and reuses until it dies, times out or reports a ``crash``, so an
item pays no fork or reap.  The workers module is the only place in the
package that starts a worker process, and :func:`run_isolated` the only
caller of it.  :func:`run_one`, :func:`run_batch` and :func:`run_pool`
are thin wrappers over it; ``scripts/bench_hf.py``, the CLI's
``--timeout`` and ``--jobs`` modes, every ``serve`` cache miss and the
corpus :class:`~repro.corpus.executor.ShardExecutor` all run on it.
Work items are plain dicts (see :func:`benchmark_payload` /
:func:`pla_payload`) so they cross the process boundary without pickling
any library objects; the worker callable crosses it pickled by name.
"""

from __future__ import annotations

import contextlib
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.guard import workers as worker_pool
from repro.guard.bundle import (
    describe_exception,
    options_from_dict,
    options_to_dict,
    probe_failure,
    write_bundle,
)
from repro.guard.errors import (
    OUTCOMES,
    BudgetExceeded,
    InvariantViolation,
    MalformedInstance,
    NoSolutionError,
    outcome_of,
    signal_name,
)
from repro.guard.inject import apply_option_faults, apply_preflight_faults
from repro.guard.shrink import shrink_instance

#: statuses a batch row can carry: the ranked rows of the outcome table
ROW_STATUSES = tuple(o.name for o in OUTCOMES.values() if o.rank is not None)


# ----------------------------------------------------------------------
# Guarded in-process wrapper
# ----------------------------------------------------------------------


def _bundle_failure(
    instance,
    options,
    kind: str,
    message: str,
    phase: str,
    bundle_dir: str,
    trace=None,
    shrink: bool = True,
    max_shrink_evaluations: int = 200,
) -> str:
    """Write (and, when reproducible, shrink) one failure bundle."""
    fault_hook = getattr(options, "coverage_fault_hook", None)
    shrink_meta: Dict[str, Any] = {}
    shrunk_instance = instance
    if shrink:
        def reproduces(candidate) -> bool:
            return probe_failure(candidate, options, fault_hook=fault_hook) == kind

        try:
            if reproduces(instance):
                result = shrink_instance(
                    instance, reproduces, max_evaluations=max_shrink_evaluations
                )
                shrunk_instance = result.instance
                shrink_meta = result.as_dict()
        except Exception:  # noqa: BLE001 - shrinking must never mask the bug
            shrunk_instance = instance
            shrink_meta = {}
    return write_bundle(
        shrunk_instance,
        failure_kind=kind,
        failure_message=message,
        failure_phase=phase,
        options=options,
        trace=trace,
        shrink=shrink_meta,
        bundle_dir=bundle_dir,
    )


def guarded_espresso_hf(
    instance,
    options=None,
    bundle_dir: Optional[str] = None,
    shrink: bool = True,
    max_shrink_evaluations: int = 200,
):
    """Run :func:`espresso_hf` under the full guard policy.

    Behaves exactly like ``espresso_hf`` on clean runs.  On failure, and
    when ``bundle_dir`` is set:

    * :class:`InvariantViolation` — a shrunk repro bundle is written and
      its path attached to the exception (``exc.bundle_path``) before
      re-raising;
    * any other unexpected exception — a bundle is written, then the
      exception propagates unchanged;
    * a recovered cross-check divergence (the run continued on the scalar
      fallback and the result is valid) — a bundle is written and its path
      appended to ``result.trace``; no exception, since the cover is good.

    ``NoSolutionError`` and ``BudgetExceeded`` pass through untouched:
    they are properties of the input and the budget, not faults.
    """
    from repro.hf.espresso_hf import EspressoHFOptions, espresso_hf

    options = options or EspressoHFOptions()
    try:
        result = espresso_hf(instance, options)
    except (NoSolutionError, BudgetExceeded):
        raise
    except InvariantViolation as exc:
        if bundle_dir:
            exc.bundle_path = _bundle_failure(
                instance,
                options,
                "invariant_violation",
                str(exc),
                exc.phase,
                bundle_dir,
                shrink=shrink,
                max_shrink_evaluations=max_shrink_evaluations,
            )
        raise
    except Exception as exc:  # noqa: BLE001 - bundle, then propagate
        if bundle_dir:
            _bundle_failure(
                instance,
                options,
                "crash",
                describe_exception(exc),
                "",
                bundle_dir,
                shrink=shrink,
                max_shrink_evaluations=max_shrink_evaluations,
            )
        raise
    if result.counters.crosscheck_divergences and bundle_dir:
        path = _bundle_failure(
            instance,
            options,
            "crosscheck_divergence",
            f"{result.counters.crosscheck_divergences} coverage cross-check "
            "divergences (run recovered on the scalar fallback)",
            "",
            bundle_dir,
            trace=result.trace,
            shrink=shrink,
            max_shrink_evaluations=max_shrink_evaluations,
        )
        result.trace.append(f"bundle:{path}")
    return result


# ----------------------------------------------------------------------
# Work-item payloads
# ----------------------------------------------------------------------


def benchmark_payload(
    name: str,
    options=None,
    checked: bool = False,
    verify: bool = True,
    repeats: int = 1,
    timeout_s: Optional[float] = None,
    collect_spans: bool = False,
) -> Dict[str, Any]:
    """Work item for one named Figure-8 benchmark circuit.

    With ``collect_spans`` the worker runs under its own
    :class:`repro.obs.Tracer` and ships the fastest repeat's finished
    spans (plus a metrics snapshot) back on the row — the batch caller
    adopts them into its trace (``scripts/bench_gate.py --trace-out``).
    """
    return {
        "kind": "benchmark",
        "name": name,
        "options": options_to_dict(options),
        "checked": checked,
        "verify": verify,
        "repeats": repeats,
        "timeout_s": timeout_s,
        "collect_spans": collect_spans,
    }


def pla_payload(
    pla_text: str,
    name: str = "instance",
    options=None,
    checked: bool = False,
    verify: bool = True,
    timeout_s: Optional[float] = None,
    collect_spans: bool = False,
) -> Dict[str, Any]:
    """Work item for one extended-PLA instance (the CLI's ``--timeout``
    and every ``serve`` cache miss)."""
    return {
        "kind": "pla",
        "name": name,
        "pla_text": pla_text,
        "options": options_to_dict(options),
        "checked": checked,
        "verify": verify,
        "repeats": 1,
        "return_cover": True,
        "timeout_s": timeout_s,
        "collect_spans": collect_spans,
    }


def per_output_payload(
    pla_text: str,
    name: str,
    output: int,
    options=None,
    checked: bool = False,
    collect_spans: bool = False,
) -> Dict[str, Any]:
    """Work item for one output of a per-output sweep (``--jobs`` mode).

    The worker rebuilds the full instance from the PLA text, restricts it
    to ``output``, and returns the raw sub-run result (cover cubes as
    integer pairs, essentials, counters) so the parent can merge it
    exactly like a serial sweep.  Verification is the parent's job — the
    merged multi-output cover is what the caller checks.
    """
    return {
        "kind": "pla",
        "name": f"{name}[out{output}]",
        "pla_text": pla_text,
        "restrict_output": output,
        "options": options_to_dict(options),
        "checked": checked,
        "verify": False,
        "repeats": 1,
        "return_raw": True,
        "collect_spans": collect_spans,
    }


def _build_instance(payload: Dict[str, Any]):
    if payload["kind"] == "benchmark":
        from repro.bm.benchmarks import build_benchmark

        return build_benchmark(payload["name"])
    from repro.pla import parse_pla

    return parse_pla(
        payload["pla_text"], name=payload.get("name", "pla")
    ).to_instance()


def failure_fields(exc: BaseException) -> Dict[str, Any]:
    """Row ``status``, ``error`` and ``bundle_path`` of a run that raised.

    The status is the exception's outcome
    (:func:`~repro.guard.errors.outcome_of`); a malformed instance names
    its class, an unexpected exception (a ``crash``) carries its traceback.
    A Theorem 4.1 failure also carries its failing required cubes
    (``failures``, :func:`repro.hazards.existence.failure_rows`), so a
    caller can rename or relabel them and re-render the error.
    """
    outcome = outcome_of(exc)
    if outcome.exc is None:
        error = describe_exception(exc)
    elif outcome.exc is MalformedInstance:
        error = f"{type(exc).__name__}: {exc}"
    else:
        error = str(exc)
    fields = {
        "status": outcome.name,
        "error": error,
        "bundle_path": getattr(exc, "bundle_path", None),
    }
    if isinstance(exc, NoSolutionError):
        from repro.hazards.existence import failure_rows

        fields["failures"] = failure_rows(exc.failures)
    return fields


def minimize_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one work item in-process; always returns a structured row.

    This is the body the subprocess child runs; tests may call it directly.
    """
    from repro.pla.reader import PlaError

    name = payload.get("name", "instance")
    row: Dict[str, Any] = {"name": name, "status": "crash", "bundle_path": None}
    bundle_dir = payload.get("bundle_dir")
    inject = payload.get("inject") or {}
    if inject:
        apply_preflight_faults(inject, payload)
    try:
        instance = _build_instance(payload)
    except (PlaError, MalformedInstance, ValueError, KeyError) as exc:
        row["status"] = "malformed"
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    restrict = payload.get("restrict_output")
    if restrict is not None:
        instance = instance.restrict_to_output(int(restrict))
    row["n_inputs"] = instance.n_inputs
    row["n_outputs"] = instance.n_outputs
    options = options_from_dict(payload.get("options", {}))
    options.checked = bool(payload.get("checked", False))
    if inject:
        apply_option_faults(inject, options)
    collect_spans = bool(payload.get("collect_spans"))
    best_time: Optional[float] = None
    best = None
    best_spans: Optional[List[Dict[str, Any]]] = None
    times: List[float] = []
    try:
        for _ in range(max(1, int(payload.get("repeats", 1)))):
            if options.budget is not None:
                options.budget.reset()
            tracer = None
            scope = contextlib.nullcontext()
            if collect_spans:
                from repro.obs import Tracer, activate

                tracer = Tracer()
                scope = activate(tracer)
            t0 = time.perf_counter()
            with scope:
                result = guarded_espresso_hf(
                    instance, options, bundle_dir=bundle_dir
                )
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            if best_time is None or elapsed < best_time:
                best_time = elapsed
                best = result
                if tracer is not None:
                    best_spans = [
                        s.as_dict() for s in tracer.finished_spans()
                    ]
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        row.update(failure_fields(exc))
        return row
    row.update(
        {
            "status": best.status,
            "num_cubes": best.num_cubes,
            "num_literals": best.num_literals,
            "num_essential_classes": best.num_essential_classes,
            "num_canonical_required": best.num_canonical_required,
            "time_s": round(best_time, 6),
            "times_s": [round(t, 6) for t in times],
            "phase_seconds": {
                k: round(v, 6) for k, v in best.phase_seconds.items()
            },
            "counters": best.counters.as_dict(),
            "trace": list(best.trace),
            "error": None,
        }
    )
    if collect_spans:
        from repro.obs import MetricsRegistry, publish_result_metrics

        row["spans"] = best_spans or []
        row["metrics"] = publish_result_metrics(
            MetricsRegistry(), best
        ).snapshot()
    for line in best.trace:
        if line.startswith("bundle:"):
            row["bundle_path"] = line.split(":", 1)[1]
    if payload.get("verify", True):
        from repro.hazards.verify import verify_hazard_free_cover

        violations = verify_hazard_free_cover(instance, best.cover)
        row["verified"] = not violations
        if violations:
            row["status"] = "invariant_violation"
            row["error"] = "; ".join(str(v) for v in violations[:3])
            if bundle_dir:
                row["bundle_path"] = _bundle_failure(
                    instance,
                    options,
                    "verify_failed",
                    row["error"],
                    "final",
                    bundle_dir,
                    trace=best.trace,
                )
    return_cover = payload.get("return_cover")
    if (return_cover or payload.get("return_raw")) and OUTCOMES[row["status"]].cover:
        # A cover that failed verification is never emitted.  Integer rows
        # survive the process boundary losslessly (read them back with
        # :func:`cover_from_row`); the PLA text is the requester's reply.
        row["cover_cubes"] = [[c.inbits, c.outbits] for c in best.cover]
        if return_cover:
            from repro.pla.writer import format_cover

            row["cover_pla"] = format_cover(
                best.cover, pla_type="f", name=f"{name} minimized"
            )
    if payload.get("return_raw"):
        # Raw result surface for the per-output merge.
        row["essentials_inbits"] = [e.inbits for e in best.essentials]
        row["num_required"] = best.num_required
        row["iterations"] = best.iterations
    return row


def cover_from_row(row: Dict[str, Any]):
    """The :class:`~repro.cubes.cover.Cover` a row carries as integer
    ``cover_cubes``, in the row's ``n_inputs`` x ``n_outputs`` shape."""
    from repro.cubes import Cover, Cube

    n, m = row["n_inputs"], row["n_outputs"]
    return Cover(n, [Cube(n, i, o, m) for i, o in row["cover_cubes"]], m)


# ----------------------------------------------------------------------
# The crash-isolated process scheduler
# ----------------------------------------------------------------------


@dataclass
class _Running:
    """One live attempt: its payload, worker, clock and deadline."""

    payload: Dict[str, Any]
    worker: worker_pool.Worker
    timeout: Optional[float]
    t0: float = 0.0

    def start(self, worker_blob: bytes) -> None:
        self.t0 = time.perf_counter()
        self.worker.submit(pickle.dumps((self.payload, worker_blob), -1))

    def settle(self, ready) -> Optional[Dict[str, Any]]:
        """The attempt's final row, or ``None`` while it is still running.

        A report that arrived wins over the deadline, so a row sent just
        before it still counts.  A worker that died without a row is
        reported with its exit code.
        """
        name = self.payload.get("name", "instance")
        if self.worker.conn in ready:
            kind, value = self.worker.report()
            elapsed = time.perf_counter() - self.t0
            if kind != "row":
                return _worker_crashed_row(name, value, elapsed)
            value.setdefault("time_s", round(elapsed, 6))
            return value
        if self.timeout is None or time.perf_counter() < self.t0 + self.timeout:
            return None
        elapsed = time.perf_counter() - self.t0
        self.worker.stop()
        return {
            "name": name,
            "status": "timeout",
            "time_s": round(elapsed, 6),
            "error": timeout_message(self.timeout),
            "bundle_path": _timeout_bundle(self.payload, self.timeout),
        }


def run_isolated(
    payloads: List[Dict[str, Any]],
    jobs: int,
    worker: Callable[[Dict[str, Any]], Dict[str, Any]] = minimize_payload,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    on_row: Optional[Callable[[int, Dict[str, Any], int], None]] = None,
) -> List[Dict[str, Any]]:
    """Run every payload in a worker process, up to ``jobs`` at a time.

    Each attempt runs ``worker(payload)`` in a worker process
    (:mod:`repro.guard.workers`): the call holds one worker per
    concurrent slot, taken from and returned to the process-wide pool,
    and a worker runs jobs until it dies, times out or reports a
    ``crash``; the slot's next job then forks a fresh one.  ``worker``
    travels pickled, so it must be a module-level callable.  The caller
    blocks in :func:`multiprocessing.connection.wait` on the workers'
    pipes until the first report or the nearest deadline; a freed slot
    takes the next pending payload.

    Every payload yields one row, never an exception: the worker's own
    row (``status="crash"`` if it raised); ``status="timeout"`` past the
    deadline (the ``timeout_s`` payload key, else the argument), after a
    SIGTERM to the worker and with an input bundle when the payload names
    a ``bundle_dir``; or ``status="worker_crashed"`` when the worker died
    without reporting.  Only the last is retried — up to
    ``retries`` times, with ``payload["attempt"]`` bumped — since a
    vanished worker does not indict the instance.

    Rows come back in payload order; ``on_row(index, row, attempt)``
    fires once per final row, in completion order.  An exception from
    ``on_row`` (or an interrupt) stops every in-flight worker before it
    propagates.
    """
    from multiprocessing.connection import wait

    jobs = max(1, int(jobs))
    worker_blob = pickle.dumps(worker)
    rows: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
    requeued = [0] * len(payloads)
    pending = deque(enumerate(payloads))
    active: Dict[int, _Running] = {}
    idle: List[worker_pool.Worker] = []
    try:
        while pending or active:
            while pending and len(active) < jobs:
                idx, payload = pending.popleft()
                slot = idle.pop() if idle else worker_pool.checkout()
                timeout = payload.get("timeout_s") or timeout_s
                active[idx] = _Running(payload, slot, timeout)
                active[idx].start(worker_blob)
            deadlines = [
                r.t0 + r.timeout for r in active.values() if r.timeout is not None
            ]
            wait_s = (
                max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None
            )
            ready = set(wait([r.worker.conn for r in active.values()], wait_s))
            for idx in list(active):
                running = active[idx]
                row = running.settle(ready)
                if row is None:
                    continue
                del active[idx]
                idle.append(running.worker)
                attempt = int(running.payload.get("attempt", 0))
                if row.get("status") == "worker_crashed" and requeued[idx] < retries:
                    requeued[idx] += 1
                    pending.append((idx, dict(running.payload, attempt=attempt + 1)))
                    continue
                rows[idx] = row
                if on_row is not None:
                    on_row(idx, row, attempt)
    finally:
        for running in active.values():
            running.worker.stop()
        worker_pool.checkin(idle)
    return rows


def run_one(
    payload: Dict[str, Any],
    timeout_s: Optional[float] = None,
    bundle_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one work item in a subprocess with a wall-clock timeout.

    A ``timeout_s`` key in the payload overrides the argument.  On timeout
    the child is terminated and the row reports ``status="timeout"`` (with
    an input-preserving bundle when ``bundle_dir`` is set); on a child that
    dies without reporting, ``status="worker_crashed"`` with the exit code.
    """
    if bundle_dir:
        payload = dict(payload, bundle_dir=bundle_dir)
    return run_isolated([payload], 1, timeout_s=timeout_s)[0]


def _worker_crashed_row(
    name: str, exitcode: Optional[int], elapsed_s: float
) -> Dict[str, Any]:
    """Structured row for a worker that died without reporting a result.

    Mirrors :class:`repro.guard.errors.WorkerCrashed`: the raw exit code,
    the decoded signal name (negative exit codes are deaths-by-signal),
    and a status supervisors can key their retry logic off.
    """
    sig = signal_name(exitcode)
    detail = f"signal {sig}" if sig else f"exit code {exitcode}"
    return {
        "name": name,
        "status": "worker_crashed",
        "time_s": round(elapsed_s, 6),
        "error": f"worker died without reporting ({detail})",
        "exitcode": exitcode,
        "signal": sig,
        "bundle_path": None,
    }


def worker_crashed_error(row: Dict[str, Any]) -> "WorkerCrashed":
    """Lift a ``worker_crashed`` row into the exception taxonomy."""
    from repro.guard.errors import WorkerCrashed

    return WorkerCrashed(
        row.get("error") or "worker died without reporting",
        exitcode=row.get("exitcode"),
    )


def timeout_message(timeout: float) -> str:
    """The error text of a work item killed at its wall-clock deadline."""
    return f"exceeded per-instance timeout of {timeout:g}s"


def _timeout_bundle(payload: Dict[str, Any], timeout: float) -> Optional[str]:
    """Preserve a timed-out work item's input as a (non-shrunk) bundle in
    the payload's ``bundle_dir``, if it names one."""
    bundle_dir = payload.get("bundle_dir")
    if not bundle_dir:
        return None
    try:
        instance = _build_instance(payload)
        return write_bundle(
            instance,
            failure_kind="timeout",
            failure_message=timeout_message(timeout),
            options=options_from_dict(payload.get("options", {})),
            bundle_dir=bundle_dir,
        )
    except Exception:  # noqa: BLE001 - bundling best-effort on timeout
        return None


def run_batch(
    payloads: List[Dict[str, Any]],
    timeout_s: Optional[float] = None,
    bundle_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run a list of work items, each isolated; one row per item, always.

    Items run sequentially (measurement noise beats parallel speed for the
    benchmark harness); a timeout or crash in one item never affects the
    rest of the batch.
    """
    if bundle_dir:
        payloads = [dict(p, bundle_dir=bundle_dir) for p in payloads]
    return run_isolated(payloads, 1, timeout_s=timeout_s)


def run_pool(
    payloads: List[Dict[str, Any]],
    jobs: int,
    bundle_dir: Optional[str] = None,
    timeout_s: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Run work items on up to ``jobs`` concurrent worker processes.

    The parallel counterpart of :func:`run_batch`, used by
    :func:`repro.hf.espresso_hf_per_output` for independent per-output
    sub-runs and by the serve daemon's load tooling.  Rows come back in
    payload order, so the caller's merge is deterministic regardless of
    scheduling.  With ``jobs <= 1`` (or a single item) the items run in
    this process — identical semantics, no process overhead.  Otherwise
    the items run on worker processes (:func:`run_isolated`; a worker
    runs items until it dies, times out or reports a ``crash``), so a
    worker killed by a signal yields a ``worker_crashed`` row for *its*
    item while every other item completes normally.
    """
    if bundle_dir:
        payloads = [dict(p, bundle_dir=bundle_dir) for p in payloads]
    jobs = min(int(jobs), len(payloads))
    if jobs <= 1:
        return [minimize_payload(p) for p in payloads]
    return run_isolated(payloads, jobs, timeout_s=timeout_s)
