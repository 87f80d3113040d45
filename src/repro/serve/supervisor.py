"""Job supervision: admission, dedup, retry, quarantine, degradation.

The :class:`Supervisor` is the part of the service that has to survive the
real world.  Every ``minimize`` request flows through one decision ladder,
and every decision is counted through the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``serve.*`` namespace, see
``docs/SERVICE.md``):

1. **Refuse** while draining (``shutting_down``) — shutdown never strands
   a request silently.
2. **Parse & bound** in a worker thread: malformed PLA text is answered
   (``malformed``), oversized instances are shed *before* any expensive
   derived-set computation (``shed``, reason ``oversized``).  The daemon
   does not validate the instance: the worker does, once per miss, and an
   instance it rejects is answered ``malformed`` and negatively cached
   like a parse error.  A hit needs no validation, since its canonical
   key is that of an instance a worker already validated.
3. **Canonicalize** (:mod:`repro.serve.canon`) and check the
   **quarantine**: an instance that already killed
   ``quarantine_threshold`` workers is refused with its repro bundle —
   a poison job is evidence, not a retry loop.
4. **Cache** (:mod:`repro.serve.cache`): a hit is served without
   minimizing — the cached canonical cover, or a ``no_solution``
   verdict's failing required cubes, is mapped into the requester's
   variable labeling, and the error names the requester's instance.
5. **Coalesce**: an identical job already in flight is awaited, not
   re-run; both requesters get the one result.
6. **Admit or shed**: a bounded queue plus an estimated-wait bound
   (EWMA of recent job times); shed responses carry ``retry_after_s``.
7. **Run** on an isolated worker process (:func:`repro.guard.runner.run_one`)
   with a wall-clock deadline, after which the worker is SIGTERMed;
   *worker death* — and only worker death, which is the one retry-safe
   failure in the :mod:`repro.guard.errors` taxonomy — is retried under
   exponential backoff with jitter, on the fresh worker that replaces
   the dead one, at most ``max_retries`` times, with the crash count
   feeding the quarantine.
8. **Serve degraded results explicitly**: a budget-exhausted run returns
   its best *verified* snapshot with ``status="degraded"`` rather than
   failing the request.

Workers are **reused until they fail**: each concurrent worker thread
holds one worker process (``--workers N`` means at most N), forked from
the daemon at the thread's first miss.  A worker runs jobs until it
dies, times out or reports a ``crash``, so a miss pays no fork or reap;
once it is gone, the thread's next job forks a fresh one, so "automatic
respawn" is structural.  A worker that died while idle costs that next
job one ``worker_crashed`` attempt, retried like any other worker death
(see :func:`repro.guard.runner.run_isolated`, the scheduler behind
``run_one``, and :mod:`repro.guard.workers`).
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.guard.bundle import options_from_dict, write_bundle
from repro.guard.errors import (
    BY_WIRE,
    OUTCOMES,
    MalformedInstance,
    no_solution_message,
)
from repro.guard.runner import cover_from_row, pla_payload, run_one
from repro.obs import MetricsRegistry
from repro.obs.metrics import TIME_BUCKETS_S
from repro.serve.cache import MalformedCache, ResultCache, options_fingerprint
from repro.serve.canon import CanonicalForm, canonicalize
from repro.serve.protocol import Request, response


@dataclass
class ServeConfig:
    """Operating envelope of the daemon (see ``docs/SERVICE.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced on stdout
    workers: int = 2
    queue_limit: int = 32
    max_wait_s: float = 30.0
    max_inputs: int = 24
    max_cubes: int = 2048
    max_transitions: int = 1024
    job_timeout_s: float = 60.0
    budget_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    quarantine_threshold: int = 2
    cache_entries: int = 1024
    malformed_cache_entries: int = 1024
    canon_memo_entries: int = 512
    bundle_dir: str = "artifacts"
    drain_timeout_s: float = 30.0
    allow_test_faults: bool = False
    allow_remote_shutdown: bool = True
    checked: bool = False
    seed: int = 0
    initial_job_estimate_s: float = 0.2
    max_line_bytes: int = 4 * 1024 * 1024


@dataclass
class _Job:
    """One unit of work headed for an isolated worker process."""

    cache_key: tuple
    pla_text: str
    name: str
    canon: CanonicalForm
    instance: Any
    options_dict: Dict[str, Any]
    checked: bool
    no_cache: bool
    timeout_s: float
    inject: Optional[Dict[str, Any]]
    future: "asyncio.Future" = field(repr=False, default=None)
    enqueued_at: float = 0.0
    #: the worker's cover text, already in this requester's labels and
    #: name, once this job has run; coalesced followers and hits have none
    cover_pla: Optional[str] = None


class Supervisor:
    """Fault-tolerant scheduler over isolated worker processes.

    A worker runs jobs until it dies, times out or reports a ``crash``.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self.cache = ResultCache(self.config.cache_entries)
        self.cache.on_evict = lambda: self._count("serve.cache_evictions")
        self.malformed_cache = MalformedCache(
            self.config.malformed_cache_entries
        )
        # Canonicalization is a pure function of the PLA text, so repeated
        # submissions of byte-identical text can skip parse + bounds +
        # canonicalize entirely.  Keyed by text digest; LRU-bounded.
        self._canon_memo: "OrderedDict[str, Tuple[CanonicalForm, str]]" = (
            OrderedDict()
        )
        self._canon_memo_lock = threading.Lock()
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        self._inflight: Dict[tuple, asyncio.Future] = {}
        self._open_futures: set = set()
        self._crash_counts: Dict[tuple, int] = {}
        self._quarantined: Dict[tuple, Optional[str]] = {}
        self._rng = random.Random(self.config.seed)
        self._workers: list = []
        self._draining = False
        self._open_jobs = 0
        self._job_ewma_s = self.config.initial_job_estimate_s

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        for i in range(max(1, self.config.workers)):
            self._workers.append(
                asyncio.ensure_future(self._worker_loop(i))
            )

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Refuse new work, wait for in-flight jobs, stop the workers.

        Returns True when every in-flight job completed inside the
        timeout.  Workers are cancelled either way — after a clean drain
        they are idle; after a timed-out drain whatever job is still
        running is abandoned (its subprocess dies with the daemon).
        """
        self._draining = True
        timeout = self.config.drain_timeout_s if timeout_s is None else timeout_s
        pending = [f for f in self._open_futures if not f.done()]
        clean = True
        if pending:
            done, not_done = await asyncio.wait(pending, timeout=timeout)
            clean = not not_done
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        return clean

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    async def handle_minimize(self, req: Request) -> Dict[str, Any]:
        """The full decision ladder for one minimize request."""
        t0 = time.perf_counter()
        resp = await self._handle_minimize(req)
        self.registry.histogram(
            "serve.request_seconds", TIME_BUCKETS_S
        ).observe(time.perf_counter() - t0)
        return resp

    async def _handle_minimize(self, req: Request) -> Dict[str, Any]:
        cfg = self.config
        if self._draining:
            self._count("serve.refused_shutdown")
            return response(
                req.id, "shutting_down", error="daemon is draining"
            )

        # Negative cache: a deterministic rejection of this exact text (a
        # parse error here, or a worker's validation error) was already
        # answered once — coalesce repeats onto it without paying the
        # prepare thread or a worker again.  Fault-injected and
        # no_cache requests opt out, mirroring the positive cache.
        use_negative = not req.no_cache and req.inject is None
        if use_negative:
            cached_error = self.malformed_cache.get(
                MalformedCache.key_for(req.pla)
            )
            if cached_error is not None:
                self._count("serve.malformed")
                self._count("serve.malformed_cached")
                return response(
                    req.id, "malformed", error=cached_error, cached=True
                )

        try:
            prepared = await asyncio.to_thread(self._prepare, req)
        except MalformedInstance as exc:
            self._count("serve.malformed")
            if use_negative:
                self.malformed_cache.put(
                    MalformedCache.key_for(req.pla), str(exc)
                )
            return response(req.id, "malformed", error=str(exc))
        except _Oversized as exc:
            self._count("serve.shed_oversized")
            return response(
                req.id, "shed", reason="oversized", error=str(exc)
            )
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self._count("serve.internal_errors")
            return response(
                req.id, "error", error=f"{type(exc).__name__}: {exc}"
            )

        job = prepared
        key = job.cache_key

        if key in self._quarantined:
            self._count("serve.quarantined_refusals")
            return response(
                req.id,
                "quarantined",
                error="instance previously killed "
                f"{self._crash_counts.get(key, 0)} workers",
                bundle_path=self._quarantined[key],
                key=key[0],
            )

        if not job.no_cache:
            entry = self.cache.get(key)
            if entry is not None:
                self._count("serve.cache_hits")
                return self._respond_from_canonical(
                    req, job, entry, cached=True
                )
            self._count("serve.cache_misses")

        # no_cache (and any fault-injected request, which implies it)
        # also opts out of coalescing: those are independent experiments,
        # not interchangeable results.
        inflight = None if job.no_cache else self._inflight.get(key)
        if inflight is not None and not inflight.done():
            self._count("serve.coalesced")
            outcome = await asyncio.shield(inflight)
            return self._respond_from_canonical(
                req, job, outcome, cached=False, coalesced=True
            )

        # Admission control: bounded queue depth, bounded estimated wait.
        if self._open_jobs >= cfg.queue_limit:
            self._count("serve.shed_queue")
            return response(
                req.id,
                "shed",
                reason="queue_full",
                retry_after_s=round(self._estimated_wait_s(), 3),
            )
        estimated = self._estimated_wait_s()
        if estimated > cfg.max_wait_s:
            self._count("serve.shed_wait")
            return response(
                req.id,
                "shed",
                reason="overloaded",
                retry_after_s=round(estimated, 3),
            )

        self._count("serve.admitted")
        loop = asyncio.get_event_loop()
        job.future = loop.create_future()
        job.enqueued_at = time.perf_counter()
        self._open_futures.add(job.future)
        if not job.no_cache:
            self._inflight[key] = job.future
        self._open_jobs += 1
        self.registry.gauge("serve.queue_depth").set(self._queue.qsize() + 1)
        self.registry.gauge("serve.inflight").set(self._open_jobs)
        await self._queue.put(job)
        # Hard upper bound so a supervisor bug can never hang a client:
        # every attempt is itself deadline-capped, so this only fires if
        # the worker machinery wedges entirely.
        bound = (cfg.max_retries + 1) * (
            job.timeout_s + cfg.backoff_cap_s
        ) + 30.0
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(job.future), timeout=bound
            )
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            self._count("serve.internal_errors")
            return response(
                req.id, "error", error="supervisor deadline exceeded"
            )
        return self._respond_from_canonical(req, job, outcome, cached=False)

    # ------------------------------------------------------------------

    def _prepare(self, req: Request) -> _Job:
        """Parse, bound-check, and canonicalize (runs in a thread).

        The instance is built unvalidated: validation is the worker's
        (:func:`~repro.guard.runner.minimize_payload`).  Every rule it
        checks is invariant under the permutations and flips that
        canonicalization applies, so an instance that would fail it never
        shares a cache key with one that passed it, and a hit needs none.
        """
        from repro.pla import parse_pla

        cfg = self.config
        digest = MalformedCache.key_for(req.pla)
        with self._canon_memo_lock:
            memo = self._canon_memo.get(digest)
            if memo is not None:
                self._canon_memo.move_to_end(digest)
        if memo is not None:
            # Byte-identical text was prepared before: parse, bounds, and
            # canonicalize are all pure functions of the text, so the
            # stored result is exact.  The instance itself is not kept
            # (the worker re-parses in its own process anyway).
            canon, name = memo
            instance = None
            self._count("serve.canon_memo_hits")
        else:
            # Recover the conventional leading "# name" comment so served
            # covers are byte-identical to offline runs of the same text.
            name = "request"
            stripped = req.pla.lstrip()
            if stripped.startswith("#"):
                candidate = stripped.splitlines()[0][1:].strip()
                if candidate:
                    name = candidate.split()[0]
            try:
                pla = parse_pla(req.pla, name=name)
            except ValueError as exc:
                raise MalformedInstance(str(exc)) from exc
            n_cubes = len(pla.on) + len(pla.off)
            if (
                pla.n_inputs > cfg.max_inputs
                or n_cubes > cfg.max_cubes
                or len(pla.transitions) > cfg.max_transitions
            ):
                raise _Oversized(
                    f"instance exceeds service limits ({pla.n_inputs} "
                    f"inputs, {n_cubes} cubes, {len(pla.transitions)} "
                    f"transitions; limits {cfg.max_inputs}/{cfg.max_cubes}/"
                    f"{cfg.max_transitions})"
                )
            try:
                instance = pla.to_instance(validate=False)
            except ValueError as exc:
                raise MalformedInstance(str(exc)) from exc
            canon = canonicalize(instance)
            name = instance.name
            with self._canon_memo_lock:
                self._canon_memo[digest] = (canon, name)
                while len(self._canon_memo) > cfg.canon_memo_entries:
                    self._canon_memo.popitem(last=False)

        options_dict = dict(req.options or {})
        budget_s = req.budget_s if req.budget_s is not None else cfg.budget_s
        if budget_s is not None:
            options_dict["budget"] = {
                "wall_s": budget_s,
                "max_iterations": None,
                "max_checkpoints": None,
            }
        # Validate the options snapshot early: a bad field is the
        # requester's error, not a worker crash three retries later.
        options_from_dict(options_dict)
        checked = bool(req.checked or cfg.checked)
        fingerprint = options_fingerprint(
            dict(options_dict, checked=checked)
        )
        inject = req.inject if cfg.allow_test_faults else None
        timeout_s = min(
            float(req.timeout_s or cfg.job_timeout_s), cfg.job_timeout_s
        )
        return _Job(
            cache_key=(canon.key, fingerprint),
            pla_text=req.pla,
            name=name,
            canon=canon,
            instance=instance,
            options_dict=options_dict,
            checked=checked,
            no_cache=bool(req.no_cache) or inject is not None,
            timeout_s=timeout_s,
            inject=inject,
        )

    def _respond_from_canonical(
        self,
        req: Request,
        job: _Job,
        outcome: Dict[str, Any],
        cached: bool,
        coalesced: bool = False,
    ) -> Dict[str, Any]:
        """Map a canonical-space outcome into the requester's labeling."""
        status = outcome["status"]
        fields: Dict[str, Any] = {
            "key": job.cache_key[0],
            "cached": cached,
        }
        if coalesced:
            fields["coalesced"] = True
        for name in (
            "error",
            "bundle_path",
            "attempts",
            "time_s",
            "num_cubes",
            "num_literals",
        ):
            if outcome.get(name) is not None:
                fields[name] = outcome[name]
        failures = outcome.get("failures")
        if failures is not None:
            cubes = job.canon.inputs_from_canonical([c for c, _ in failures])
            fields["error"] = no_solution_message(
                job.name, [(c, j) for c, (_, j) in zip(cubes, failures)]
            )
        has_cover = BY_WIRE[status].cover
        if has_cover and outcome.get("cover_cubes") is not None:
            # The job's own requester gets the worker's text verbatim: the
            # relabeling and its inverse keep cube order, so formatting
            # the canonical rows back would give the same bytes.
            cover_pla = job.cover_pla
            if cover_pla is None:
                from repro.pla import format_cover

                cover = job.canon.cover_from_canonical(cover_from_row(outcome))
                cover_pla = format_cover(
                    cover, pla_type="f", name=f"{job.name} minimized"
                )
            fields["cover_pla"] = cover_pla
        if has_cover and status != "ok":
            self._count("serve.degraded_served")
        return response(req.id, status, **fields)

    def _estimated_wait_s(self) -> float:
        workers = max(1, self.config.workers)
        return self._open_jobs * self._job_ewma_s / workers

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).inc(n)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        while True:
            job = await self._queue.get()
            self.registry.gauge("serve.queue_depth").set(self._queue.qsize())
            started = time.perf_counter()
            self.registry.histogram(
                "serve.queue_wait_seconds", TIME_BUCKETS_S
            ).observe(started - job.enqueued_at)
            try:
                outcome = await self._run_job(job)
            except asyncio.CancelledError:
                if job.future and not job.future.done():
                    job.future.set_result(
                        {"status": "error", "error": "daemon shut down"}
                    )
                raise
            except Exception as exc:  # noqa: BLE001 - resolve, never hang
                self._count("serve.internal_errors")
                outcome = {
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            elapsed = time.perf_counter() - started
            self._job_ewma_s = 0.7 * self._job_ewma_s + 0.3 * elapsed
            self._open_jobs -= 1
            self.registry.gauge("serve.inflight").set(self._open_jobs)
            self._open_futures.discard(job.future)
            if self._inflight.get(job.cache_key) is job.future:
                del self._inflight[job.cache_key]
            if not job.no_cache:
                if BY_WIRE[outcome["status"]].cacheable:
                    self.cache.put(job.cache_key, outcome)
                elif outcome["status"] == "malformed":
                    # The worker rejected the text: as deterministic as a
                    # parse error, so a resubmit is answered without one.
                    self.malformed_cache.put(
                        MalformedCache.key_for(job.pla_text), outcome["error"]
                    )
            if not job.future.done():
                job.future.set_result(outcome)

    async def _run_job(self, job: _Job) -> Dict[str, Any]:
        """Run one job with bounded retries on worker death."""
        cfg = self.config
        attempt = 0
        while True:
            payload = pla_payload(
                job.pla_text,
                name=job.name,
                options=None,
                checked=job.checked,
                verify=True,
            )
            payload["options"] = dict(job.options_dict)
            if job.inject is not None:
                payload["inject"] = dict(job.inject)
            payload["attempt"] = attempt
            row = await asyncio.to_thread(
                run_one,
                payload,
                timeout_s=job.timeout_s,
                bundle_dir=cfg.bundle_dir,
            )
            status = row["status"]
            if status != "worker_crashed":
                # The worker survived and reported: whatever the verdict,
                # this instance is not poison.  Only *consecutive* deaths
                # (within or across requests) count toward quarantine.
                self._crash_counts.pop(job.cache_key, None)
                job.cover_pla = row.get("cover_pla")
                return self._outcome_from_row(job, row, attempt)

            self._count(OUTCOMES["worker_crashed"].counter)
            crashes = self._crash_counts.get(job.cache_key, 0) + 1
            self._crash_counts[job.cache_key] = crashes
            if crashes >= cfg.quarantine_threshold:
                bundle_path = self._quarantine(job, crashes, row)
                return {
                    "status": "quarantined",
                    "error": f"poison job: killed {crashes} workers "
                    f"({row.get('error')})",
                    "bundle_path": bundle_path,
                    "attempts": attempt + 1,
                }
            if attempt >= cfg.max_retries:
                return {
                    "status": "worker_crashed",
                    "error": row.get("error"),
                    "attempts": attempt + 1,
                }
            attempt += 1
            self._count("serve.retries")
            backoff = min(
                cfg.backoff_cap_s,
                cfg.backoff_base_s * (2 ** (attempt - 1)),
            ) * (0.5 + 0.5 * self._rng.random())
            await asyncio.sleep(backoff)

    def _outcome_from_row(
        self, job: _Job, row: Dict[str, Any], attempt: int
    ) -> Dict[str, Any]:
        """Canonical-space outcome for a row the worker reported itself."""
        row_outcome = OUTCOMES.get(row["status"], OUTCOMES["crash"])
        self._count(row_outcome.counter)
        outcome: Dict[str, Any] = {
            "status": row_outcome.wire,
            "error": row.get("error"),
            "bundle_path": row.get("bundle_path"),
            "attempts": attempt + 1,
            "time_s": row.get("time_s"),
            "num_cubes": row.get("num_cubes"),
            "num_literals": row.get("num_literals"),
        }
        failures = row.get("failures")
        if failures is not None:
            # Like a cover, the failing cubes are kept in canonical labels
            # and without the instance name: each reply re-renders the
            # error in its own requester's name and labels.
            cubes = job.canon.inputs_to_canonical([f[0] for f in failures])
            outcome["failures"] = [
                (cube, f[1]) for cube, f in zip(cubes, failures)
            ]
            outcome["error"] = None
        if row_outcome.cover and row.get("cover_cubes") is not None:
            canonical = job.canon.cover_to_canonical(cover_from_row(row))
            outcome["cover_cubes"] = tuple(
                (c.inbits, c.outbits) for c in canonical
            )
            outcome["n_inputs"] = canonical.n_inputs
            outcome["n_outputs"] = canonical.n_outputs
        return outcome

    def _quarantine(
        self, job: _Job, crashes: int, row: Dict[str, Any]
    ) -> Optional[str]:
        """Record a poison job: refuse future submissions, keep evidence."""
        self._count("serve.quarantined")
        bundle_path: Optional[str] = None
        try:
            instance = job.instance
            if instance is None:
                # The job was prepared from the canonicalization memo;
                # rebuild the instance from the text for the bundle.
                from repro.pla import parse_pla

                instance = parse_pla(
                    job.pla_text, name=job.name
                ).to_instance()
            bundle_path = write_bundle(
                instance,
                failure_kind="crash",
                failure_message=(
                    f"poison job: killed {crashes} workers; last death: "
                    f"{row.get('error')}"
                ),
                options=options_from_dict(job.options_dict),
                bundle_dir=self.config.bundle_dir,
            )
        except Exception:  # noqa: BLE001 - quarantine must not fail the reply
            pass
        self._quarantined[job.cache_key] = bundle_path
        return bundle_path

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "queue_depth": self._queue.qsize(),
            "open_jobs": self._open_jobs,
            "inflight": len(self._inflight),
            "draining": self._draining,
            "estimated_wait_s": round(self._estimated_wait_s(), 4),
            "cache": self.cache.stats(),
            "malformed_cache": self.malformed_cache.stats(),
            "canon_memo_entries": len(self._canon_memo),
            "quarantined": len(self._quarantined),
            "metrics": self.registry.snapshot(),
        }


class _Oversized(Exception):
    """Instance exceeds the admission size limits (shed, not malformed)."""
