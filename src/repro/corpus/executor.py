"""Shard executor: shared queue, crash isolation, resume.

The corpus-scale front end of :func:`repro.guard.runner.run_isolated`,
the package's one crash-isolated process scheduler.  Three ideas compose:

**Work stealing over a shared queue.**  Payloads go into one pending
queue; up to ``jobs`` worker *slots* pull from it, and a slot takes the
next task the moment its previous one finishes.  Instance cost in a
stratified corpus is wildly non-uniform (a ``medium`` exact run can cost
1000× a ``tiny`` one), so static sharding would leave most slots idle
behind the slowest shard; the shared queue keeps every slot busy until
the queue drains.

**Crash isolation via worker processes.**  Each task runs outside the
caller, on a spare that its slot's zygote forked ahead of demand
(:mod:`repro.guard.zygote`); a spare runs tasks until it dies, times out
or reports a ``crash``, and its zygote then forks a fresh one.  A worker
SIGKILLed mid-task yields a
structured ``worker_crashed`` row for *that* task — exit signal
attached, retried up to ``retries`` times since a vanished worker does
not indict the instance — while every other task proceeds.  A long-lived pool cannot
promise that (a dead pool worker can hang ``Pool.map`` forever), and a
hang is the one failure a 10k-instance overnight run cannot absorb.
Per-task wall-clock timeouts terminate overrunners the same way.  Both
ideas live in the scheduler; this module adds task identity and
bookkeeping.

**Resumable checkpointing.**  Completed rows append to an NDJSON
checkpoint file keyed by task id, flushed per row.  Re-running the same
command with the same checkpoint path skips exactly the completed tasks
(a torn final line from a killed run is detected and ignored), so an
interrupted overnight sweep resumes instead of restarting.

The worker body is dispatched per-payload through :data:`WORKERS` —
``"minimize"`` (the guard runner's single-minimizer body) or
``"differential"`` (:mod:`repro.corpus.differential`) — and the NDJSON
line codec (:func:`encode_line` / :func:`decode_line`) doubles as the
transport seam: :mod:`repro.corpus.worker` reads task lines on stdin and
writes row lines on stdout, so a shard can run on a remote machine behind
nothing fancier than an ssh pipe.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.guard.runner import minimize_payload, run_isolated


def _differential_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.corpus.differential import run_differential_payload

    return run_differential_payload(payload)


#: payload["worker"] -> in-process body; every body returns a structured
#: row and never raises (the isolation boundary catches what slips)
WORKERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "minimize": minimize_payload,
    "differential": _differential_worker,
}


def resolve_worker(payload: Dict[str, Any]) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    name = payload.get("worker", "minimize")
    worker = WORKERS.get(name)
    if worker is None:
        raise ValueError(
            f"unknown worker {name!r}; known: {sorted(WORKERS)}"
        )
    return worker


def _dispatch(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The isolated worker body: run the payload's registered worker."""
    return resolve_worker(payload)(payload)


def task_id(payload: Dict[str, Any]) -> str:
    """Stable identity of one task (checkpoint key)."""
    tid = payload.get("task_id") or payload.get("name")
    if not tid:
        raise ValueError("payload needs a 'task_id' or 'name' key")
    return str(tid)


# ----------------------------------------------------------------------
# NDJSON line codec (the transport seam)
# ----------------------------------------------------------------------


def encode_line(obj: Dict[str, Any]) -> str:
    """One NDJSON line (no trailing newline; caller appends)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def decode_line(line: str) -> Optional[Dict[str, Any]]:
    """Parse one NDJSON line; ``None`` for blank or torn lines."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------


class Checkpoint:
    """Append-only NDJSON record of completed tasks, keyed by task id.

    Each line is ``{"task": <id>, "row": {...}}``.  Loading tolerates a
    torn final line (the writer died mid-append); appends flush per row
    so at most one row can ever be torn.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None

    def load(self) -> Dict[str, Dict[str, Any]]:
        rows: Dict[str, Dict[str, Any]] = {}
        if not self.path.exists():
            return rows
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                obj = decode_line(line)
                if obj is None or "task" not in obj or "row" not in obj:
                    continue
                rows[str(obj["task"])] = obj["row"]
        return rows

    def append(self, tid: str, row: Dict[str, Any]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(encode_line({"task": tid, "row": row}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def run_task_isolated(
    payload: Dict[str, Any],
    timeout_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one task in its own process with a wall-clock timeout (the
    remote shard's per-task cell in :mod:`repro.corpus.worker`)."""
    return run_isolated([payload], 1, worker=_dispatch, timeout_s=timeout_s)[0]


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


@dataclass
class ExecutorStats:
    """What one :meth:`ShardExecutor.run` actually did."""

    total: int = 0
    executed: int = 0
    from_checkpoint: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "executed": self.executed,
            "from_checkpoint": self.from_checkpoint,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "wall_s": round(self.wall_s, 6),
        }


class ShardExecutor:
    """Task identity, checkpointing and stats over
    :func:`~repro.guard.runner.run_isolated`.

    Parameters
    ----------
    jobs:
        concurrent worker slots (``<= 1`` runs tasks isolated but
        serially — same rows, no concurrency).
    timeout_s:
        default per-task wall-clock timeout; a ``timeout_s`` payload key
        overrides per task.
    checkpoint:
        path of the resumable NDJSON checkpoint; ``None`` disables.
    retries:
        how many times a ``worker_crashed`` task is re-queued before its
        crash row is accepted as final.  Only worker death retries —
        every other status is an answer about the instance, and retrying
        a timeout would double the cost of exactly the tasks that are
        already the most expensive.
    on_row:
        callback ``(task_id, row) -> None`` fired once per *final* row
        (checkpointed rows replay through it on resume too, flagged by
        ``row["from_checkpoint"]``).
    """

    def __init__(
        self,
        jobs: int = 2,
        timeout_s: Optional[float] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        retries: int = 1,
        bundle_dir: Optional[str] = None,
        on_row: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.checkpoint = Checkpoint(checkpoint) if checkpoint else None
        self.retries = max(0, int(retries))
        self.bundle_dir = bundle_dir
        self.on_row = on_row

    def run(
        self, payloads: List[Dict[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], ExecutorStats]:
        """Run every payload; returns (rows in payload order, stats).

        Rows come back in *payload* order regardless of completion order,
        so downstream merges are deterministic; the scoreboard's metric
        merge is associative precisely so this ordering guarantee is a
        convenience, not a correctness requirement.
        """
        t_start = time.perf_counter()
        stats = ExecutorStats(total=len(payloads))
        ids = [task_id(p) for p in payloads]
        if len(set(ids)) != len(ids):
            dupe = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate task id {dupe!r} in corpus payloads")
        if self.bundle_dir:
            payloads = [dict(p, bundle_dir=self.bundle_dir) for p in payloads]

        rows: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
        done = self.checkpoint.load() if self.checkpoint else {}
        todo: List[int] = []
        for i, tid in enumerate(ids):
            if tid in done:
                row = dict(done[tid], from_checkpoint=True)
                rows[i] = row
                stats.from_checkpoint += 1
                if self.on_row:
                    self.on_row(tid, row)
            else:
                todo.append(i)

        def finish(k: int, row: Dict[str, Any], attempt: int) -> None:
            idx = todo[k]
            rows[idx] = row
            stats.executed += 1
            stats.retries += attempt
            if row.get("status") == "timeout":
                stats.timeouts += 1
            elif row.get("status") == "worker_crashed":
                stats.worker_crashes += 1
            if self.checkpoint:
                self.checkpoint.append(ids[idx], row)
            if self.on_row:
                self.on_row(ids[idx], row)

        try:
            run_isolated(
                [dict(payloads[i], attempt=0) for i in todo],
                self.jobs,
                worker=_dispatch,
                timeout_s=self.timeout_s,
                retries=self.retries,
                on_row=finish,
            )
        finally:
            if self.checkpoint:
                self.checkpoint.close()
        stats.wall_s = time.perf_counter() - t_start
        return [r for r in rows if r is not None], stats


def run_corpus(
    payloads: List[Dict[str, Any]],
    jobs: int = 2,
    timeout_s: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    retries: int = 1,
    bundle_dir: Optional[str] = None,
    on_row: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> Tuple[List[Dict[str, Any]], ExecutorStats]:
    """One-call façade over :class:`ShardExecutor` (scripts/corpus_run.py)."""
    executor = ShardExecutor(
        jobs=jobs,
        timeout_s=timeout_s,
        checkpoint=checkpoint,
        retries=retries,
        bundle_dir=bundle_dir,
        on_row=on_row,
    )
    return executor.run(payloads)
