"""Workers: the long-lived processes that run isolated jobs, one per slot.

Forking the caller for every work item puts the fork, the child's
start-up page faults and the reap on the request's clock, and write-
protects every page of the caller (a 40 MB ``serve`` daemon takes a
copy-on-write fault on each page it touches after each fork).  Instead,
each concurrent slot has one **worker** process, which the caller forks
at the slot's first job and reuses until it fails:

1. the caller sends one job (a payload and a pickled worker callable)
   over the worker's duplex pipe;
2. the worker runs the job, sends its row back on the same pipe and
   waits for the next job, so a job pays neither a fork nor a reap and
   runs in an interpreter that earlier jobs have warmed;
3. a worker that dies, times out or reports a ``crash`` (after which its
   interpreter state is unknown, so it exits once the row is sent) is
   reaped and forgotten, and the slot's next job forks a fresh one (a
   replacement pays the fork, and the caller's copy-on-write faults,
   again).

The caller stops a worker past its deadline with SIGTERM, then SIGKILL.
A worker that dies while idle is found dead by the next job, whose
report is then ``died``.

Lifetime: a worker exits on EOF of its pipe.  It cannot outlive its
creator, since the creator's exit closes the pipe; at a normal exit the
creator also reaps its idle workers.

A worker resets the signal dispositions and the signal wakeup
descriptor it inherited from the caller (so a SIGTERM at its deadline
runs no handler of the caller's) and keeps only its pipe and stdio (so
it holds none of the caller's sockets, nor another slot's pipe).

:func:`checkout` and :func:`checkin` keep the workers in a lock-guarded
process-wide pool; a worker serves one caller at a time.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from typing import Any, List, Optional, Tuple

from repro.guard.bundle import describe_exception

#: seconds a stopped or shut-down worker has to die before a SIGKILL
STOP_GRACE_S = 1.0


# ----------------------------------------------------------------------
# Inside the worker
# ----------------------------------------------------------------------


def _retires(row: Any) -> bool:
    """True for a row after which its worker exits: a ``crash`` row."""
    return isinstance(row, dict) and row.get("status") == "crash"


def _scrub_descriptors(keep: int) -> None:  # pragma: no cover - in the worker
    """Point every inherited descriptor but stdio and ``keep`` at /dev/null.

    This closes what each descriptor referred to (the caller's listening
    and client sockets, its signal wakeup socket, other workers' pipes)
    while the number stays taken, so a stale Python object that later
    closes its old descriptor (a collected socket, say) cannot close a
    descriptor the worker has opened since.
    """
    null = os.open(os.devnull, os.O_RDWR)
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    for name in os.listdir(fd_dir):
        fd = int(name)
        if fd > 2 and fd not in (keep, null):
            try:
                os.dup2(null, fd)
            except OSError:  # the listing's own descriptor, already closed
                pass
    os.close(null)


def _worker_main(conn) -> None:  # pragma: no cover - runs in the worker
    """Run jobs and send their rows until EOF or a ``crash`` row."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _scrub_descriptors(conn.fileno())
    while True:
        try:
            job = conn.recv_bytes()
        except (EOFError, OSError):  # no job is coming
            return
        payload, worker_blob = pickle.loads(job)
        try:
            row = pickle.loads(worker_blob)(payload)
        except BaseException as exc:  # noqa: BLE001 - last-resort isolation
            row = {
                "name": payload.get("name", "instance"),
                "status": "crash",
                "error": describe_exception(exc),
                "bundle_path": None,
            }
        try:
            conn.send(row)
        except Exception:  # noqa: BLE001 - the caller will report a death
            return
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:  # noqa: BLE001 - a closed stream loses nothing
                pass
        if _retires(row):
            return


# ----------------------------------------------------------------------
# The caller's side
# ----------------------------------------------------------------------


class Worker:
    """The caller's handle on one slot's worker: process, pipe and pid.

    There is no process until the first :meth:`submit`, nor after a
    death, a ``crash`` row or a :meth:`stop`, until the next one.
    ``conn`` becomes readable when the job in flight has a report.
    """

    def __init__(self) -> None:
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        #: pid of the worker process, while there is one
        self.pid: Optional[int] = None

    def submit(self, job: bytes) -> int:
        """Send one job, forking the worker first if there is none.

        Returns the worker's pid.  A worker that died while idle cannot
        take the job; :meth:`report` then finds it dead.
        """
        if self.proc is None:
            ctx = multiprocessing.get_context("fork")
            self.conn, child = ctx.Pipe()
            self.proc = ctx.Process(
                target=_worker_main, args=(child,), name="repro-worker", daemon=True
            )
            self.proc.start()
            child.close()
            # The pool, not the caller of the moment, owns a worker: it is
            # no transient child of whoever happened to start it.
            multiprocessing.process._children.discard(self.proc)
            self.pid = self.proc.pid
        try:
            self.conn.send_bytes(job)
        except OSError:  # dead before its job: its death is the report
            pass
        return self.pid

    def report(self) -> Tuple[str, Any]:
        """The outcome of the job in flight, once ``conn`` is readable.

        ``("row", row)``, or ``("died", exitcode)`` for a worker that died
        without reporting.  The worker stays for the next job unless it
        died or sent a ``crash`` row; then it is reaped and forgotten.
        """
        try:
            row = self.conn.recv()
        except (EOFError, OSError):
            return "died", self.shut_down()
        if _retires(row):
            self.shut_down()  # the worker exits after a crash row
        return "row", row

    def stop(self) -> None:
        """SIGTERM the worker at its deadline, then reap it.

        A worker still alive after :data:`STOP_GRACE_S` is SIGKILLed.  A
        row it sent before the signal is dropped with it.
        """
        if self.proc is not None:
            self.proc.terminate()
        self.shut_down()

    def shut_down(self) -> Optional[int]:
        """Close the pipe and reap the worker; returns its exit code.

        An idle worker exits on the EOF; one that has not died within
        :data:`STOP_GRACE_S` is SIGKILLed.
        """
        if self.proc is None:
            return None
        self.conn.close()
        self.proc.join(STOP_GRACE_S)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()
        exitcode = self.proc.exitcode
        self.proc = self.conn = self.pid = None
        return exitcode


_pool_lock = threading.Lock()
_pool: List[Worker] = []


def checkout() -> Worker:
    """An idle worker from the pool, or a new one."""
    with _pool_lock:
        if _pool:
            return _pool.pop()
    return Worker()


def checkin(workers: List[Worker]) -> None:
    """Return idle workers to the pool."""
    with _pool_lock:
        _pool.extend(workers)


def _shut_down_pool() -> None:
    """At exit: reap the idle workers instead of orphaning them."""
    with _pool_lock:
        workers = list(_pool)
        _pool.clear()
    for worker in workers:
        worker.shut_down()


def _forget_pool() -> None:
    """In a forked child: the parent's workers are not the child's."""
    global _pool, _pool_lock
    for worker in _pool:
        if worker.conn is not None:
            worker.conn.close()
    _pool, _pool_lock = [], threading.Lock()


atexit.register(_shut_down_pool)
os.register_at_fork(after_in_child=_forget_pool)
