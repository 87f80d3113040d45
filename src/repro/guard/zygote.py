"""Zygotes: the long-lived fork parents of the isolated worker processes.

Forking the caller for every work item puts the fork, the child's
start-up page faults and the reap on the request's clock, and write-
protects every page of the caller (a 40 MB ``serve`` daemon takes a
copy-on-write fault on each page it touches after each fork).  Instead,
a caller forks one **zygote** per concurrent slot, once.  The zygote
keeps one **spare** worker forked ahead of demand, and the spare stays
for the next job, so a job pays neither a fork nor a reap, and runs in
an interpreter that earlier jobs have warmed:

1. the zygote forks a spare and tells the caller its pid (``ready``);
2. the caller sends one job (a payload and a pickled worker callable);
   the zygote hands it to the spare over the spare's own job pipe;
3. the spare runs the job, sends its row to the zygote and waits for the
   next job on the same pipe: a spare runs jobs until it dies, times out
   or reports a ``crash`` (after which its interpreter state is unknown,
   so it exits once the row is sent);
4. the zygote forwards the row, or reaps a spare that died without one
   and reports its exit code (``died``); only once its spare is gone
   does it fork the next one.

The caller stops a spare past its deadline by pid, and learns of its
death from the zygote.  A spare that dies while idle is found dead by
the next job, which the zygote reports as ``died``.  A zygote that dies
between jobs is replaced before the next job is handed over, so that
job runs on a fresh zygote; one that dies while its spare holds a job is
``lost``, and the caller kills the orphaned spare.

Lifetime: a zygote exits on EOF of its control pipe, killing its spare;
a spare exits on EOF of its job pipe, which it sees once its zygote is
gone.  Neither can outlive its creator, since the creator's exit closes
the control pipe; at a normal exit the creator also reaps its idle
zygotes.

A zygote resets the signal dispositions and the signal wakeup
descriptor it inherited from the caller (so a SIGTERM at a worker's
deadline runs no handler of the caller's) and keeps only its control
pipe and stdio (so it holds none of the caller's sockets).

:func:`checkout` and :func:`checkin` keep the zygotes in a lock-guarded
process-wide pool; a zygote serves one caller at a time.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from multiprocessing.connection import wait
from typing import Any, List, Optional, Tuple

from repro.guard.bundle import describe_exception

#: seconds a new zygote has to fork its first spare before it counts as dead
SPAWN_TIMEOUT_S = 10.0
#: seconds a stopped spare or a closed zygote has to die before a SIGKILL
STOP_GRACE_S = 1.0
#: the flag byte before each row a spare sends: it exits after the row, or stays
_RETIRING, _STAYING = b"x", b"-"


# ----------------------------------------------------------------------
# Inside the zygote and its spares
# ----------------------------------------------------------------------


def _retires(row: Any) -> bool:
    """True for a row after which its spare exits: a ``crash`` row."""
    return isinstance(row, dict) and row.get("status") == "crash"


def _spare_main(job_r, result_w) -> None:  # pragma: no cover - runs in a spare
    """Run jobs and send their rows until EOF or a ``crash`` row.

    Each row goes to the zygote behind a :data:`_RETIRING` or
    :data:`_STAYING` flag, so the zygote knows when to fork the next spare
    without unpickling the row.
    """
    while True:
        try:
            job = job_r.recv_bytes()
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
        retiring = _retires(row)
        try:
            result_w.send_bytes(
                (_RETIRING if retiring else _STAYING) + pickle.dumps(row, -1)
            )
        except Exception:  # noqa: BLE001 - the zygote will report a death
            return
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:  # noqa: BLE001 - a closed stream loses nothing
                pass
        if retiring:
            return


def _fork_spare(conn):  # pragma: no cover - runs in the zygote
    """Fork one spare; returns its pid, job pipe and result pipe."""
    job_r, job_w = multiprocessing.Pipe(duplex=False)
    result_r, result_w = multiprocessing.Pipe(duplex=False)
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            # The spare holds only its own ends: EOF on the job pipe must
            # mean the zygote is gone.
            conn.close()
            job_w.close()
            result_r.close()
            _spare_main(job_r, result_w)
        except BaseException:  # noqa: BLE001 - reported as an exit code
            code = 1
        os._exit(code)
    job_r.close()
    result_w.close()
    return pid, job_w, result_r


def _reap(pid: int) -> Optional[int]:  # pragma: no cover - runs in the zygote
    """Wait for a spare; its exit code in ``Process.exitcode`` form."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:
        return None


def _scrub_descriptors(keep: int) -> None:  # pragma: no cover - in the zygote
    """Point every inherited descriptor but stdio and ``keep`` at /dev/null.

    This closes what each descriptor referred to (the caller's listening
    and client sockets, its signal wakeup socket, other zygotes' control
    pipes) while the number stays taken, so a stale Python object that
    later closes its old descriptor (a collected socket, say) cannot close
    a pipe the zygote has opened since.
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


def _zygote_main(conn) -> None:  # pragma: no cover - runs in the zygote
    """Hand jobs to the spare, report, and fork a new spare once it is gone."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _scrub_descriptors(conn.fileno())
    pid = None
    try:
        while True:
            if pid is None:
                pid, job_w, result_r = _fork_spare(conn)
                conn.send(("ready", pid))
            job = conn.recv_bytes()
            try:
                job_w.send_bytes(job)
            except OSError:  # the spare died before its job: its death is the report
                pass
            if result_r not in wait([result_r, conn]):
                return  # EOF on the control pipe mid-job: the caller went away
            try:
                row = result_r.recv_bytes()
            except (EOFError, OSError):  # died before or while sending
                row = None
            else:
                # already a pickled row dict: forwarded as is, after its flag
                conn.send_bytes(row, 1)
            if row is None or row.startswith(_RETIRING):
                job_w.close()
                result_r.close()
                pid, code = None, _reap(pid)
                if row is None:
                    conn.send(("died", code))
    except (EOFError, OSError):  # the caller went away
        pass
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            _reap(pid)


# ----------------------------------------------------------------------
# The caller's side
# ----------------------------------------------------------------------


def _kill(pid: Optional[int], signum: int) -> None:
    if pid is None:
        return
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


class Zygote:
    """The caller's handle on one zygote: process, control pipe, spare pid.

    ``conn`` becomes readable when the job in flight has a report.
    """

    def __init__(self) -> None:
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_zygote_main, args=(child,), name="repro-zygote", daemon=True
        )
        self.proc.start()
        child.close()
        # The pool, not the caller of the moment, owns a zygote: it is no
        # transient child of whoever happened to start it.
        multiprocessing.process._children.discard(self.proc)
        #: pid of the spare that is waiting for, or running, a job
        self.spare: Optional[int] = None

    def _hand_over(self, job: bytes) -> int:
        if self.spare is None:
            if not self.conn.poll(SPAWN_TIMEOUT_S):
                raise OSError("zygote forked no spare in time")
            _, self.spare = self.conn.recv()
        self.conn.send_bytes(job)
        return self.spare

    def submit(self, job: bytes) -> int:
        """Hand one job to the spare; returns the spare's pid.

        A zygote found dead here died between jobs: the job never started,
        so it goes to a fresh zygote, which must take it.
        """
        try:
            return self._hand_over(job)
        except (EOFError, OSError):
            self.shut_down()
            self._spawn()
        return self._hand_over(job)

    def report(self) -> Tuple[str, Any]:
        """The outcome of the job in flight, once ``conn`` is readable.

        ``("row", row)``; ``("died", exitcode)`` for a spare that died
        without reporting; ``("lost", exitcode)`` with the zygote's own
        exit code when the zygote died, after its spare has been killed.
        The spare stays for the next job unless it died or sent a
        ``crash`` row.
        """
        try:
            message = self.conn.recv()
        except (EOFError, OSError):
            _kill(self.spare, signal.SIGKILL)
            self.shut_down()
            return "lost", self.proc.exitcode
        if not isinstance(message, dict):
            self.spare = None  # a death: the zygote forks the next spare
            return message
        if _retires(message):
            self.spare = None  # the spare exits after a crash row
        return "row", message

    def stop(self) -> None:
        """SIGTERM the spare at its deadline and collect the zygote's report.

        A spare still alive after :data:`STOP_GRACE_S` is SIGKILLed; a
        zygote that still does not report is shut down (the next
        :meth:`submit` replaces it).
        """
        spare = self.spare
        _kill(spare, signal.SIGTERM)
        for escalation in (signal.SIGKILL, None):
            if self.conn.poll(STOP_GRACE_S):
                if self.report()[0] == "row" and self.spare is not None:
                    # The row beat the signal, which still ends the spare
                    # while it waits for its next job; the zygote cannot
                    # tell, so it goes too.
                    self.shut_down()
                return
            if escalation is not None:
                _kill(spare, escalation)
        self.abort()

    def abort(self) -> None:
        """Kill the spare and shut the zygote down."""
        _kill(self.spare, signal.SIGKILL)
        self.shut_down()

    def shut_down(self) -> None:
        """Close the control pipe and reap the zygote; it reaps its spare."""
        self.conn.close()
        self.proc.join(STOP_GRACE_S)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()
        self.spare = None


_pool_lock = threading.Lock()
_pool: List[Zygote] = []


def checkout() -> Zygote:
    """An idle zygote from the pool, or a new one."""
    with _pool_lock:
        if _pool:
            return _pool.pop()
    return Zygote()


def checkin(zygotes: List[Zygote]) -> None:
    """Return idle zygotes to the pool."""
    with _pool_lock:
        _pool.extend(zygotes)


def _shut_down_pool() -> None:
    """At exit: reap the idle zygotes instead of orphaning them."""
    with _pool_lock:
        zygotes = list(_pool)
        _pool.clear()
    for zygote in zygotes:
        zygote.shut_down()


def _forget_pool() -> None:
    """In a forked child: the parent's zygotes are not the child's."""
    global _pool, _pool_lock
    for zygote in _pool:
        zygote.conn.close()
    _pool, _pool_lock = [], threading.Lock()


atexit.register(_shut_down_pool)
os.register_at_fork(after_in_child=_forget_pool)
