"""The worker processes behind run_isolated (repro.guard.workers).

Each concurrent slot has its own long-lived worker, which the caller
forks at the slot's first job; a worker runs jobs until it dies, times
out or reports a ``crash``, and the slot's next job forks a fresh one.
These tests pin what callers rely on:

* concurrent callers never share a worker, and a ``jobs=2`` run holds
  exactly two;
* a reused worker answers every job exactly as an in-process call does,
  and is replaced after a timeout, a kill or a ``crash`` row;
* no worker outlives the process that created it;
* a worker, first or replacement, holds none of its creator's
  descriptors but stdio and its own pipe (no socket, no other slot's
  pipe), and none of its creator's signal handlers.
"""

import json
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import wait

from repro.corpus.generator import generate_corpus
from repro.guard import workers
from repro.guard.budget import RunBudget
from repro.guard.runner import (
    benchmark_payload,
    minimize_payload,
    pla_payload,
    run_isolated,
)
from repro.hf.espresso_hf import EspressoHFOptions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_minimize(payload):
    """minimize_payload, plus the pids of the worker and its fork parent."""
    row = minimize_payload(payload)
    time.sleep(float(payload.get("hold_s", 0.0)))
    row.update(pid=os.getpid(), parent=os.getppid())
    return row


def _signal_state(payload):
    previous = signal.set_wakeup_fd(-1)
    return {
        "name": payload["name"],
        "status": "ok",
        "sigterm_default": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        "sigint_default": signal.getsignal(signal.SIGINT) == signal.SIG_DFL,
        "wakeup_fd": previous,
    }


def _job(worker, payload):
    return pickle.dumps((payload, pickle.dumps(worker)))


def _run_job(handle, job):
    """Submit one job on ``handle`` and wait for its report."""
    pid = handle.submit(job)
    assert wait([handle.conn], 30)
    return pid, handle.report()


def _gone(pid, within_s=5.0):
    """True once ``pid`` has exited (a zombie counts as exited)."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state in ("Z", "X"):
            return True
        time.sleep(0.02)
    return False


class TestOneWorkerPerCaller:
    def test_two_threads_get_two_workers(self):
        barrier = threading.Barrier(2)
        rows = {}

        def call(name):
            payload = dict(benchmark_payload(name), hold_s=0.5)
            barrier.wait()
            rows[name] = run_isolated([payload], 1, worker=_traced_minimize)[0]

        threads = [
            threading.Thread(target=call, args=(name,))
            for name in ("pscsi-ircv", "stetson-p3")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [rows[n]["status"] for n in ("pscsi-ircv", "stetson-p3")] == ["ok", "ok"]
        assert rows["pscsi-ircv"]["num_cubes"] == 6
        assert rows["stetson-p3"]["num_cubes"] == 4
        assert rows["pscsi-ircv"]["verified"] and rows["stetson-p3"]["verified"]
        pids = {row["pid"] for row in rows.values()}
        assert len(pids) == 2 and os.getpid() not in pids
        assert {row["parent"] for row in rows.values()} == {os.getpid()}

    def test_a_two_slot_run_uses_exactly_two_workers(self):
        payloads = [benchmark_payload("pscsi-ircv"), benchmark_payload("stetson-p3")] * 5
        rows = run_isolated(payloads, 2, worker=_traced_minimize)
        assert [row["status"] for row in rows] == ["ok"] * 10
        pids = {row["pid"] for row in rows}
        assert len(pids) == 2 and os.getpid() not in pids


#: row fields that time a run, and so differ between any two runs
TIMING_FIELDS = ("time_s", "times_s", "phase_seconds")


def _untimed(row):
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


class TestWorkerReuse:
    def test_a_reused_worker_answers_like_an_in_process_call(self):
        corpus = generate_corpus(2026, 42)
        payloads = [pla_payload(c.pla_text, name=c.name) for c in corpus]
        payloads += [
            pla_payload(".i 2\n.o x\n", name="malformed"),
            pla_payload(corpus[5].pla_text, name="checked", checked=True),
            pla_payload(
                corpus[20].pla_text,
                name="budgeted",
                options=EspressoHFOptions(budget=RunBudget(max_checkpoints=3)),
            ),
        ]
        expected = {p["name"]: _untimed(minimize_payload(p)) for p in payloads}
        statuses = {row["status"] for row in expected.values()}
        assert {"ok", "no_solution", "malformed", "budget_exceeded"} <= statuses
        for seed in (1, 2):
            order = list(payloads)
            random.Random(seed).shuffle(order)
            rows = run_isolated(order, 1, worker=_traced_minimize)
            assert len({row.pop("pid") for row in rows}) == 1  # one worker
            for payload, row in zip(order, rows):
                row.pop("parent")
                assert _untimed(row) == expected[payload["name"]], payload["name"]


class TestWorkerLifecycle:
    def _pids(self, payloads, **kwargs):
        rows = run_isolated(payloads, 1, worker=_traced_minimize, **kwargs)
        return rows, [row.get("pid") for row in rows]

    def test_consecutive_ok_jobs_run_on_one_worker(self):
        payload = benchmark_payload("pscsi-ircv")
        rows, pids = self._pids([payload] * 3)
        assert [row["status"] for row in rows] == ["ok"] * 3
        assert len(set(pids)) == 1 and pids[0] != os.getpid()
        assert self._pids([payload])[1] == pids[:1]

    def test_a_timeout_replaces_the_worker(self):
        payload = benchmark_payload("pscsi-ircv")
        stuck = dict(payload, hold_s=30, timeout_s=0.5)
        rows, pids = self._pids([payload, stuck, payload])
        assert [row["status"] for row in rows] == ["ok", "timeout", "ok"]
        assert pids[2] != pids[0]

    def test_an_injected_kill_replaces_the_worker(self):
        payload = benchmark_payload("pscsi-ircv")
        killed = dict(payload, inject={"kill": True})
        rows, pids = self._pids([payload, killed, payload])
        assert [row["status"] for row in rows] == ["ok", "worker_crashed", "ok"]
        assert pids[2] != pids[0]

    def test_a_crash_row_retires_the_worker(self):
        payload = benchmark_payload("pscsi-ircv")
        raising = dict(payload, inject={"raise": "boom"})
        rows, pids = self._pids([payload, raising, payload])
        assert [row["status"] for row in rows] == ["ok", "crash", "ok"]
        assert pids[1] == pids[0] and pids[2] != pids[1]

    def test_a_worker_killed_while_idle_costs_one_retried_attempt(self):
        payload = benchmark_payload("pscsi-ircv")
        first = self._pids([payload])[1][0]
        os.kill(first, signal.SIGKILL)
        assert _gone(first)
        attempts = []
        rows, pids = self._pids(
            [payload], retries=1, on_row=lambda i, row, n: attempts.append(n)
        )
        assert rows[0]["status"] == "ok" and rows[0]["num_cubes"] == 6
        assert attempts == [1] and pids[0] != first

    def test_a_row_that_beats_the_deadline_signal_still_replaces_the_worker(self):
        job = _job(_traced_minimize, benchmark_payload("pscsi-ircv"))
        handle = workers.Worker()
        try:
            worker = handle.submit(job)
            assert handle.conn.poll(30)  # the row is in when the deadline hits
            handle.stop()
            assert _gone(worker)
            handle.submit(job)
            wait([handle.conn], 30)
            kind, row = handle.report()
        finally:
            handle.shut_down()
        assert kind == "row" and row["status"] == "ok" and row["pid"] != worker


class TestLifetime:
    def _creator(self, script):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_exited_creator_leaves_no_worker(self):
        report = self._creator(
            "import json\n"
            "from repro.guard import workers\n"
            "from repro.guard.runner import benchmark_payload, run_one\n"
            "row = run_one(benchmark_payload('pscsi-ircv'))\n"
            "handle = workers._pool[0]  # its worker ran the job and stays\n"
            "print(json.dumps({'status': row['status'], 'worker': handle.pid}))\n"
        )
        assert report["status"] == "ok" and isinstance(report["worker"], int)
        assert _gone(report["worker"])

    def test_a_creator_that_exits_without_cleanup_leaves_no_two_slot_worker(self):
        # os._exit skips the at-exit reap: each worker must end on the EOF
        # of its own pipe, which no other worker may hold open.
        report = self._creator(
            "import json, os, sys\n"
            "from repro.guard import workers\n"
            "from repro.guard.runner import benchmark_payload, run_pool\n"
            "rows = run_pool([benchmark_payload('pscsi-ircv')] * 4, jobs=2)\n"
            "print(json.dumps({'statuses': [r['status'] for r in rows],"
            " 'workers': [w.pid for w in workers._pool]}))\n"
            "sys.stdout.flush()\n"
            "os._exit(0)\n"
        )
        assert report["statuses"] == ["ok"] * 4
        pids = report["workers"]
        assert len(set(pids)) == 2 and all(isinstance(p, int) for p in pids)
        assert all(_gone(pid) for pid in pids)

    def test_workers_are_not_transient_children(self):
        import multiprocessing

        handle = workers.Worker()
        try:
            pid, (kind, _) = _run_job(handle, _job(_signal_state, {"name": "x"}))
            assert kind == "row"
            assert handle.proc not in multiprocessing.active_children()
        finally:
            handle.shut_down()
        assert _gone(pid)


class TestInheritance:
    def test_socket_opened_before_the_worker_sees_eof(self):
        mine, peer = socket.socketpair()
        handle = workers.Worker()
        try:
            _run_job(handle, _job(_signal_state, {"name": "x"}))
            mine.close()
            peer.settimeout(5)
            assert peer.recv(1) == b""
        finally:
            peer.close()
            handle.shut_down()

    def test_socket_opened_before_a_replacement_sees_eof(self):
        payload = benchmark_payload("pscsi-ircv")
        first = run_isolated([payload], 1, worker=_traced_minimize)[0]["pid"]
        mine, peer = socket.socketpair()
        try:
            stuck = dict(payload, hold_s=30, timeout_s=0.5)
            rows = run_isolated([stuck, payload], 1, worker=_traced_minimize)
            assert [row["status"] for row in rows] == ["timeout", "ok"]
            assert rows[1]["pid"] != first  # forked after the socket opened
            mine.close()
            peer.settimeout(5)
            assert peer.recv(1) == b""
        finally:
            peer.close()

    def test_a_worker_holds_no_other_slots_pipe(self):
        job = _job(_signal_state, {"name": "x"})
        first, second = workers.Worker(), workers.Worker()
        try:
            _run_job(first, job)
            _run_job(second, job)  # forked while the first slot's pipe is open
            pids = [first.pid, second.pid]
            first.conn.close()  # EOF for the first worker alone
            assert _gone(pids[0])
            assert not _gone(pids[1], within_s=0.2)
        finally:
            first.shut_down()
            second.shut_down()
        assert _gone(pids[1])

    def test_workers_get_default_signal_handling(self):
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        previous_term = signal.signal(signal.SIGTERM, lambda *a: None)
        handle = workers.Worker()
        try:
            handle.submit(_job(_signal_state, {"name": "signals"}))  # forks here
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.set_wakeup_fd(previous_fd)
            reader.close()
            writer.close()
        try:
            wait([handle.conn], 30)
            kind, row = handle.report()
        finally:
            handle.shut_down()
        assert kind == "row"
        assert row["sigterm_default"] and row["sigint_default"]
        assert row["wakeup_fd"] == -1
