"""The zygotes behind run_isolated (repro.guard.zygote).

Each concurrent slot has its own long-lived zygote, which forks one
spare ahead of demand; a spare runs jobs until it dies, times out or
reports a ``crash``.  These tests pin what callers rely on:

* concurrent callers never share a zygote;
* a reused spare answers every job exactly as an in-process call does,
  and is replaced after a timeout, a kill or a ``crash`` row;
* a zygote killed between jobs is replaced before the next job is handed
  over, so that job runs on a fresh zygote; one killed while its spare
  holds a job turns the attempt into a retryable ``worker_crashed`` row;
* no zygote or spare outlives the process that created it;
* a zygote holds none of its creator's descriptors but stdio, and none
  of its creator's signal handlers.
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
from repro.guard import zygote
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
    row.update(pid=os.getpid(), zygote=os.getppid())
    return row


def _kill_own_zygote(payload):
    """Kill the zygote that forked this worker, on the first attempt only."""
    if int(payload.get("attempt", 0)) == 0:
        os.kill(os.getppid(), signal.SIGKILL)
        time.sleep(30)
    return {"name": payload["name"], "status": "ok", "zygote": os.getppid()}


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


class TestOneZygotePerCaller:
    def test_two_threads_get_two_zygotes(self):
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
        zygotes = {row["zygote"] for row in rows.values()}
        assert len(zygotes) == 2 and os.getpid() not in zygotes


#: row fields that time a run, and so differ between any two runs
TIMING_FIELDS = ("time_s", "times_s", "phase_seconds")


def _untimed(row):
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


class TestSpareReuse:
    def test_a_reused_spare_answers_like_an_in_process_call(self):
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
            assert len({row.pop("pid") for row in rows}) == 1  # one spare
            for payload, row in zip(order, rows):
                row.pop("zygote")
                assert _untimed(row) == expected[payload["name"]], payload["name"]


class TestSpareLifecycle:
    def _pids(self, payloads, **kwargs):
        rows = run_isolated(payloads, 1, worker=_traced_minimize, **kwargs)
        return rows, [row.get("pid") for row in rows]

    def test_consecutive_ok_jobs_run_on_one_spare(self):
        payload = benchmark_payload("pscsi-ircv")
        rows, pids = self._pids([payload] * 3)
        assert [row["status"] for row in rows] == ["ok"] * 3
        assert len(set(pids)) == 1 and pids[0] != os.getpid()
        assert self._pids([payload])[1] == pids[:1]

    def test_a_timeout_replaces_the_spare(self):
        payload = benchmark_payload("pscsi-ircv")
        stuck = dict(payload, hold_s=30, timeout_s=0.5)
        rows, pids = self._pids([payload, stuck, payload])
        assert [row["status"] for row in rows] == ["ok", "timeout", "ok"]
        assert pids[2] != pids[0]

    def test_an_injected_kill_replaces_the_spare(self):
        payload = benchmark_payload("pscsi-ircv")
        killed = dict(payload, inject={"kill": True})
        rows, pids = self._pids([payload, killed, payload])
        assert [row["status"] for row in rows] == ["ok", "worker_crashed", "ok"]
        assert pids[2] != pids[0]

    def test_a_crash_row_retires_the_spare(self):
        payload = benchmark_payload("pscsi-ircv")
        raising = dict(payload, inject={"raise": "boom"})
        rows, pids = self._pids([payload, raising, payload])
        assert [row["status"] for row in rows] == ["ok", "crash", "ok"]
        assert pids[1] == pids[0] and pids[2] != pids[1]

    def test_a_spare_killed_while_idle_costs_one_retried_attempt(self):
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

    def test_a_row_that_beats_the_deadline_signal_still_replaces_the_spare(self):
        job = _job(_traced_minimize, benchmark_payload("pscsi-ircv"))
        handle = zygote.Zygote()
        try:
            spare = handle.submit(job)
            assert handle.conn.poll(30)  # the row is in when the deadline hits
            handle.stop()
            assert _gone(spare)
            handle.submit(job)
            wait([handle.conn], 30)
            kind, row = handle.report()
        finally:
            handle.shut_down()
        assert kind == "row" and row["status"] == "ok" and row["pid"] != spare


class TestZygoteDeath:
    def test_killed_between_jobs_the_next_job_runs_on_a_fresh_zygote(self):
        payload = benchmark_payload("pscsi-ircv")
        first = run_isolated([payload], 1, worker=_traced_minimize)[0]
        os.kill(first["zygote"], signal.SIGKILL)
        assert _gone(first["zygote"])
        second = run_isolated([payload], 1, worker=_traced_minimize)[0]
        assert second["status"] == "ok" and second["num_cubes"] == 6
        assert second["zygote"] != first["zygote"]

    def test_killed_mid_job_gives_a_worker_crashed_row_and_a_retry(self):
        payload = {"name": "mid-job"}
        t0 = time.perf_counter()
        crashed = run_isolated([payload], 1, worker=_kill_own_zygote)[0]
        assert crashed["status"] == "worker_crashed"
        assert crashed["signal"] == "SIGKILL"
        # the orphaned worker was killed, not waited for
        assert time.perf_counter() - t0 < 10
        retried = run_isolated([payload], 1, worker=_kill_own_zygote, retries=1)[0]
        assert retried["status"] == "ok"

    def test_lost_zygote_kills_its_spare(self):
        handle = zygote.Zygote()
        try:
            spare = handle.submit(_job(_kill_own_zygote, {"name": "x"}))
            wait([handle.conn], 10)
            kind, exitcode = handle.report()
            assert (kind, exitcode) == ("lost", -signal.SIGKILL)
            assert _gone(spare)
        finally:
            handle.shut_down()


class TestLifetime:
    def test_exited_creator_leaves_no_zygote_or_spare(self):
        script = (
            "import json\n"
            "from repro.guard import zygote\n"
            "from repro.guard.runner import benchmark_payload, run_one\n"
            "row = run_one(benchmark_payload('pscsi-ircv'))\n"
            "handle = zygote._pool[0]  # its spare ran the job and stays\n"
            "print(json.dumps({'status': row['status'],"
            " 'zygote': handle.proc.pid, 'spare': handle.spare}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["status"] == "ok" and isinstance(report["spare"], int)
        assert _gone(report["zygote"]) and _gone(report["spare"])

    def test_zygotes_are_not_transient_children(self):
        import multiprocessing

        handle = zygote.Zygote()
        try:
            assert handle.proc not in multiprocessing.active_children()
        finally:
            handle.shut_down()
        assert _gone(handle.proc.pid)


class TestInheritance:
    def test_socket_opened_before_the_zygote_sees_eof(self):
        mine, peer = socket.socketpair()
        handle = zygote.Zygote()
        try:
            assert handle.conn.poll(10)  # the zygote has forked its spare
            mine.close()
            peer.settimeout(5)
            assert peer.recv(1) == b""
        finally:
            peer.close()
            handle.shut_down()

    def test_workers_get_default_signal_handling(self):
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        previous_term = signal.signal(signal.SIGTERM, lambda *a: None)
        try:
            handle = zygote.Zygote()
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.set_wakeup_fd(previous_fd)
            reader.close()
            writer.close()
        try:
            handle.submit(_job(_signal_state, {"name": "signals"}))
            wait([handle.conn], 30)
            kind, row = handle.report()
        finally:
            handle.shut_down()
        assert kind == "row"
        assert row["sigterm_default"] and row["sigint_default"]
        assert row["wakeup_fd"] == -1
