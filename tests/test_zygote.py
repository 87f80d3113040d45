"""The zygotes behind run_isolated (repro.guard.zygote).

Each concurrent slot has its own long-lived zygote, which forks one
single-shot spare ahead of demand.  These tests pin what callers rely on:

* concurrent callers never share a zygote;
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
import signal
import socket
import subprocess
import sys
import threading
import time
from multiprocessing.connection import wait

from repro.guard import zygote
from repro.guard.runner import benchmark_payload, minimize_payload, run_isolated

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
            "handle = zygote._pool[0]\n"
            "assert handle.conn.poll(10)\n"
            "_, spare = handle.conn.recv()  # the next spare's ready message\n"
            "print(json.dumps({'status': row['status'],"
            " 'zygote': handle.proc.pid, 'spare': spare}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["status"] == "ok"
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
