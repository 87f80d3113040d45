"""A real ``espresso-hf serve`` process survives a job timeout.

The other serve suites run the daemon in a thread of the test process,
which installs no signal handlers.  Only a real process shows whether the
SIGTERM a worker gets at its deadline stays in the worker: a worker that
kept the daemon's SIGTERM handler and signal wakeup socket would make the
daemon itself drain and exit.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.serve.client import ServeClient

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLA = os.path.join(ROOT, "data", "benchmarks", "pscsi-ircv.pla")


@pytest.fixture
def daemon(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--workers", "1",
            "--allow-test-faults",
            "--job-timeout", "0.5",
            "--bundle-dir", str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        host, port = line.split("listening on ")[1].split()[0].split(":")
        yield proc, host, int(port)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_job_timeout_leaves_the_daemon_serving(daemon):
    proc, host, port = daemon
    with open(PLA) as fh:
        text = fh.read()
    with ServeClient(host, port, timeout_s=60) as client:
        slow = client.minimize(text, inject={"sleep_s": 3}, no_cache=True)
        assert slow["status"] == "timeout"
        # the same connection still answers, and the daemon still minimizes
        assert client.ping()["status"] == "ok"
        assert client.minimize(text)["status"] == "ok"
    assert proc.poll() is None
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
