"""The crash-isolated process scheduler (repro.guard.runner.run_isolated).

Two properties every caller inherits from the one scheduler:

* a worker that dies without reporting is noticed at once — the parent
  wakes on the process sentinel, so the ``worker_crashed`` row costs a
  fork and a reap, not a polling interval or a grace read;
* an exception raised while tasks are in flight (here: from ``on_row``)
  propagates, and no child process outlives the call.
"""

import multiprocessing
import time

import pytest

from repro.corpus import differential_payload, generate_corpus, run_corpus
from repro.guard.runner import benchmark_payload, run_one, run_pool

# The differential worker imports these lazily; importing them here means
# a forked child inherits them, so the timings below measure the
# scheduler rather than a cold import in the child.
import repro.exact  # noqa: F401
import repro.hf.espresso_hf  # noqa: F401

#: a dead worker's row must arrive well inside this budget (wall time)
PROMPT_S = 0.4


def _killer(name="dram-ctrl"):
    payload = benchmark_payload(name)
    payload["inject"] = {"kill": True}
    return payload


def _corpus_payloads(count, seed=21):
    return [
        differential_payload(
            i.name, i.pla_text, stratum=i.stratum, solvable=i.solvable
        )
        for i in generate_corpus(seed=seed, count=count)
    ]


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


class TestPromptWorkerDeath:
    def test_run_one(self):
        row, elapsed = _timed(lambda: run_one(_killer(), timeout_s=60))
        assert row["status"] == "worker_crashed"
        assert row["signal"] == "SIGKILL"
        assert elapsed < PROMPT_S, elapsed

    def test_run_pool(self):
        payloads = [_killer("dram-ctrl"), _killer("pscsi-ircv")]
        rows, elapsed = _timed(lambda: run_pool(payloads, jobs=2, timeout_s=60))
        assert [r["status"] for r in rows] == ["worker_crashed"] * 2
        assert elapsed < PROMPT_S, elapsed

    def test_run_corpus(self):
        payloads = _corpus_payloads(2)
        for payload in payloads:
            payload["inject"] = {"kill": True}
        (rows, stats), elapsed = _timed(
            lambda: run_corpus(payloads, jobs=2, timeout_s=60, retries=0)
        )
        assert [r["status"] for r in rows] == ["worker_crashed"] * 2
        assert stats.worker_crashes == 2
        assert elapsed < PROMPT_S, elapsed


class TestInterruptCleanup:
    def test_raising_on_row_leaves_no_live_children(self):
        payloads = _corpus_payloads(3)
        payloads[0]["inject"] = {"sleep_s": 30.0}

        class Stop(Exception):
            pass

        def on_row(tid, row):
            raise Stop(tid)

        t0 = time.perf_counter()
        with pytest.raises(Stop):
            run_corpus(payloads, jobs=2, timeout_s=60, on_row=on_row)
        # the sleeper was terminated, not waited for
        assert time.perf_counter() - t0 < 30.0
        assert multiprocessing.active_children() == []
