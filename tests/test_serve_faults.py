"""Fault-injection suite: the daemon under hostile conditions.

Each test runs its own daemon (quarantine and crash counters are sticky
per instance) with ``allow_test_faults`` on, and drives faults through
the ``inject`` request field — the same seam
:func:`repro.guard.runner.minimize_payload` honours only in worker
processes:

* ``kill`` / ``kill_attempts`` / ``kill_prob`` — ``SIGKILL`` the worker
  mid-job (always / on specific attempts / derandomized per-name coin);
* ``sleep_s`` — outlast the per-job deadline;
* ``raise: malformed`` — a :class:`~repro.guard.errors.MalformedInstance`
  surfacing mid-pipeline through the ``pass_decorator`` seam.

The acceptance bar (ISSUE): under a fault-injected load with ≥10% worker
kills, every request completes or is *explicitly* rejected — zero hangs —
repeat offenders are quarantined with a repro bundle, and unrelated
clients keep getting correct covers.
"""

import threading
import time

from repro.bm.benchmarks import build_benchmark
from repro.guard.bundle import load_bundle
from repro.hazards.verify import verify_hazard_free_cover
from repro.pla import format_pla, parse_pla
from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.serve.protocol import RESPONSE_STATUSES


def fast_config(tmp_path, **overrides) -> ServeConfig:
    base = dict(
        workers=2,
        allow_test_faults=True,
        backoff_base_s=0.02,
        backoff_cap_s=0.1,
        job_timeout_s=30.0,
        max_retries=2,
        quarantine_threshold=2,
        bundle_dir=str(tmp_path),
    )
    base.update(overrides)
    return ServeConfig(**base)


def bench_pla(name: str) -> str:
    return format_pla(build_benchmark(name))


class TestTransientCrashes:
    def test_killed_worker_is_retried_to_success(self, tmp_path):
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                reply = c.minimize(
                    bench_pla("dram-ctrl"), inject={"kill_attempts": [0]}
                )
                assert reply["status"] == "ok"
                assert reply["attempts"] == 2
        finally:
            handle.stop()

    def test_retried_cover_matches_offline_run(self, tmp_path):
        # Acceptance: a job that survives a crash returns a cover
        # byte-identical to the offline minimizer's.
        from repro.hf import espresso_hf
        from repro.pla import format_cover

        inst = build_benchmark("pscsi-ircv")
        offline = format_cover(
            espresso_hf(inst).cover,
            pla_type="f",
            name=f"{inst.name} minimized",
        )
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                reply = c.minimize(
                    format_pla(inst), inject={"kill_attempts": [0]}
                )
                assert reply["status"] == "ok"
                assert reply["cover_pla"] == offline
        finally:
            handle.stop()

    def test_crash_retries_count_in_metrics(self, tmp_path):
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                c.minimize(bench_pla("dram-ctrl"), inject={"kill_attempts": [0]})
            snap = handle.registry.snapshot()
            assert snap["serve.worker_crashes"]["value"] == 1
            assert snap["serve.retries"]["value"] == 1
        finally:
            handle.stop()


class TestQuarantine:
    def test_poison_job_is_quarantined_with_bundle(self, tmp_path):
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                reply = c.minimize(bench_pla("dram-ctrl"), inject={"kill": True})
                assert reply["status"] == "quarantined"
                assert reply["ok"] is False
                assert "poison job" in reply["error"]
                bundle = load_bundle(reply["bundle_path"])
                assert bundle.failure_kind == "crash"
                assert "killed 2 workers" in bundle.failure_message

                # resubmission (even without faults) is refused instantly
                t0 = time.monotonic()
                again = c.minimize(bench_pla("dram-ctrl"))
                assert again["status"] == "quarantined"
                assert time.monotonic() - t0 < 5.0
                assert again["bundle_path"] == reply["bundle_path"]

                # unrelated instances still served
                other = c.minimize(bench_pla("pscsi-ircv"))
                assert other["status"] == "ok"
        finally:
            handle.stop()

    def test_quarantine_covers_equivalent_rewrites(self, tmp_path):
        # The quarantine keys on the canonical hash: a permuted rewrite
        # of a poison job is the same poison job.
        from repro.proptest.metamorphic import flip_instance, permute_instance

        inst = build_benchmark("dram-ctrl")
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                assert c.minimize(
                    format_pla(inst), inject={"kill": True}
                )["status"] == "quarantined"
                rewritten = permute_instance(
                    flip_instance(inst, 0b101),
                    tuple(reversed(range(inst.n_inputs))),
                )
                reply = c.minimize(format_pla(rewritten))
                assert reply["status"] == "quarantined"
        finally:
            handle.stop()


class TestOtherFaults:
    def test_injected_timeout_is_bounded_and_explicit(self, tmp_path):
        handle = start_in_thread(fast_config(tmp_path, job_timeout_s=1.0))
        try:
            with ServeClient(handle.host, handle.port) as c:
                t0 = time.monotonic()
                reply = c.minimize(
                    bench_pla("dram-ctrl"), inject={"sleep_s": 60}
                )
                elapsed = time.monotonic() - t0
                assert reply["status"] == "timeout"
                assert elapsed < 15.0  # deadline enforced, no retry
        finally:
            handle.stop()

    def test_injected_malformed_is_not_retried(self, tmp_path):
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                reply = c.minimize(
                    bench_pla("dram-ctrl"), inject={"raise": "malformed"}
                )
                assert reply["status"] == "malformed"
                assert reply["attempts"] == 1
        finally:
            handle.stop()

    def test_faulted_results_never_enter_the_cache(self, tmp_path):
        handle = start_in_thread(fast_config(tmp_path))
        try:
            with ServeClient(handle.host, handle.port) as c:
                c.minimize(bench_pla("pscsi-ircv"), inject={"kill_attempts": [0]})
                reply = c.minimize(bench_pla("pscsi-ircv"))
                # the inject run (even though it ended "ok") was not
                # cached; the clean run recomputes
                assert reply["cached"] is False
        finally:
            handle.stop()


class TestFaultedLoad:
    """The headline scenario: mixed load, ≥10% kill rate, zero hangs."""

    def test_mixed_fault_load_terminates_explicitly(self, tmp_path):
        handle = start_in_thread(fast_config(
            tmp_path, workers=2, queue_limit=64, job_timeout_s=15.0
        ))
        names = ["dram-ctrl", "pscsi-ircv", "sscsi-trcv-bm", "stetson-p3"]
        replies = []
        errors = []
        lock = threading.Lock()

        def submit(i):
            name = names[i % len(names)]
            inject = None
            if i % 5 == 0:  # 20% of jobs: kill the worker on attempt 0
                inject = {"kill_attempts": [0]}
            elif i % 7 == 0:
                inject = {"raise": "malformed"}
            try:
                with ServeClient(handle.host, handle.port, timeout_s=180) as c:
                    reply = c.minimize(
                        bench_pla(name),
                        inject=inject,
                        req_id=f"job{i}",
                        no_cache=(inject is None and i % 3 == 0),
                    )
                with lock:
                    replies.append((i, inject, reply))
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append((i, exc))

        try:
            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(30)
            ]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=240)
            wall = time.monotonic() - t0
            alive = [t for t in threads if t.is_alive()]
            assert not alive, f"{len(alive)} clients hung after {wall:.0f}s"
            assert not errors, errors[:3]
            assert len(replies) == 30

            inst_by_name = {n: build_benchmark(n) for n in names}
            for i, inject, reply in replies:
                assert reply["status"] in RESPONSE_STATUSES, (i, reply)
                assert reply["id"] == f"job{i}"
                if inject == {"raise": "malformed"}:
                    assert reply["status"] == "malformed", (i, reply)
                else:
                    # killed-once jobs retry to success; clean jobs just
                    # succeed (possibly via cache)
                    assert reply["status"] == "ok", (i, inject, reply)
                    cover = parse_pla(reply["cover_pla"]).on
                    inst = inst_by_name[names[i % len(names)]]
                    assert not verify_hazard_free_cover(inst, cover), i

            kills = handle.registry.snapshot()["serve.worker_crashes"]["value"]
            assert kills >= 3  # ≥10% of 30 jobs actually exercised the seam
        finally:
            handle.stop()

    def test_randomized_kill_probability_load(self, tmp_path):
        # kill_prob is derandomized per (seed, name, attempt): the same
        # request always crashes or always survives a given attempt, so
        # retries make progress deterministically.
        handle = start_in_thread(fast_config(
            tmp_path, workers=2, max_retries=3, quarantine_threshold=4
        ))
        names = ["dram-ctrl", "pscsi-ircv", "sscsi-isend-bm", "stetson-p3"]
        try:
            with ServeClient(handle.host, handle.port, timeout_s=180) as c:
                for i, name in enumerate(names * 2):
                    reply = c.minimize(
                        bench_pla(name),
                        inject={"kill_prob": 0.3, "seed": i},
                        req_id=f"p{i}",
                    )
                    assert reply["status"] in ("ok", "quarantined"), reply
        finally:
            handle.stop()


class TestDrainUnderLoad:
    def test_sigterm_equivalent_drain_completes_inflight(self, tmp_path):
        # The shutdown op drives the same drain path the SIGTERM handler
        # does (request_shutdown); in-flight work finishes, new work is
        # refused, the thread exits.
        handle = start_in_thread(fast_config(tmp_path, workers=1))
        pla = bench_pla("pscsi-isend")
        results = {}

        def slow_job():
            with ServeClient(handle.host, handle.port, timeout_s=180) as c:
                results["job"] = c.minimize(
                    pla, inject={"sleep_s": 1.0}, no_cache=True
                )

        worker = threading.Thread(target=slow_job)
        worker.start()
        time.sleep(0.3)  # let the job get admitted
        with ServeClient(handle.host, handle.port) as c:
            assert c.shutdown()["draining"] is True
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert results["job"]["status"] == "ok"
        handle._thread.join(timeout=60)
        assert not handle._thread.is_alive()
