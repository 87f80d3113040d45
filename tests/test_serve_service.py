"""Daemon integration: one shared server, real sockets, no faults.

A module-scoped daemon (two workers, test-fault seam enabled) serves every
test here; the fault-injection suite (``test_serve_faults.py``) runs its
own daemons because quarantine is sticky state.
"""

import json
import socket
import threading

import pytest

from repro.bm.benchmarks import build_benchmark
from repro.hazards.verify import verify_hazard_free_cover
from repro.pla import format_pla, parse_pla
from repro.proptest.metamorphic import flip_instance, permute_instance
from repro.serve import ServeClient, ServeConfig, start_in_thread


@pytest.fixture(scope="module")
def daemon():
    handle = start_in_thread(ServeConfig(
        workers=2,
        allow_test_faults=True,
        backoff_base_s=0.02,
        job_timeout_s=60.0,
        max_inputs=16,
        max_cubes=1024,
    ))
    yield handle
    handle.stop()


@pytest.fixture()
def client(daemon):
    c = ServeClient(daemon.host, daemon.port)
    yield c
    c.close()


def bench_pla(name: str) -> str:
    return format_pla(build_benchmark(name))


class TestBasicOps:
    def test_ping(self, client):
        reply = client.ping()
        assert reply["ok"] and reply["status"] == "ok"
        assert reply["v"] == 1

    def test_stats_shape(self, client):
        stats = client.stats()["stats"]
        assert set(stats) >= {
            "queue_depth", "open_jobs", "inflight", "draining",
            "cache", "quarantined", "metrics",
        }
        assert stats["draining"] is False

    def test_minimize_round_trip(self, client):
        inst = build_benchmark("dram-ctrl")
        reply = client.minimize(format_pla(inst))
        assert reply["status"] == "ok", reply
        cover = parse_pla(reply["cover_pla"]).on
        assert not verify_hazard_free_cover(inst, cover)
        assert reply["num_cubes"] == len(cover)

    def test_unsolvable_reports_no_solution(self, client):
        from tests.test_hazards import unsolvable_instance

        reply = client.minimize(format_pla(unsolvable_instance()))
        assert reply["status"] == "no_solution"
        assert reply["ok"] is True

    def test_malformed_pla_is_answered(self, client):
        reply = client.minimize(".i 2\n.o\n")
        assert reply["status"] == "malformed"
        assert "line" in reply["error"]

    def test_protocol_error_keeps_connection_alive(self, client):
        reply = client.send_raw(b'{"op": "minimize"}\n')
        assert reply["status"] == "protocol_error"
        assert client.ping()["ok"]  # connection still usable


class TestCaching:
    def test_identical_request_hits_cache(self, client):
        pla = bench_pla("pscsi-isend")
        first = client.minimize(pla)
        second = client.minimize(pla)
        assert first["status"] == second["status"] == "ok"
        assert first["cached"] is False or first["cached"] is True  # warm-up
        assert second["cached"] is True
        assert second["cover_pla"] == first["cover_pla"]

    def test_equivalent_instance_hits_cache_with_remapped_cover(self, client):
        inst = build_benchmark("pscsi-tsend")
        client.minimize(format_pla(inst))  # populate
        perm = tuple(reversed(range(inst.n_inputs)))
        equivalent = permute_instance(flip_instance(inst, 0b1101), perm)
        reply = client.minimize(format_pla(equivalent))
        assert reply["cached"] is True
        cover = parse_pla(reply["cover_pla"]).on
        assert not verify_hazard_free_cover(equivalent, cover)

    def test_no_cache_bypasses(self, client):
        pla = bench_pla("pscsi-isend")
        client.minimize(pla)
        reply = client.minimize(pla, no_cache=True)
        assert reply["cached"] is False

    def test_distinct_options_are_distinct_entries(self, client):
        pla = bench_pla("pscsi-tsend")
        client.minimize(pla)
        reply = client.minimize(pla, options={"use_last_gasp": False})
        assert reply["cached"] is False

    def test_malformed_rejection_is_negatively_cached(self, daemon):
        # Fresh client + unique malformed text so the module-scoped
        # daemon's negative cache starts cold for this key.
        with_client = ServeClient(daemon.host, daemon.port)
        try:
            bad = ".i 3\n.o\n# negative-cache probe\n"
            first = with_client.minimize(bad)
            second = with_client.minimize(bad)
        finally:
            with_client.close()
        assert first["status"] == second["status"] == "malformed"
        assert first.get("cached") is not True
        assert second.get("cached") is True
        assert second["error"] == first["error"]


class TestWorkerValidates:
    """The worker is the one validator: the daemon builds instances
    unvalidated, and an instance the worker rejects is answered
    ``malformed`` and negatively cached like a parse error."""

    def test_daemon_never_validates(self, monkeypatch):
        from repro.hazards.instance import HazardFreeInstance

        inst = build_benchmark("pscsi-ircv")
        miss = format_pla(inst)
        perm = tuple(reversed(range(inst.n_inputs)))
        rewrite = format_pla(permute_instance(flip_instance(inst, 0b101), perm))
        pair = bench_pla("pscsi-isend")
        sleeper = bench_pla("dram-ctrl")
        calls = []
        original = HazardFreeInstance.validate

        def spy(self):
            calls.append(self.name)
            return original(self)

        # One worker, held by a sleeping job while the pair arrives, so
        # the pair's second request coalesces onto the first.
        handle = start_in_thread(ServeConfig(workers=1, allow_test_faults=True))
        monkeypatch.setattr(HazardFreeInstance, "validate", spy)
        replies = {}

        def send(key, text, **fields):
            with ServeClient(handle.host, handle.port) as c:
                replies[key] = c.minimize(text, **fields)

        try:
            send("miss", miss)
            send("hit", rewrite)
            send("memo-hit", miss)
            threads = [threading.Thread(
                target=send, args=("sleeper", sleeper),
                kwargs={"inject": {"sleep_s": 1.0}},
            )]
            threads[0].start()
            threading.Event().wait(0.3)
            threads += [
                threading.Thread(target=send, args=(key, pair))
                for key in ("first", "second")
            ]
            for t in threads[1:]:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            handle.stop()
        assert set(replies) == {
            "miss", "hit", "memo-hit", "sleeper", "first", "second"
        }
        assert all(r["status"] == "ok" for r in replies.values()), replies
        assert replies["miss"]["cached"] is False
        assert replies["hit"]["cached"] is True
        assert replies["memo-hit"]["cached"] is True
        pair_replies = [replies["first"], replies["second"]]
        assert sorted(bool(r.get("coalesced")) for r in pair_replies) == [False, True]
        assert pair_replies[0]["cover_pla"] == pair_replies[1]["cover_pla"]
        assert calls == []

    def test_worker_rejection_is_malformed_and_negatively_cached(self, client):
        hazard = (
            "# function-hazard probe\n.i 2\n.o 1\n.type fr\n"
            "00 1\n11 1\n01 0\n10 0\n.trans 00 11\n.e\n"
        )

        def counter(name):
            metrics = client.stats()["stats"]["metrics"]
            return metrics.get(name, {}).get("value", 0)

        first = client.minimize(hazard)
        assert first["status"] == "malformed", first
        assert first.get("cached") is not True
        assert "function hazard" in first["error"]
        cached_before = counter("serve.malformed_cached")
        admitted_before = counter("serve.admitted")
        again = client.minimize(hazard)
        assert again["status"] == "malformed"
        assert again["cached"] is True
        assert again["error"] == first["error"]
        assert counter("serve.malformed_cached") == cached_before + 1
        assert counter("serve.admitted") == admitted_before


class TestResubmits:
    """The result cache is the service's one memo: a resubmit is either
    its hit or a fresh cold run, never an answer from a stored session."""

    def test_identical_resubmit_is_a_cache_hit(self, client):
        pla = bench_pla("pscsi-pscsi")
        first = client.minimize(pla)
        hits_before = client.stats()["stats"]["cache"]["hits"]
        again = client.minimize(pla)
        assert again["status"] == "ok" and again["cached"] is True
        assert again["cover_pla"] == first["cover_pla"]
        assert client.stats()["stats"]["cache"]["hits"] == hits_before + 1

    def test_edited_resubmit_matches_local_cold_run(self, client):
        from repro.hf import espresso_hf
        from repro.proptest.metamorphic import subset_transitions_instance

        inst = build_benchmark("pscsi-tsend")
        client.minimize(format_pla(inst))  # the unedited original first
        keep = list(range(len(inst.transitions) - 1))
        edited = subset_transitions_instance(inst, keep)
        reply = client.minimize(format_pla(edited), no_cache=True)
        assert reply["status"] == "ok" and reply["cached"] is False
        cover = parse_pla(reply["cover_pla"]).on
        assert not verify_hazard_free_cover(edited, cover)
        local = espresso_hf(edited).cover
        assert sorted(map(str, cover)) == sorted(map(str, local))

    def test_other_options_match_local_run(self, client):
        from repro.hf import EspressoHFOptions, espresso_hf

        inst = build_benchmark("dram-ctrl")
        pla = format_pla(inst)
        default = client.minimize(pla, no_cache=True)
        reply = client.minimize(
            pla, options={"make_prime": False}, no_cache=True
        )
        assert reply["status"] == "ok"
        assert reply["cover_pla"] != default["cover_pla"]
        local = espresso_hf(inst, EspressoHFOptions(make_prime=False)).cover
        cover = parse_pla(reply["cover_pla"]).on
        assert sorted(map(str, cover)) == sorted(map(str, local))


class TestRetiredSessionFields:
    def test_session_and_warm_key_are_ignored(self, client):
        # Older clients still send ``session`` and ``warm_key``: the
        # daemon answers them exactly like the plain request, from the
        # one result cache, and no reply or stat mentions sessions.
        pla = bench_pla("pscsi-tsend")
        client.minimize(pla)  # populate
        legacy = (
            {"session": True},
            {"warm_key": "0" * 64},
            {"session": True, "warm_key": None},
        )
        for no_cache in (False, True):
            plain = client.minimize(pla, no_cache=no_cache)
            for fields in legacy:
                message = dict(fields, op="minimize", id="legacy", pla=pla)
                if no_cache:
                    message["no_cache"] = True
                reply = client.request(message)
                assert reply["status"] == plain["status"] == "ok"
                assert reply["cover_pla"] == plain["cover_pla"]
                assert reply["cached"] is plain["cached"] is (not no_cache)
                assert "warm_key" not in reply and "warm" not in reply
        assert "sessions" not in client.stats()["stats"]


class TestAdmissionControl:
    def test_oversized_instance_is_shed(self, client):
        # cache-ctrl has 20 inputs; the test daemon caps at 16.
        reply = client.minimize(bench_pla("cache-ctrl"))
        assert reply["status"] == "shed"
        assert reply["reason"] == "oversized"
        assert reply["ok"] is False

    def test_degraded_budget_result_is_explicit(self, client):
        reply = client.minimize(
            bench_pla("pscsi-tsend-bm"), budget_s=0.0001, no_cache=True
        )
        assert reply["status"] in ("degraded", "budget_exceeded", "ok")
        if reply["status"] != "ok":
            # Even degraded covers are verified hazard-free before serving.
            inst = build_benchmark("pscsi-tsend-bm")
            cover = parse_pla(reply["cover_pla"]).on
            assert not verify_hazard_free_cover(inst, cover)


class TestConcurrency:
    def test_parallel_clients_all_answered(self, daemon):
        names = ["dram-ctrl", "pe-send-ifc", "pscsi-ircv", "pscsi-isend"]
        replies = {}
        errors = []

        def worker(name):
            try:
                with ServeClient(daemon.host, daemon.port) as c:
                    replies[name] = c.minimize(bench_pla(name))
            except Exception as exc:  # noqa: BLE001
                errors.append((name, exc))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in names
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert set(replies) == set(names)
        for name, reply in replies.items():
            assert reply["status"] == "ok", (name, reply)

    def test_identical_inflight_requests_coalesce(self, daemon):
        pla = bench_pla("pscsi-pscsi")
        replies = []

        def worker():
            with ServeClient(daemon.host, daemon.port) as c:
                replies.append(c.minimize(pla, inject=None))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(replies) == 4
        covers = {r["cover_pla"] for r in replies}
        assert len(covers) == 1  # one result, served to everyone
        assert all(r["status"] == "ok" for r in replies)


class TestLifecycle:
    def test_shutdown_drains_and_refuses(self):
        handle = start_in_thread(ServeConfig(workers=1, backoff_base_s=0.02))
        with ServeClient(handle.host, handle.port) as c:
            first = c.minimize(bench_pla("dram-ctrl"))
            assert first["status"] == "ok"
            reply = c.shutdown()
            assert reply["ok"] and reply["draining"] is True
        handle._thread.join(timeout=60)
        assert not handle._thread.is_alive()
        # new connections are refused once the listener is closed
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port), timeout=2)

    def test_oversized_line_gets_answer_then_close(self):
        handle = start_in_thread(ServeConfig(
            workers=1, max_line_bytes=1024
        ))
        try:
            with ServeClient(handle.host, handle.port) as c:
                big = json.dumps({
                    "op": "minimize", "pla": "x" * 4096
                })
                reply = c.send_raw((big + "\n").encode())
                assert reply["status"] == "protocol_error"
                assert "exceeds" in reply["error"]
        finally:
            handle.stop()
