"""Subprocess-isolated batch runner (repro.guard.runner).

The acceptance scenario: a batch over the full 15-circuit Figure-8 suite
with one circuit forced into a timeout still reports one structured row
per circuit — the other 14 unaffected, the timed-out one with
``status="timeout"`` and a preserved-input bundle.
"""

from repro.bm.benchmarks import BENCHMARKS
from repro.guard.runner import (
    ROW_STATUSES,
    benchmark_payload,
    minimize_payload,
    pla_payload,
    run_batch,
    run_one,
)

def unsolvable_pla_text():
    from repro.pla.writer import format_pla

    from tests.test_hazards import unsolvable_instance

    return format_pla(unsolvable_instance())


class TestMinimizePayload:
    def test_benchmark_ok_row(self):
        row = minimize_payload(benchmark_payload("dram-ctrl"))
        assert row["status"] == "ok"
        assert row["verified"] is True
        assert row["num_cubes"] > 0
        assert row["n_inputs"] == 9
        assert row["counters"]["supercube_calls"] > 0

    def test_unknown_benchmark_is_malformed(self):
        row = minimize_payload(benchmark_payload("no-such-circuit"))
        assert row["status"] == "malformed"
        assert "no-such-circuit" in row["error"]

    def test_malformed_pla_row(self):
        row = minimize_payload(pla_payload(".i 2\n.o\n", name="broken"))
        assert row["status"] == "malformed"
        assert "line 2" in row["error"]

    def test_no_solution_row(self):
        row = minimize_payload(pla_payload(unsolvable_pla_text(), name="unsat"))
        assert row["status"] == "no_solution"

    def test_cover_pla_round_trips(self):
        from repro.pla import parse_pla

        row = minimize_payload(pla_payload_for_fig3())
        assert row["status"] == "ok"
        cover = parse_pla(row["cover_pla"]).on
        assert len(cover) == row["num_cubes"]

    def test_stale_session_keys_are_ignored(self):
        # Work items no longer carry sessions; one built by an older
        # caller with ``warm_session``/``capture_session`` runs the plain
        # cold pipeline and its row carries no session fields.
        plain = minimize_payload(pla_payload_for_fig3())
        stale = dict(
            pla_payload_for_fig3(),
            warm_session={"garbage": True},
            capture_session=True,
        )
        row = minimize_payload(stale)
        assert row["status"] == plain["status"] == "ok"
        assert row["cover_pla"] == plain["cover_pla"]
        assert row["verified"] is True
        assert "warm" not in row and "session" not in row


def pla_payload_for_fig3():
    from repro.pla.writer import format_pla

    from tests.test_hazards import figure3_instance

    return pla_payload(format_pla(figure3_instance()), name="fig3")


class TestRunOne:
    def test_isolated_ok(self):
        row = run_one(benchmark_payload("pscsi-ircv"), timeout_s=120)
        assert row["status"] == "ok"
        assert row["verified"] is True

    def test_isolated_timeout_with_bundle(self, tmp_path):
        # repeats makes the child outlast any deadline deterministically
        payload = benchmark_payload("stetson-p3", repeats=10_000_000)
        row = run_one(payload, timeout_s=0.3, bundle_dir=str(tmp_path))
        assert row["status"] == "timeout"
        assert "timeout" in row["error"]
        import os

        assert row["bundle_path"] and os.path.exists(row["bundle_path"])
        from repro.guard.bundle import load_bundle

        bundle = load_bundle(row["bundle_path"])
        assert bundle.failure_kind == "timeout"
        assert ".trans" in bundle.pla_text


class TestRunBatch:
    def test_full_suite_with_one_forced_timeout(self, tmp_path):
        names = [b.name for b in BENCHMARKS]
        victim = "stetson-p3"
        payloads = []
        for name in names:
            if name == victim:
                payloads.append(
                    benchmark_payload(name, repeats=10_000_000, timeout_s=0.3)
                )
            else:
                payloads.append(benchmark_payload(name))
        rows = run_batch(payloads, timeout_s=120, bundle_dir=str(tmp_path))

        assert [r["name"] for r in rows] == names  # one row each, in order
        by_name = {r["name"]: r for r in rows}
        assert by_name[victim]["status"] == "timeout"
        assert by_name[victim]["bundle_path"]
        for name in names:
            if name == victim:
                continue
            row = by_name[name]
            assert row["status"] == "ok", (name, row.get("error"))
            assert row["verified"] is True
            assert row["status"] in ROW_STATUSES


class TestWorkerCrash:
    """Worker death is a first-class, structured, retry-safe status."""

    def test_inject_kill_is_ignored_in_process(self):
        # The fault seam must never kill the calling process: a direct
        # minimize_payload call (MainProcess) runs the job normally.
        payload = benchmark_payload("dram-ctrl")
        payload["inject"] = {"kill": True}
        row = minimize_payload(payload)
        assert row["status"] == "ok"

    def test_run_one_reports_worker_crashed(self):
        payload = benchmark_payload("dram-ctrl")
        payload["inject"] = {"kill": True}
        row = run_one(payload, timeout_s=60)
        assert row["status"] == "worker_crashed"
        assert row["exitcode"] == -9
        assert row["signal"] == "SIGKILL"
        assert "died without reporting" in row["error"]

    def test_kill_attempts_models_a_transient_crash(self):
        payload = benchmark_payload("dram-ctrl")
        payload["inject"] = {"kill_attempts": [0]}
        payload["attempt"] = 0
        assert run_one(payload, timeout_s=60)["status"] == "worker_crashed"
        payload["attempt"] = 1
        assert run_one(payload, timeout_s=60)["status"] == "ok"

    def test_injected_malformed_fault_classifies_as_malformed(self):
        payload = benchmark_payload("dram-ctrl")
        payload["inject"] = {"raise": "malformed"}
        row = run_one(payload, timeout_s=60)
        assert row["status"] == "malformed"
        assert "injected" in row["error"]

    def test_worker_crashed_error_carries_signal(self):
        from repro.guard.errors import WorkerCrashed
        from repro.guard.runner import worker_crashed_error

        payload = benchmark_payload("dram-ctrl")
        payload["inject"] = {"kill": True}
        row = run_one(payload, timeout_s=60)
        exc = worker_crashed_error(row)
        assert isinstance(exc, WorkerCrashed)
        assert exc.exit_code == 6
        assert exc.exitcode == -9
        assert exc.signal == "SIGKILL"


class TestRunPoolCrashSafety:
    """A SIGKILLed pool worker must not hang or poison the batch."""

    def test_pool_survives_a_killed_worker(self):
        from repro.guard.runner import run_pool

        killer = benchmark_payload("pe-send-ifc")
        killer["inject"] = {"kill": True}
        payloads = [
            benchmark_payload("dram-ctrl"),
            killer,
            benchmark_payload("pscsi-ircv"),
        ]
        rows = run_pool(payloads, jobs=2, timeout_s=120)
        assert [r["name"] for r in rows] == [
            "dram-ctrl", "pe-send-ifc", "pscsi-ircv",
        ]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "worker_crashed"
        assert rows[1]["signal"] == "SIGKILL"
        assert rows[2]["status"] == "ok"

    def test_pool_timeout_still_bundles(self, tmp_path):
        from repro.guard.runner import run_pool

        slow = benchmark_payload("dram-ctrl", repeats=10_000_000)
        slow["timeout_s"] = 0.3
        rows = run_pool(
            [slow, benchmark_payload("pscsi-ircv")],
            jobs=2,
            bundle_dir=str(tmp_path),
            timeout_s=120,
        )
        assert rows[0]["status"] == "timeout"
        assert rows[0]["bundle_path"]
        assert rows[1]["status"] == "ok"
