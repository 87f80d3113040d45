"""One wording for a wall-clock timeout, whichever runner enforced it."""

from repro.corpus import differential_payload, generate_corpus
from repro.corpus.executor import run_task_isolated
from repro.guard.bundle import load_bundle
from repro.guard.runner import benchmark_payload, run_one, timeout_message


def test_message_is_pinned():
    assert timeout_message(0.5) == "exceeded per-instance timeout of 0.5s"
    assert timeout_message(120) == "exceeded per-instance timeout of 120s"


def test_guard_runner_row_and_bundle_use_it(tmp_path):
    # repeats makes the child outlast the deadline deterministically
    payload = benchmark_payload("stetson-p3", repeats=10_000_000)
    row = run_one(payload, timeout_s=0.3, bundle_dir=str(tmp_path))
    assert row["status"] == "timeout"
    assert row["error"] == timeout_message(0.3)
    assert load_bundle(row["bundle_path"]).failure_message == timeout_message(0.3)


def test_corpus_executor_row_uses_it():
    inst = generate_corpus(seed=21, count=1)[0]
    payload = differential_payload(
        inst.name, inst.pla_text, stratum=inst.stratum, solvable=inst.solvable
    )
    payload["inject"] = {"sleep_s": 30.0}
    row = run_task_isolated(payload, timeout_s=0.5)
    assert row["status"] == "timeout"
    assert row["error"] == timeout_message(0.5)
