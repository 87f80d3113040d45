"""Benchmark regression gate: the pass/fail matrix on synthetic snapshots.

Everything here runs on hand-built snapshot fixtures — no benchmarking —
so each rule of :mod:`repro.obs.regress` is pinned in isolation:

* time rules (suite total, per-circuit median-of-repeats, suite-wide
  per-phase, per-circuit summed pass time) fail iff
  ``current > baseline * slack + floor``;
* the absolute floor suppresses noise on sub-millisecond phases;
* quality rules (cube / literal counts) and status degradations are
  zero-tolerance;
* coverage changes (circuit added or missing) warn, never fail;
* ``scripts/bench_gate.py`` — the actual CI entry point — exits 0 on
  identical snapshots and nonzero when a fixture injects a 2× slowdown
  into one phase (the ISSUE's acceptance criterion, automated).
"""

import copy
import importlib.util
import json
import os
import sys

import pytest

from repro.obs.regress import (
    GateThresholds,
    circuit_time_s,
    compare_snapshots,
    load_snapshot,
)
from repro.obs.regress import main as regress_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _circuit(
    name,
    time_s=0.1,
    times_s=None,
    num_cubes=10,
    num_literals=50,
    status="ok",
    phases=None,
):
    return {
        "name": name,
        "status": status,
        "num_cubes": num_cubes,
        "num_literals": num_literals,
        "time_s": time_s,
        "times_s": times_s if times_s is not None else [time_s] * 3,
        "phase_seconds": phases or {"expand": time_s},
        "counters": {},
    }


def _snapshot(circuits, phases=None):
    return {
        "suite": "espresso-hf",
        "total_time_s": sum(circuit_time_s(c) for c in circuits),
        "phase_seconds_total": phases or {"expand": 0.1, "reduce": 0.05},
        "circuits": circuits,
    }


@pytest.fixture()
def baseline():
    return _snapshot(
        [_circuit("alpha", 0.2), _circuit("beta", 0.1)],
        phases={"expand": 0.2, "reduce": 0.1},
    )


def _verdicts(report, kind):
    return {d.name: d.verdict for d in report.deltas if d.kind == kind}


class TestTimeRules:
    def test_identical_snapshots_pass(self, baseline):
        report = compare_snapshots(baseline, copy.deepcopy(baseline))
        assert report.passed
        assert not report.failures and not report.warnings

    def test_total_time_regression_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["total_time_s"] = baseline["total_time_s"] * 3
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "total")["suite"] == "fail"
        assert not report.passed

    def test_total_time_within_slack_passes(self, baseline):
        current = copy.deepcopy(baseline)
        current["total_time_s"] = baseline["total_time_s"] * 1.5
        report = compare_snapshots(
            baseline, current, GateThresholds(slack=1.6)
        )
        assert report.passed

    def test_per_phase_regression_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["phase_seconds_total"]["expand"] = 0.9  # 4.5x the 0.2s base
        report = compare_snapshots(baseline, current)
        phases = _verdicts(report, "phase")
        assert phases["expand"] == "fail"
        assert phases["reduce"] == "ok"
        assert not report.passed

    def test_absolute_floor_suppresses_submillisecond_noise(self, baseline):
        # a 0.4ms phase doubling to 0.8ms is scheduler jitter, not a
        # regression: the 10ms phase floor must absorb it.
        baseline["phase_seconds_total"]["tiny"] = 0.0004
        current = copy.deepcopy(baseline)
        current["phase_seconds_total"]["tiny"] = 0.0008
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "phase")["tiny"] == "ok"
        assert report.passed

    def test_floor_zero_restores_pure_relative_rule(self, baseline):
        baseline["phase_seconds_total"]["tiny"] = 0.0004
        current = copy.deepcopy(baseline)
        current["phase_seconds_total"]["tiny"] = 0.0008
        report = compare_snapshots(
            baseline, current, GateThresholds(slack=1.6, phase_floor_s=0.0)
        )
        assert _verdicts(report, "phase")["tiny"] == "fail"

    def test_per_circuit_uses_median_of_repeats(self, baseline):
        current = copy.deepcopy(baseline)
        # one pathological repeat: best-of and median stay at 0.2s
        current["circuits"][0]["times_s"] = [0.2, 0.2, 9.0]
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "circuit")["alpha"] == "ok"
        # a true slowdown moves the median and fails
        current["circuits"][0]["times_s"] = [0.9, 1.0, 1.1]
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "circuit")["alpha"] == "fail"

    def test_pre_times_s_baseline_falls_back_to_best_of(self):
        row = {"time_s": 0.3}
        assert circuit_time_s(row) == 0.3
        assert circuit_time_s({}) is None

    def test_pass_time_regression_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"][0]["phase_seconds"] = {"expand": 2.0}
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "op")["alpha"] == "fail"
        assert _verdicts(report, "op")["beta"] == "ok"

    def test_pass_time_rule_sums_every_pass(self, baseline):
        # the rule reads the sum over passes: a new pass counts in full
        current = copy.deepcopy(baseline)
        current["circuits"][0]["phase_seconds"] = {
            "expand": 0.2,
            "reduce": 0.2,
        }
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "op")["alpha"] == "fail"

    def test_rows_without_pass_times_skip_the_op_rule(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"][0]["phase_seconds"] = {}
        report = compare_snapshots(baseline, current)
        assert "alpha" not in _verdicts(report, "op")

    def test_phase_only_on_one_side_warns(self, baseline):
        current = copy.deepcopy(baseline)
        current["phase_seconds_total"]["new_phase"] = 0.01
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "phase")["new_phase"] == "warn"
        assert report.passed


class TestQualityRules:
    def test_cube_count_drift_fails_even_within_time_slack(self, baseline):
        # quality regressions gate too: the minimizer is deterministic,
        # so +1 cube is a code change, never noise.
        current = copy.deepcopy(baseline)
        current["circuits"][0]["num_cubes"] += 1
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "cubes")["alpha"] == "fail"
        assert not report.passed

    def test_literal_count_drift_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"][1]["num_literals"] += 1
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "literals")["beta"] == "fail"

    def test_quality_improvement_passes(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"][0]["num_cubes"] -= 1
        current["circuits"][0]["num_literals"] -= 5
        report = compare_snapshots(baseline, current)
        assert report.passed

    def test_status_degradation_fails_and_skips_quality(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"][0]["status"] = "timeout"
        current["circuits"][0]["num_cubes"] = 0  # meaningless on a timeout
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "status")["alpha"] == "fail"
        assert "alpha" not in _verdicts(report, "cubes")

    def test_status_improvement_passes(self, baseline):
        baseline["circuits"][0]["status"] = "degraded"
        current = copy.deepcopy(baseline)
        current["circuits"][0]["status"] = "ok"
        report = compare_snapshots(baseline, current)
        assert "alpha" not in _verdicts(report, "status")
        assert report.passed

    def test_worker_crashed_ranks_worse_than_timeout(self, baseline):
        # worker_crashed is an explicit outcome-table row, ranked worst:
        # timeout -> worker_crashed gates, the reverse is an improvement,
        # and an unknown status ranks level with it (as before it had a row)
        baseline["circuits"][0]["status"] = "timeout"
        baseline["circuits"][1]["status"] = "worker_crashed"
        current = copy.deepcopy(baseline)
        current["circuits"][0]["status"] = "worker_crashed"
        current["circuits"][1]["status"] = "timeout"
        statuses = _verdicts(compare_snapshots(baseline, current), "status")
        assert statuses == {"alpha": "fail"}
        current["circuits"][0]["status"] = "not-a-status"
        current["circuits"][1]["status"] = "worker_crashed"
        assert not _verdicts(compare_snapshots(current, baseline), "status")
        baseline["circuits"][0]["status"] = "worker_crashed"
        assert not _verdicts(compare_snapshots(baseline, current), "status")


class TestCoverageRules:
    def test_new_circuit_warns_not_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"].append(_circuit("gamma", 0.05))
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "coverage")["gamma"] == "warn"
        assert report.passed

    def test_missing_circuit_warns_not_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"].pop()
        report = compare_snapshots(baseline, current)
        assert _verdicts(report, "coverage")["beta"] == "warn"
        assert report.passed


class TestReportTable:
    def test_table_shows_failures_and_summary_line(self, baseline):
        current = copy.deepcopy(baseline)
        current["circuits"][0]["num_cubes"] += 2
        report = compare_snapshots(baseline, current)
        lines = report.table()
        assert any("FAIL" in line and "alpha" in line for line in lines)
        assert lines[-1].startswith("gate: 1 failure(s)")
        assert report.summary() == "FAIL"

    def test_default_table_hides_ok_rows_all_rows_shows_them(self, baseline):
        report = compare_snapshots(baseline, copy.deepcopy(baseline))
        assert len(report.table(all_rows=True)) > len(report.table())


def _write(tmp_path, name, snapshot):
    path = tmp_path / name
    path.write_text(json.dumps(snapshot))
    return str(path)


class TestRegressMain:
    def test_exit_zero_on_identical(self, tmp_path, baseline, capsys):
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", baseline)
        assert regress_main([base, cur]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_quality_drift(self, tmp_path, baseline, capsys):
        current = copy.deepcopy(baseline)
        current["circuits"][0]["num_cubes"] += 1
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", current)
        assert regress_main([base, cur]) == 1
        assert "FAIL" in capsys.readouterr().out


def _load_bench_gate():
    scripts = os.path.join(REPO_ROOT, "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    spec = importlib.util.spec_from_file_location(
        "bench_gate", os.path.join(scripts, "bench_gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchGateScript:
    """The CI entry point itself, gated on fixture snapshots via
    ``--current`` (no benchmark sweep)."""

    @pytest.fixture(scope="class")
    def bench_gate(self):
        return _load_bench_gate()

    def test_exit_zero_on_identical_snapshots(
        self, bench_gate, tmp_path, baseline, capsys
    ):
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", copy.deepcopy(baseline))
        assert bench_gate.main(["--baseline", base, "--current", cur]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_2x_phase_slowdown(
        self, bench_gate, tmp_path, baseline, capsys
    ):
        # the acceptance criterion: inject a 2x slowdown into one phase
        # (well above the floor) and the gate must exit nonzero.
        baseline["phase_seconds_total"]["expand"] = 0.2
        current = copy.deepcopy(baseline)
        current["phase_seconds_total"]["expand"] = 0.4
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", current)
        code = bench_gate.main(
            ["--baseline", base, "--current", cur, "--slack", "1.6"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "expand" in out

    def test_floor_flags_reach_thresholds(
        self, bench_gate, tmp_path, baseline, capsys
    ):
        # same 2x excursion, but on a sub-millisecond phase: the default
        # 10ms floor absorbs it, a 0ms floor fails it.
        baseline["phase_seconds_total"]["tiny"] = 0.0004
        current = copy.deepcopy(baseline)
        current["phase_seconds_total"]["tiny"] = 0.0008
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", current)
        common = ["--baseline", base, "--current", cur]
        assert bench_gate.main(common) == 0
        assert bench_gate.main(common + ["--phase-floor-ms", "0"]) == 1
        capsys.readouterr()

    def test_table_out_writes_full_delta_table(
        self, bench_gate, tmp_path, baseline, capsys
    ):
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", copy.deepcopy(baseline))
        table = tmp_path / "delta.txt"
        code = bench_gate.main(
            ["--baseline", base, "--current", cur, "--table-out", str(table)]
        )
        assert code == 0
        text = table.read_text()
        assert "alpha" in text and text.rstrip().endswith("PASS")
        capsys.readouterr()


class TestCommittedBaselineLoads:
    def test_committed_baseline_has_gate_inputs(self):
        snap = load_snapshot(
            os.path.join(REPO_ROOT, "BENCH_espresso_hf.json")
        )
        assert snap["circuits"], "empty committed baseline"
        for row in snap["circuits"]:
            assert row["times_s"], row["name"]
            assert row["phase_seconds"], row["name"]
        assert snap["phase_seconds_total"]

    def test_committed_baseline_self_gates_clean(self):
        # the gate against itself is the degenerate no-regression case
        snap = load_snapshot(
            os.path.join(REPO_ROOT, "BENCH_espresso_hf.json")
        )
        report = compare_snapshots(snap, copy.deepcopy(snap))
        assert report.passed and not report.warnings
        # one per-circuit pass-time delta per committed circuit
        assert len(_verdicts(report, "op")) == len(snap["circuits"])

    def test_doubled_pass_times_fail_the_op_rule(self):
        snap = load_snapshot(
            os.path.join(REPO_ROOT, "BENCH_espresso_hf.json")
        )
        current = copy.deepcopy(snap)
        for row in current["circuits"]:
            row["phase_seconds"] = {
                k: 2 * v for k, v in row["phase_seconds"].items()
            }
        th = GateThresholds()
        report = compare_snapshots(snap, current, th)
        verdicts = _verdicts(report, "op")
        assert len(verdicts) == len(snap["circuits"])
        # 2t > slack * t + floor  iff  t > floor / (2 - slack)
        cutoff = th.op_floor_s / (2 - th.slack)
        slow = [
            row["name"]
            for row in snap["circuits"]
            if sum(row["phase_seconds"].values()) > cutoff
        ]
        assert slow, "no committed circuit above the op floor"
        for name in slow:
            assert verdicts[name] == "fail", name
        assert not report.passed


def _load_bench_hf():
    scripts = os.path.join(REPO_ROOT, "scripts")
    if scripts not in sys.path:
        sys.path.insert(0, scripts)
    spec = importlib.util.spec_from_file_location(
        "bench_hf", os.path.join(scripts, "bench_hf.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPhaseLimits:
    """The phase wall-time gates of ``scripts/bench_hf.py`` — the
    ``check_phase_limits`` matrix on synthetic snapshots plus the
    ``--from-snapshot`` CLI path CI's essentials-share gate uses."""

    @pytest.fixture(scope="class")
    def bench_hf(self):
        return _load_bench_hf()

    @pytest.fixture
    def snapshot(self):
        return {
            "phase_seconds_total": {"essentials": 0.6, "expand": 0.4}
        }

    def test_within_limits_returns_no_violations(self, bench_hf, snapshot):
        out = bench_hf.check_phase_limits(
            snapshot,
            budgets=["essentials=1.0"],
            shares=["essentials=0.65"],
        )
        assert out == []

    def test_budget_exceeded(self, bench_hf, snapshot):
        out = bench_hf.check_phase_limits(snapshot, budgets=["essentials=0.5"])
        assert len(out) == 1 and "essentials" in out[0] and "cap" in out[0]

    def test_share_exceeded(self, bench_hf, snapshot):
        out = bench_hf.check_phase_limits(snapshot, shares=["essentials=0.5"])
        assert len(out) == 1 and "60.0%" in out[0]

    def test_unknown_phase_is_a_violation(self, bench_hf, snapshot):
        # a silently skipped gate would be worse than a loud error
        out = bench_hf.check_phase_limits(snapshot, budgets=["nosuch=1.0"])
        assert out and "no such phase" in out[0]

    def test_malformed_spec_raises(self, bench_hf, snapshot):
        with pytest.raises(ValueError):
            bench_hf.check_phase_limits(snapshot, budgets=["essentials"])
        with pytest.raises(ValueError):
            bench_hf.check_phase_limits(snapshot, shares=["essentials=abc"])

    def test_from_snapshot_cli_exit_codes(
        self, bench_hf, tmp_path, snapshot, capsys
    ):
        path = _write(tmp_path, "snap.json", snapshot)
        ok = bench_hf.main(
            ["--from-snapshot", path, "--max-phase-share", "essentials=0.65"]
        )
        assert ok == 0 and "phase limits ok" in capsys.readouterr().out
        bad = bench_hf.main(
            ["--from-snapshot", path, "--max-phase-share", "essentials=0.5"]
        )
        assert bad == 1 and "FAIL" in capsys.readouterr().out
