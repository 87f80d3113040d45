"""The perfbench gate's rules, on synthetic result lines.

``scripts/perf_gate.py`` runs ``perfbench/run.py`` and checks each run's
result line (the last line of its standard output) against a committed
baseline line.  Every rule is pinned here without running the benchmark:

* a run must exit 0 and report ``correct: true`` and ``failed: 0``;
* ``cover_cubes`` and ``cover_literals`` may not rise, and a fall passes
  with a note to refresh the baseline;
* the essentials pass's share of the traced pla-suite pass layers is
  capped at 0.65;
* a missing baseline, metric or layer fails;
* the time and memory metrics only warn, however far beyond their bound.
"""

import copy
import importlib.util
import json
import os
import shutil

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(REPO_ROOT, "scripts", "perf_gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_gate = _load_perf_gate()

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]


def _line(**values):
    """A perfbench result line carrying ``values`` as its metrics."""
    return {
        "correct": True,
        "attempted": 300,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }


@pytest.fixture()
def baseline():
    return _line(
        throughput_ips=40.0,
        latency_p50_ms=20.0,
        latency_tail_ms=60.0,
        setup_s=1.5,
        peak_rss_mb=50.0,
        cover_cubes=328,
        cover_literals=2069,
    )


def _trace_line(essentials, rest):
    """A traced pla-suite line whose essentials share is essentials/(essentials+rest)."""
    layers = {f"hf.{phase}_ms": 0.0 for phase in perf_gate.HF_PHASES}
    layers["hf.essentials_ms"] = essentials
    layers["hf.expand_ms"] = rest
    return _line(**layers)


def metric(line, name):
    return line["metrics"][name]["value"]


def _verdicts(rows):
    return [verdict for verdict, _ in rows]


def _check(current, baseline, code=0):
    return perf_gate.check_run("pla-suite", code, current, baseline, BOUNDS)


class TestQualityRules:
    def test_identical_run_passes(self, baseline):
        rows = _check(copy.deepcopy(baseline), baseline)
        assert set(_verdicts(rows)) == {"ok"}
        assert len(rows) == len(BOUNDS)

    @pytest.mark.parametrize("name", ["cover_cubes", "cover_literals"])
    def test_increase_fails(self, baseline, name):
        current = copy.deepcopy(baseline)
        current["metrics"][name]["value"] += 1
        rows = _check(current, baseline)
        assert [text for verdict, text in rows if verdict == "FAIL"] == [
            f"pla-suite {name}: {metric(baseline, name):g} -> {metric(current, name):g}"
        ]

    @pytest.mark.parametrize("name", ["cover_cubes", "cover_literals"])
    def test_decrease_passes_with_a_refresh_note(self, baseline, name):
        current = copy.deepcopy(baseline)
        current["metrics"][name]["value"] -= 1
        rows = _check(current, baseline)
        assert "FAIL" not in _verdicts(rows)
        notes = [text for verdict, text in rows if verdict == "note"]
        assert len(notes) == 1 and "refresh BENCH_pla.json" in notes[0]

    def test_main_exits_one_on_a_cube_increase(self, monkeypatch, capsys, baseline):
        grown = copy.deepcopy(baseline)
        grown["metrics"]["cover_cubes"]["value"] += 1
        monkeypatch.setattr(perf_gate, "read_baseline", lambda workload: (baseline, []))
        monkeypatch.setattr(
            perf_gate,
            "run_perfbench",
            lambda workload, seconds, trace: (0, _trace_line(0.6, 0.4) if trace else grown),
        )
        assert perf_gate.main() == 1
        assert "perf gate: FAIL (3 failure(s)" in capsys.readouterr().out


class TestStatusRules:
    def test_nonzero_exit_fails(self, baseline):
        rows = _check(copy.deepcopy(baseline), baseline, code=1)
        assert _verdicts(rows).count("FAIL") == 1

    def test_incorrect_result_fails(self, baseline):
        current = copy.deepcopy(baseline)
        current["correct"] = False
        assert "FAIL" in _verdicts(_check(current, baseline))

    def test_failed_requests_fail(self, baseline):
        current = copy.deepcopy(baseline)
        current["failed"] = 1
        assert "FAIL" in _verdicts(_check(current, baseline))

    def test_missing_result_line_fails(self, baseline):
        rows = _check(None, baseline, code=1)
        assert _verdicts(rows) == ["FAIL", "FAIL"]

    def test_trace_run_status_is_gated_too(self):
        line = _trace_line(0.5, 0.5)
        line["failed"] = 2
        assert "FAIL" in _verdicts(perf_gate.check_trace(0, line))
        assert "FAIL" in _verdicts(perf_gate.check_trace(1, _trace_line(0.5, 0.5)))


class TestEssentialsShare:
    def test_share_above_the_cap_fails(self):
        rows = perf_gate.check_trace(0, _trace_line(0.66, 0.34))
        assert _verdicts(rows) == ["FAIL"]
        assert "essentials share 0.660" in rows[0][1]

    def test_share_below_the_cap_passes(self):
        rows = perf_gate.check_trace(0, _trace_line(0.60, 0.40))
        assert _verdicts(rows) == ["ok"]
        assert "essentials share 0.600" in rows[0][1]

    def test_share_sums_every_pass_layer(self):
        line = _trace_line(6.0, 1.0)
        for phase in perf_gate.HF_PHASES:
            if phase not in ("essentials", "expand"):
                line["metrics"][f"hf.{phase}_ms"]["value"] = 0.5
        assert perf_gate.essentials_share(line) == pytest.approx(6.0 / 10.0)

    def test_missing_layer_fails(self):
        line = _trace_line(0.5, 0.5)
        del line["metrics"]["hf.make_prime_ms"]
        rows = perf_gate.check_trace(0, line)
        assert _verdicts(rows) == ["FAIL"]
        assert "hf.make_prime_ms" in rows[0][1]


class TestMissingInputs:
    @pytest.mark.parametrize("side", ["baseline", "result"])
    def test_missing_metric_fails(self, baseline, side):
        current = copy.deepcopy(baseline)
        del (baseline if side == "baseline" else current)["metrics"]["cover_literals"]
        failures = [text for verdict, text in _check(current, baseline) if verdict == "FAIL"]
        assert failures == [f"pla-suite cover_literals: missing from the {side}"]

    def test_missing_baseline_file_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(perf_gate, "ROOT", str(tmp_path))
        baseline, rows = perf_gate.read_baseline("serve-mix")
        assert baseline is None
        assert _verdicts(rows) == ["FAIL"] and "BENCH_serve.json" in rows[0][1]

    def test_main_fails_without_baselines(self, tmp_path, monkeypatch, capsys, baseline):
        # every run passes, but no baseline file exists: the gate fails
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
        monkeypatch.setattr(perf_gate, "ROOT", str(tmp_path))
        runs = []

        def fake_run(workload, seconds, trace):
            runs.append((workload, seconds, trace))
            return 0, _trace_line(0.5, 0.5) if trace else copy.deepcopy(baseline)

        monkeypatch.setattr(perf_gate, "run_perfbench", fake_run)
        assert perf_gate.main() == 1
        assert runs == [
            ("pla-suite", SECONDS, 0), ("serve-mix", SECONDS, 0),
            ("detect-suite", SECONDS, 0), ("pla-suite", SECONDS, 1),
        ]
        out = capsys.readouterr().out
        assert out.count("FAIL") == 4 and "perf gate: FAIL" in out


class TestAdvisoryTimes:
    @pytest.mark.parametrize(
        "name", ["throughput_ips", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"]
    )
    def test_twice_beyond_the_bound_warns(self, baseline, name):
        better, bound = BOUNDS[name]
        current = copy.deepcopy(baseline)
        factor = 1 - 2 * bound if better == "higher" else 1 + 2 * bound
        current["metrics"][name]["value"] = metric(baseline, name) * factor
        rows = _check(current, baseline)
        assert _verdicts(rows).count("WARN") == 1 and "FAIL" not in _verdicts(rows)

    def test_main_exits_zero_on_warnings(self, monkeypatch, capsys, baseline):
        slow = copy.deepcopy(baseline)
        slow["metrics"]["latency_p50_ms"]["value"] *= 1.5
        slow["metrics"]["throughput_ips"]["value"] *= 0.5
        monkeypatch.setattr(perf_gate, "read_baseline", lambda workload: (baseline, []))
        monkeypatch.setattr(
            perf_gate,
            "run_perfbench",
            lambda workload, seconds, trace: (0, _trace_line(0.6, 0.4) if trace else slow),
        )
        assert perf_gate.main() == 0
        out = capsys.readouterr().out
        assert out.count("WARN") == 6 and "perf gate: PASS" in out


class TestCommittedBaselines:
    @pytest.mark.parametrize("workload", sorted(perf_gate.BASELINES))
    def test_baseline_is_a_passing_result_line(self, workload):
        line, rows = perf_gate.read_baseline(workload)
        assert rows == []
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == set(BOUNDS)
        # the baseline against itself is the no-regression case
        assert set(_verdicts(perf_gate.check_run(workload, 0, line, line, BOUNDS))) == {"ok"}

    def test_pla_totals_match_the_golden_covers(self):
        with open(os.path.join(REPO_ROOT, "data", "golden_pipeline.json")) as fh:
            circuits = json.load(fh)["circuits"].values()
        line, _ = perf_gate.read_baseline("pla-suite")
        assert metric(line, "cover_cubes") == sum(c["num_cubes"] for c in circuits) == 328
        assert metric(line, "cover_literals") == sum(c["num_literals"] for c in circuits) == 2069
