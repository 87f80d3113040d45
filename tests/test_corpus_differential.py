"""Differential driver and scoreboard: the corpus acceptance criteria.

The CI smoke slice lives here: ~50 stratified instances through the
2-job shard executor, exact vs heuristic, **zero unexplained
disagreements** and every both-solved heuristic cover verified under
Theorem 2.11.  Plus the verdict taxonomy unit checks, a crafted
disagreement (via the inject defect seam) that must surface as an
unexplained verdict with a repro bundle, and the scoreboard shape.
"""

import json

import pytest

from repro.corpus import (
    build_scoreboard,
    differential_payload,
    format_scoreboard,
    generate_corpus,
    run_corpus,
    run_differential_payload,
    unexplained_rows,
)
from repro.corpus.differential import (
    UNEXPLAINED_VERDICTS,
    VERDICTS,
    _classify,
)

SMOKE_SEED = 2026
SMOKE_COUNT = 50


@pytest.fixture(scope="module")
def smoke_rows():
    instances = generate_corpus(seed=SMOKE_SEED, count=SMOKE_COUNT)
    payloads = [
        differential_payload(
            i.name,
            i.pla_text,
            stratum=i.stratum,
            solvable=i.solvable,
            timeout_s=120.0,
        )
        for i in instances
    ]
    rows, stats = run_corpus(payloads, jobs=2)
    return instances, rows, stats


class TestCorpusSmoke:
    """The ISSUE acceptance gate, as a tier-1 test."""

    def test_zero_unexplained_disagreements(self, smoke_rows):
        _, rows, stats = smoke_rows
        assert stats.executed == SMOKE_COUNT
        bad = unexplained_rows(rows)
        assert not bad, [
            (r["name"], r["verdict"], r.get("error")) for r in bad
        ]

    def test_every_solved_cover_is_theorem_2_11_verified(self, smoke_rows):
        _, rows, _ = smoke_rows
        solved = [r for r in rows if r.get("hf_cubes") is not None]
        assert solved, "smoke corpus produced no solved instances"
        for row in solved:
            assert row["hf_verified"] is True, row["name"]

    def test_verdicts_match_manifest_solvability(self, smoke_rows):
        instances, rows, _ = smoke_rows
        expected = {i.name: i.solvable for i in instances}
        for row in rows:
            if row["verdict"] == "both_no_solution":
                assert expected[row["name"]] is False
            elif row["verdict"] in ("exact_match", "heuristic_larger"):
                assert expected[row["name"]] is True

    def test_heuristic_never_beats_exact(self, smoke_rows):
        _, rows, _ = smoke_rows
        for row in rows:
            if row.get("hf_cubes") is not None and row.get("exact_cubes"):
                assert row["hf_cubes"] >= row["exact_cubes"], row["name"]
                assert row["ratio"] >= 1.0


class TestVerdictTaxonomy:
    def test_every_unexplained_verdict_is_a_verdict(self):
        assert set(UNEXPLAINED_VERDICTS) <= set(VERDICTS)

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            # hf_status, hf_cubes, hf_verified, exact_status, exact_cubes, solvable
            (("ok", 4, True, "ok", 4, True), "exact_match"),
            (("ok", 5, True, "ok", 4, True), "heuristic_larger"),
            (("ok", 3, True, "ok", 4, True), "exact_suboptimal"),
            (("ok", 4, False, "ok", 4, True), "hf_verify_failed"),
            (("budget_exceeded", 9, False, "ok", 4, True), "hf_verify_failed"),
            (("budget_exceeded", None, None, "ok", 4, True), "hf_budget"),
            (("crash", None, None, "ok", 4, True), "hf_error"),
            (("invariant_violation", None, None, "ok", 4, True), "hf_error"),
            (("no_solution", None, None, "no_solution", None, False),
             "both_no_solution"),
            (("no_solution", None, None, "no_solution", None, None),
             "both_no_solution"),
            (("no_solution", None, None, "no_solution", None, True),
             "solvability_mismatch"),
            (("ok", 4, True, "no_solution", None, True),
             "solvability_mismatch"),
            (("no_solution", None, None, "ok", 4, True),
             "solvability_mismatch"),
            (("ok", 4, True, "ok", 4, False), "solvability_mismatch"),
            (("ok", 4, True, "exact_failure", None, True),
             "exact_unavailable"),
            (("degraded", 6, True, "ok", 4, True), "heuristic_larger"),
        ],
    )
    def test_classification_table(self, kwargs, expected):
        assert _classify(*kwargs) == expected

    def test_malformed_instance_rows_are_explained(self):
        row = run_differential_payload(
            differential_payload("broken", ".i 2\nthis is not a pla\n")
        )
        assert row["verdict"] == "malformed"
        assert row["explained"] is True


def _defective_payload(inject_defect="irredundant_drop"):
    """A solvable instance with a known pipeline defect installed.

    Loop defects need the essentials shortcut disabled so the corrupted
    pass is actually reached (same rule as
    :func:`repro.proptest.faults.faulty_options`); the defect itself is
    installed inside the worker via the inject seam, since a decorator
    cannot cross the process boundary.
    """
    from repro.hf.espresso_hf import EspressoHFOptions

    inst = next(
        i for i in generate_corpus(seed=1, count=20)
        if i.stratum == "tiny" and i.solvable
    )
    return inst, differential_payload(
        inst.name,
        inst.pla_text,
        stratum=inst.stratum,
        solvable=inst.solvable,
        options=EspressoHFOptions(use_essentials=False),
        inject={"defect": inject_defect},
    )


class TestCraftedDisagreement:
    def test_injected_defect_yields_unexplained_verdict_and_bundle(
        self, tmp_path
    ):
        # corrupt IRREDUNDANT through the pipeline fault seam: the
        # heuristic drops a still-required cube, which must surface as an
        # unexplained verdict with a replayable bundle
        inst, payload = _defective_payload()
        payload["bundle_dir"] = str(tmp_path)
        row = run_differential_payload(payload)
        assert row["verdict"] in UNEXPLAINED_VERDICTS
        assert row["explained"] is False
        assert row["bundle_path"]
        bundle = json.loads(open(row["bundle_path"]).read())
        assert bundle["failure"]["kind"] == "differential_disagreement"
        assert inst.name in bundle["name"]

    def test_unexplained_rows_flow_into_scoreboard_and_exit_gate(self):
        inst, payload = _defective_payload()
        row = run_differential_payload(payload)
        board = build_scoreboard([row])
        assert board["overall"]["unexplained"] == 1
        assert board["unexplained"][0]["name"] == inst.name
        assert "UNEXPLAINED" in format_scoreboard(board)


class TestHeuristicOutcome:
    """The heuristic side takes its status from the outcome table, so a
    differential row and an isolated-runner row classify one exception
    the same way."""

    @staticmethod
    def _tiny():
        return next(
            i for i in generate_corpus(seed=1, count=20) if i.stratum == "tiny"
        )

    def test_mid_run_malformed_instance_is_malformed(self):
        from repro.guard.runner import minimize_payload, pla_payload

        inst = self._tiny()
        inject = {"raise": "malformed"}
        row = run_differential_payload(
            differential_payload(inst.name, inst.pla_text, inject=inject)
        )
        payload = pla_payload(inst.pla_text, name=inst.name)
        payload["inject"] = inject
        assert minimize_payload(payload)["status"] == "malformed"
        assert row["hf_status"] == "malformed"
        assert row["verdict"] == "hf_error"
        assert row["explained"] is False
        assert row["error"].startswith("MalformedInstance: ")

    def test_escaped_budget_is_a_timeout_with_the_hf_budget_verdict(
        self, monkeypatch
    ):
        import sys

        from repro.guard.errors import BudgetExceeded

        def starved(*args, **kwargs):
            raise BudgetExceeded("wall clock", phase="canonicalize")

        monkeypatch.setattr(
            sys.modules["repro.hf.espresso_hf"], "espresso_hf", starved
        )
        inst = self._tiny()
        row = run_differential_payload(
            differential_payload(inst.name, inst.pla_text)
        )
        assert row["hf_status"] == "timeout"
        assert row["verdict"] == "hf_budget"
        assert row["explained"] is True


class TestScoreboard:
    def test_scoreboard_shape_and_rates(self, smoke_rows):
        _, rows, stats = smoke_rows
        board = build_scoreboard(rows, stats.as_dict(), seed=SMOKE_SEED)
        assert board["schema"] == "repro.corpus/scoreboard"
        assert board["seed"] == SMOKE_SEED
        overall = board["overall"]
        assert overall["instances"] == SMOKE_COUNT
        assert overall["unexplained"] == 0
        assert overall["timeout_rate"] == 0.0
        # the corpus contains both-solved instances, so these are defined
        assert overall["exact_match_rate"] is not None
        assert overall["cover_ratio"] is not None and overall["cover_ratio"] >= 1.0
        assert overall["hf_seconds"]["p50"] is not None
        assert overall["exact_seconds"]["p99"] is not None
        # per-stratum blocks add up to the overall instance count
        assert sum(
            b["instances"] for b in board["strata"].values()
        ) == SMOKE_COUNT
        assert board["executor"]["executed"] == SMOKE_COUNT

    def test_scoreboard_is_json_serializable(self, smoke_rows):
        _, rows, stats = smoke_rows
        board = build_scoreboard(rows, stats.as_dict(), seed=SMOKE_SEED)
        text = json.dumps(board, sort_keys=True)
        assert json.loads(text)["overall"]["instances"] == SMOKE_COUNT

    def test_format_scoreboard_renders_all_strata(self, smoke_rows):
        _, rows, stats = smoke_rows
        board = build_scoreboard(rows, stats.as_dict(), seed=SMOKE_SEED)
        text = format_scoreboard(board)
        for name in board["strata"]:
            assert name in text
        assert "TOTAL" in text
        assert "unexplained disagreements: 0" in text

    def test_timeout_rows_count_into_timeout_rate(self):
        rows = [
            {"name": "a", "stratum": "s", "status": "timeout"},
            {
                "name": "b",
                "stratum": "s",
                "status": "ok",
                "verdict": "exact_match",
                "explained": True,
            },
        ]
        board = build_scoreboard(rows)
        assert board["overall"]["timeout_rate"] == 0.5
        assert board["overall"]["executor_failures"] == 1
