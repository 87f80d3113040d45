"""Minimization sessions: capture/restore, warm planning, byte-identity.

The contract under test (docs/WARMSTART.md): a run given a session
returns a cover **byte-identical** to the cold run of the same instance.
Identical mode (equal signatures and options) short-circuits to the session cover
only after the Theorem 2.11 verifier re-accepts it; every other instance
runs cold.  A derandomized Hypothesis differential drives seeded chains
of transition-drop edits through both arms.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bm.benchmarks import build_benchmark
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import EspressoHFOptions, espresso_hf
from repro.pla import format_cover
from repro.proptest.metamorphic import subset_transitions_instance
from repro.proptest.strategies import InstanceConfig, solvable_instances
from repro.session import (
    SESSION_VERSION,
    MinimizationSession,
    plan_warm_start,
    signature_of,
)

SMALL = InstanceConfig(
    max_inputs=4, max_outputs=2, max_on_cubes=5, max_transitions=3
)


def cold_with_session(inst):
    result = espresso_hf(inst, capture_session=True)
    assert result.session is not None
    return result


def drop_chain(inst, k, seed=0):
    """Up to ``k`` chained single-transition drops (the edit model)."""
    rng = random.Random(seed)
    chain = [inst]
    cur = inst
    for _ in range(k):
        if len(cur.transitions) <= 1:
            break
        drop = rng.randrange(len(cur.transitions))
        keep = [i for i in range(len(cur.transitions)) if i != drop]
        cur = subset_transitions_instance(cur, keep)
        chain.append(cur)
    return chain


class TestCaptureRestore:
    def test_dict_round_trip(self):
        session = cold_with_session(build_benchmark("dram-ctrl")).session
        back = MinimizationSession.from_dict(session.to_dict())
        assert back.to_dict() == session.to_dict()
        assert back.cover_cubes() == session.cover_cubes()

    def test_file_round_trip(self, tmp_path):
        session = cold_with_session(build_benchmark("dram-ctrl")).session
        path = str(tmp_path / "s.session.json")
        session.save(path)
        assert MinimizationSession.load(path).to_dict() == session.to_dict()

    @pytest.mark.parametrize(
        "payload",
        [None, [], "x", {"n_inputs": "no"}, {"n_inputs": 2}],
    )
    def test_from_dict_rejects_garbage(self, payload):
        with pytest.raises(ValueError):
            MinimizationSession.from_dict(payload)

    def test_capture_only_on_ok(self):
        inst = build_benchmark("dram-ctrl")
        result = espresso_hf(inst)
        assert result.session is None  # not requested


class TestSignatures:
    def test_same_instance_is_identical(self):
        inst = build_benchmark("pscsi-ircv")
        assert signature_of(inst) == signature_of(inst)

    def test_transition_drop_is_not_identical(self):
        inst = build_benchmark("pscsi-tsend")
        chain = drop_chain(inst, 1)
        assert len(chain) == 2
        assert signature_of(chain[0]) != signature_of(chain[1])

    def test_shape_mismatch_is_flagged(self):
        a = build_benchmark("dram-ctrl")
        b = build_benchmark("cache-ctrl")
        assert signature_of(a) != signature_of(b)


class TestPlanner:
    def test_identical_short_circuit(self):
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        plan = plan_warm_start(session, inst)
        assert plan.mode == "identical"
        assert plan.seed is not None
        assert len(plan.seed) == len(session.cover)

    def test_version_skew_goes_cold(self):
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        session.version = SESSION_VERSION + 1
        assert plan_warm_start(session, inst).mode == "cold"

    def test_shape_mismatch_goes_cold(self):
        session = cold_with_session(build_benchmark("dram-ctrl")).session
        other = build_benchmark("cache-ctrl")
        assert plan_warm_start(session, other).mode == "cold"

    def test_tampered_cover_goes_cold(self):
        # Signatures match but the cover no longer verifies: a session
        # claiming identity must never be trusted past Theorem 2.11.
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        session.cover = session.cover[:1]
        plan = plan_warm_start(session, inst)
        assert plan.mode == "cold"
        assert any("failed verification" in r for r in plan.reasons)

    def test_failed_session_status_goes_cold(self):
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        session.status = "budget_exceeded"
        plan = plan_warm_start(session, inst)
        assert plan.mode == "cold"
        assert plan.reasons == ["session status 'budget_exceeded'"]

    def test_tampered_signature_goes_cold(self):
        # Identity is proved by the signature alone: a session whose
        # stored signature no longer matches never short-circuits, even
        # though its cover still verifies on the instance.
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        session.signature = {"outputs": "garbage"}
        plan = plan_warm_start(session, inst)
        assert plan.mode == "cold" and plan.reasons == ["signatures differ"]
        result = espresso_hf(inst, warm_start=session)
        assert result.warm == "cold"
        assert format_cover(result.cover) == format_cover(espresso_hf(inst).cover)

    def test_warm_result_flags_mode(self):
        inst = build_benchmark("pscsi-tsend")
        chain = drop_chain(inst, 1)
        session = cold_with_session(chain[0]).session
        warm = espresso_hf(chain[1], warm_start=session)
        assert warm.warm == "cold"
        assert "warm:cold:signatures differ" in warm.trace
        ident = espresso_hf(chain[0], warm_start=session)
        assert ident.warm == "identical"


class TestOptions:
    """A session short-circuits only under the options it was captured
    under: another option set gets its own cold cover."""

    @pytest.mark.parametrize(
        "name, changed",
        [
            ("cache-ctrl", {"use_essentials": False}),
            ("dram-ctrl", {"make_prime": False}),
            ("sd-control", {"use_last_gasp": False, "exact_irredundant": False}),
        ],
    )
    def test_other_options_run_cold(self, name, changed):
        inst = build_benchmark(name)
        session = cold_with_session(inst).session
        options = EspressoHFOptions(**changed)
        cold = espresso_hf(inst, options)
        warm = espresso_hf(inst, options, warm_start=session)
        assert warm.warm == "cold"
        assert "warm:cold:options differ" in warm.trace
        assert format_cover(warm.cover) == format_cover(cold.cover)

    def test_options_that_do_not_shape_the_cover_still_hit(self):
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        for options in (
            EspressoHFOptions(jobs=4),
            EspressoHFOptions(checked=True),
        ):
            assert espresso_hf(inst, options, warm_start=session).warm == (
                "identical"
            )

    def test_budget_runs_cold(self):
        # A budget that runs out stops the cold run early; the session's
        # converged cover is not that answer, so any budget plans cold.
        inst = build_benchmark("dram-ctrl")
        session = cold_with_session(inst).session
        options = EspressoHFOptions(budget=RunBudget(wall_s=60.0))
        plan = plan_warm_start(session, inst, options)
        assert plan.mode == "cold" and plan.reasons == ["budget set"]
        assert espresso_hf(inst, options, warm_start=session).warm == "cold"

    def test_session_serves_its_own_options_after_json(self):
        inst = build_benchmark("dram-ctrl")
        options = EspressoHFOptions(passes=("essentials", "loop"))
        first = espresso_hf(inst, options, capture_session=True)
        session = MinimizationSession.from_dict(
            json.loads(json.dumps(first.session.to_dict()))
        )
        assert plan_warm_start(session, inst, options).mode == "identical"
        assert plan_warm_start(session, inst).mode == "cold"

    def test_session_without_options_runs_cold(self):
        inst = build_benchmark("dram-ctrl")
        data = cold_with_session(inst).session.to_dict()
        del data["options"]
        session = MinimizationSession.from_dict(data)
        assert session.options is None
        plan = plan_warm_start(session, inst)
        assert plan.mode == "cold" and plan.reasons == ["options differ"]

    def test_cli_session_in_under_other_options(self, tmp_path, capsys):
        from repro.cli import EXIT_OK, main
        from repro.pla import write_pla

        pla = tmp_path / "dram.pla"
        write_pla(build_benchmark("dram-ctrl"), pla)
        saved = str(tmp_path / "s.session.json")
        assert main([str(pla), "--session-out", saved]) == EXIT_OK
        capsys.readouterr()
        assert main([str(pla), "--no-make-prime"]) == EXIT_OK
        cold = capsys.readouterr().out
        args = [str(pla), "--session-in", saved, "--no-make-prime", "--stats"]
        assert main(args) == EXIT_OK
        warm = capsys.readouterr()
        assert "# warm start: cold" in warm.err
        assert warm.out == cold


def assert_chain_matches_cold(chain, options=None):
    """Walk an edit chain, each link given its predecessor's session.

    Every link must return the cold cover byte for byte, be ``identical``
    exactly when its signature equals the session's (``cold`` otherwise),
    and short-circuit as ``identical`` on an unchanged resubmit.
    """
    session = cold_with_session(chain[0]).session
    for edited in chain[1:]:
        cold = espresso_hf(edited, options)
        warm = espresso_hf(
            edited, options, warm_start=session, capture_session=True
        )
        expected = (
            "identical"
            if signature_of(edited) == session.signature
            else "cold"
        )
        assert warm.warm == expected
        assert format_cover(warm.cover) == format_cover(cold.cover)
        assert not verify_hazard_free_cover(edited, warm.cover)
        session = MinimizationSession.from_dict(warm.session.to_dict())
        again = espresso_hf(edited, options, warm_start=session)
        assert again.warm == "identical"
        assert format_cover(again.cover) == format_cover(cold.cover)


class TestEditChainDifferential:
    @pytest.mark.parametrize("name", ["pscsi-tsend", "sd-control"])
    def test_benchmark_edit_chain(self, name):
        assert_chain_matches_cold(drop_chain(build_benchmark(name), 2))

    @settings(derandomize=True, deadline=None)
    @given(
        solvable_instances(SMALL),
        st.integers(1, 3),
        st.integers(0, 2**16),
    )
    def test_seeded_edit_chains(self, inst, k, seed):
        assert_chain_matches_cold(drop_chain(inst, k, seed))

    def test_identical_resubmit_is_byte_identical(self):
        inst = build_benchmark("pscsi-pscsi")
        cold = cold_with_session(inst)
        warm = espresso_hf(inst, warm_start=cold.session)
        assert warm.warm == "identical"
        assert format_cover(warm.cover) == format_cover(cold.cover)


class TestOldLayout:
    def test_session_with_caches_loads_and_short_circuits(self, tmp_path):
        # Session files written before the memo export was dropped still
        # carry a ``caches`` key; it is ignored on load.
        inst = build_benchmark("dram-ctrl")
        cold = cold_with_session(inst)
        data = cold.session.to_dict()
        assert "caches" not in data
        data["caches"] = {
            "n_inputs": inst.n_inputs,
            "n_outputs": inst.n_outputs,
            "supercube": [[1, 1, None]],
            "escape": {"rows": [], "sel": 0},
            "coverage": {"universe": [], "masks": [], "combined": []},
        }
        path = tmp_path / "old.session.json"
        path.write_text(json.dumps(data))
        session = MinimizationSession.load(str(path))
        assert session.version == SESSION_VERSION
        assert "caches" not in session.to_dict()
        warm = espresso_hf(inst, warm_start=session)
        assert warm.warm == "identical"
        assert format_cover(warm.cover) == format_cover(cold.cover)


def _budgeted(max_checkpoints):
    return EspressoHFOptions(budget=RunBudget(max_checkpoints=max_checkpoints))


def _outcome(inst, options, **kwargs):
    """(status, cover text) of a run, or the escaping exception's class."""
    try:
        result = espresso_hf(inst, options, **kwargs)
    except BudgetExceeded:
        return (BudgetExceeded, None)
    return (result.status, format_cover(result.cover))


class TestBudgetedEdit:
    @pytest.mark.parametrize("max_checkpoints", [0, 10, 40, 1000])
    def test_budgeted_edit_matches_budgeted_cold(self, max_checkpoints):
        # With no prior-cover floor, a count-budgeted edit returns exactly
        # what the budgeted cold run returns: its best-verified snapshot,
        # or BudgetExceeded before the canonical cover exists.
        chain = drop_chain(build_benchmark("sd-control"), 1)
        session = cold_with_session(chain[0]).session
        cold = _outcome(chain[1], _budgeted(max_checkpoints))
        warm = _outcome(
            chain[1], _budgeted(max_checkpoints), warm_start=session
        )
        assert warm == cold

    def test_budgeted_identical_resubmit_matches_budgeted_cold(self):
        # The resubmit is the very instance the session came from, but
        # the budget runs out before the cold run converges: the answer
        # is the budgeted cold run's, not the session's converged cover.
        inst = build_benchmark("stetson-p1")
        session = cold_with_session(inst).session
        cold = _outcome(inst, _budgeted(5))
        assert cold[0] == "budget_exceeded"
        assert _outcome(inst, _budgeted(5), warm_start=session) == cold
