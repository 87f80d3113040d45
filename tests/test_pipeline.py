"""The pass-pipeline framework (repro.pipeline) and the declarative specs.

Framework semantics are tested on tiny synthetic states (counters, not
covers) so the fixed-point / hook / budget-degradation behaviour is pinned
independently of the minimizers; the spec-level tests then check that both
drivers' pipelines have the documented shape and that custom ``passes``
selections still produce verified hazard-free covers.
"""

from types import SimpleNamespace

import pytest

from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import EspressoHFOptions, espresso_hf
from repro.hf.espresso_hf import build_hf_pipeline, validate_stages
from repro.espresso.espresso import EspressoOptions, build_espresso_pipeline
from repro.perf import PerfCounters
from repro.pipeline import (
    FixedPoint,
    Group,
    Hook,
    PassManager,
    PipelineState,
    Step,
    default_hooks,
    flatten_pass_names,
)

from tests.test_hazards import figure3_instance


class CountState(PipelineState):
    """Synthetic state: a shrinking counter standing in for a cover."""

    def __init__(self, size=10, floor=0):
        super().__init__()
        self.size = size
        self.floor = floor
        self.log = []

    def measure(self):
        return self.size

    def cover_size(self):
        return self.size

    def snapshot_cubes(self):
        return ["snap"] * self.size

    def on_budget_exceeded(self, exc):
        self.size = len(self.best)


class ShrinkPass:
    name = "shrink"

    def run(self, state):
        state.log.append("shrink")
        if state.size > state.floor:
            state.size -= 1
        return state


class NoopPass:
    name = "noop"

    def run(self, state):
        state.log.append("noop")
        return state


class TestPassManager:
    def test_runs_steps_in_order(self):
        state = CountState()
        PassManager().run((Step(NoopPass()), Step(ShrinkPass())), state)
        assert state.log == ["noop", "shrink"]
        assert state.executed_passes == ["noop", "shrink"]

    def test_per_pass_timing_accumulates(self):
        state = CountState()
        PassManager().run((Step(ShrinkPass()), Step(ShrinkPass())), state)
        assert set(state.phase_seconds) == {"shrink"}
        assert state.phase_seconds["shrink"] >= 0.0

    def test_timing_is_recorded_by_the_manager_not_a_hook(self):
        # an empty hook stack still times every pass and counts it
        state = CountState()
        state.ctx = SimpleNamespace(perf=PerfCounters())
        PassManager(hooks=[]).run(
            (Step(ShrinkPass()), Step(NoopPass()), Step(ShrinkPass())), state
        )
        assert state.executed_passes == ["shrink", "noop", "shrink"]
        assert set(state.phase_seconds) == {"shrink", "noop"}
        assert state.ctx.perf.passes_executed == 3

    def test_every_stock_hook_subclasses_hook(self):
        for hook in default_hooks():
            assert isinstance(hook, Hook), type(hook).__name__

    def test_trace_lines_record_cover_size(self):
        state = CountState(size=5)
        PassManager().run((Step(ShrinkPass()),), state)
        assert state.trace == ["shrink:|F|=4"]

    def test_record_false_suppresses_trace(self):
        state = CountState()
        PassManager().run((Step(NoopPass(), record=False),), state)
        assert state.trace == []

    def test_enabled_gate_skips_step(self):
        state = CountState()
        PassManager().run(
            (Step(ShrinkPass(), enabled=lambda s: False),), state
        )
        assert state.log == []
        assert "shrink" not in state.phase_seconds

    def test_group_gate_skips_body(self):
        state = CountState()
        PassManager().run(
            (Group("g", (Step(ShrinkPass()),), enabled=lambda s: False),),
            state,
        )
        assert state.log == []

    def test_stop_halts_pipeline(self):
        class StopPass:
            name = "stopper"

            def run(self, state):
                state.stop = True
                return state

        state = CountState()
        PassManager().run((Step(StopPass()), Step(ShrinkPass())), state)
        assert state.log == []

    def test_pass_returning_new_state_rejected(self):
        class RoguePass:
            name = "rogue"

            def run(self, state):
                return CountState()

        with pytest.raises(TypeError, match="rogue"):
            PassManager().run((Step(RoguePass()),), CountState())


class TestFixedPoint:
    def test_runs_until_measure_stops_shrinking(self):
        state = CountState(size=5, floor=2)
        PassManager().run(
            (FixedPoint("fp", (Step(ShrinkPass()),)),), state
        )
        # 5->4->3->2, then one non-shrinking round demonstrates the fixpoint.
        assert state.size == 2
        assert state.log.count("shrink") == 4
        assert state.converged is True

    def test_charge_counts_iterations(self):
        state = CountState(size=3, floor=0)
        PassManager().run(
            (FixedPoint("fp", (Step(ShrinkPass()),), charge=True),), state
        )
        assert state.iterations == state.log.count("shrink")

    def test_max_rounds_caps_repetition(self):
        state = CountState(size=100, floor=0)
        PassManager().run(
            (FixedPoint("fp", (Step(ShrinkPass()),), max_rounds=3),), state
        )
        assert state.log.count("shrink") == 3

    def test_exhaustion_degrades_status(self):
        state = CountState(size=100, floor=0)
        PassManager().run(
            (
                FixedPoint(
                    "fp",
                    (Step(ShrinkPass()),),
                    max_rounds=2,
                    track_convergence=True,
                    exhausted_message="fp never converged",
                ),
            ),
            state,
        )
        assert state.status == "degraded"
        assert state.converged is False
        assert "fp never converged" in state.trace

    def test_zero_rounds_without_tracking_is_ok(self):
        state = CountState(size=5)
        PassManager().run(
            (FixedPoint("fp", (Step(ShrinkPass()),), max_rounds=0),), state
        )
        assert state.status == "ok"
        assert state.log == []


class TestBudgetDegradation:
    class BudgetCtx:
        def __init__(self, budget):
            self.budget = budget

    def test_charged_rounds_hit_iteration_cap(self):
        state = CountState(size=100, floor=0)
        state.ctx = self.BudgetCtx(RunBudget(max_iterations=2))
        PassManager().run(
            (FixedPoint("loop", (Step(ShrinkPass()),), charge=True),), state
        )
        assert state.status == "budget_exceeded"
        assert len(state.best) == state.size
        assert any(l.startswith("budget-exceeded:") for l in state.trace)

    def test_exhaustion_without_snapshot_reraises(self):
        class Raiser:
            name = "raiser"

            def run(self, state):
                raise BudgetExceeded("cap", "raiser")

        state = CountState()
        state.best = None

        # snapshot_cubes would arm ``best`` after a pass, but the first pass
        # raises before any hook runs — the manager must re-raise.
        with pytest.raises(BudgetExceeded):
            PassManager().run((Step(Raiser()),), state)


class TestPipelineSpecs:
    def test_default_hf_spec_shape(self):
        names = flatten_pass_names(build_hf_pipeline(EspressoHFOptions()))
        assert names == [
            "canonicalize",
            "essentials",
            "expand",
            "irredundant",
            "[[reduce+expand+irredundant]*+last_gasp]*",
            "merge_essentials",
            "make_prime",
            "final_irredundant",
        ]

    def test_no_make_prime_spec_drops_final_passes(self):
        names = flatten_pass_names(
            build_hf_pipeline(EspressoHFOptions(make_prime=False))
        )
        assert "make_prime" not in "".join(names)
        assert "final_irredundant" not in names

    def test_espresso_spec_shape(self):
        names = flatten_pass_names(build_espresso_pipeline(EspressoOptions()))
        assert names == [
            "scc",
            "expand",
            "scc",
            "irredundant",
            "essentials",
            "[[reduce+expand+scc+irredundant]*+last_gasp]*",
            "finalize",
        ]

    def test_validate_stages_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            validate_stages(("essentials", "frobnicate"))

    def test_validate_stages_rejects_duplicates(self):
        with pytest.raises(ValueError, match="at most once"):
            validate_stages(("loop", "loop"))

    def test_validate_stages_requires_make_prime_last(self):
        with pytest.raises(ValueError, match="must be last"):
            validate_stages(("make_prime", "loop"))

    @pytest.mark.parametrize(
        "passes",
        [
            ("essentials", "loop", "make_prime"),
            ("loop", "make_prime"),
            ("essentials", "loop"),
            ("loop",),
            ("essentials", "last_gasp", "make_prime"),
        ],
    )
    def test_custom_stage_selections_stay_hazard_free(self, passes):
        instance = figure3_instance()
        result = espresso_hf(instance, EspressoHFOptions(passes=passes))
        assert verify_hazard_free_cover(instance, result.cover) == []

    def test_default_passes_match_explicit_default(self):
        instance = figure3_instance()
        implicit = espresso_hf(instance)
        explicit = espresso_hf(
            instance,
            EspressoHFOptions(passes=("essentials", "loop", "make_prime")),
        )
        assert [(c.inbits, c.outbits) for c in implicit.cover] == [
            (c.inbits, c.outbits) for c in explicit.cover
        ]

    def test_executed_passes_counter_on_result(self):
        result = espresso_hf(figure3_instance())
        assert result.counters.passes_executed >= 4
