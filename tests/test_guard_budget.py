"""Run budgets and graceful degradation (repro.guard.budget + the driver).

The contract under test: once the canonical cover exists, budget
exhaustion NEVER surfaces as an exception or an invalid cover — the driver
returns its best phase-boundary snapshot with
``status="budget_exceeded"``, and that snapshot passes the Theorem 2.11
verifier.  Status is about optimality, never correctness.
"""

import pytest

from repro.bm.benchmarks import build_benchmark
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded, HFError
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import EspressoHFOptions, espresso_hf, espresso_hf_per_output

from tests.test_hazards import figure3_instance


class TestRunBudget:
    def test_unlimited_budget_never_exhausts(self):
        b = RunBudget()
        for _ in range(1000):
            b.checkpoint("x")
            b.charge_iteration()
        assert not b.exhausted

    def test_checkpoint_cap(self):
        b = RunBudget(max_checkpoints=3)
        b.checkpoint()
        b.checkpoint()
        b.checkpoint()
        with pytest.raises(BudgetExceeded, match="checkpoint cap"):
            b.checkpoint("expand")
        assert b.exhausted

    def test_iteration_cap(self):
        b = RunBudget(max_iterations=2)
        b.charge_iteration()
        b.charge_iteration()
        with pytest.raises(BudgetExceeded, match="iteration cap"):
            b.charge_iteration()

    def test_exhausted_budget_keeps_raising(self):
        b = RunBudget(max_checkpoints=1)
        b.checkpoint()
        with pytest.raises(BudgetExceeded):
            b.checkpoint()
        with pytest.raises(BudgetExceeded):
            b.checkpoint()

    def test_wall_clock_deadline(self):
        b = RunBudget(wall_s=0.0)
        with pytest.raises(BudgetExceeded, match="wall-clock"):
            b.checkpoint("reduce")

    def test_would_raise_predicts_the_checkpoints(self):
        """``would_raise(n)`` is True exactly when one of ``n`` checkpoints
        fired now raises, and fires none itself."""
        for cap in (0, 2, 5):
            for n in range(8):
                b = RunBudget(max_checkpoints=cap)
                if cap:
                    b.checkpoint()
                done = b.checkpoints
                predicted = b.would_raise(n)
                assert b.checkpoints == done
                try:
                    for _ in range(n):
                        b.checkpoint()
                    raised = False
                except BudgetExceeded:
                    raised = True
                assert predicted == raised, (cap, n)
        late = RunBudget(wall_s=0.0)
        late.start()
        assert not late.would_raise(0) and late.would_raise(1)
        assert not RunBudget(wall_s=60.0).would_raise(100)
        blown = RunBudget(max_iterations=0)
        with pytest.raises(BudgetExceeded):
            blown.charge_iteration()
        assert blown.would_raise(1)

    def test_reset_restores_capacity(self):
        b = RunBudget(max_checkpoints=1)
        b.checkpoint()
        with pytest.raises(BudgetExceeded):
            b.checkpoint()
        b.reset()
        b.checkpoint()  # capacity restored, no raise
        assert not b.exhausted

    def test_exception_carries_phase_and_taxonomy(self):
        b = RunBudget(max_checkpoints=1)
        b.checkpoint()
        with pytest.raises(BudgetExceeded) as info:
            b.checkpoint("last_gasp")
        assert info.value.phase == "last_gasp"
        assert isinstance(info.value, HFError)
        assert isinstance(info.value, RuntimeError)
        assert info.value.exit_code == 5


class TestGracefulDegradation:
    @pytest.mark.parametrize("circuit", ["dram-ctrl", "stetson-p1"])
    def test_tight_budget_returns_verified_cover(self, circuit):
        # The acceptance scenario: a Figure-8 circuit under a budget too
        # small to finish still yields a hazard-free cover.
        instance = build_benchmark(circuit)
        options = EspressoHFOptions(budget=RunBudget(max_checkpoints=3))
        result = espresso_hf(instance, options)
        assert result.status == "budget_exceeded"
        assert not result.converged
        assert not verify_hazard_free_cover(instance, result.cover)
        assert any(line.startswith("budget-exceeded:") for line in result.trace)

    def test_budget_exhaustion_never_raises_after_canonical(self):
        instance = figure3_instance()
        for cap in range(1, 12):
            options = EspressoHFOptions(budget=RunBudget(max_checkpoints=cap))
            result = espresso_hf(instance, options)  # must not raise
            assert result.status in ("ok", "budget_exceeded")
            assert not verify_hazard_free_cover(instance, result.cover)

    def test_generous_budget_matches_unbudgeted_run(self):
        instance = figure3_instance()
        baseline = espresso_hf(instance)
        budgeted = espresso_hf(
            instance, EspressoHFOptions(budget=RunBudget(wall_s=600.0))
        )
        assert budgeted.status == "ok"
        assert budgeted.num_cubes == baseline.num_cubes

    def test_budget_shared_across_per_output_subruns(self):
        instance = build_benchmark("dram-ctrl")
        options = EspressoHFOptions(budget=RunBudget(max_checkpoints=4))
        result = espresso_hf_per_output(instance, options)
        assert result.status == "budget_exceeded"
        assert not verify_hazard_free_cover(instance, result.cover)


class TestDegradedStatus:
    def test_outer_iteration_cap_reports_degraded(self):
        # max_outer_iterations=0 cannot even run one pass: the loop body
        # never demonstrates convergence, so the run must self-report as
        # degraded instead of posing as a converged minimum.  cache-ctrl is
        # the suite circuit whose cover survives essentials (f nonempty),
        # so the outer loop actually has work to skip.
        instance = build_benchmark("cache-ctrl")
        result = espresso_hf(instance, EspressoHFOptions(max_outer_iterations=0))
        assert result.status == "degraded"
        assert not result.converged
        assert any("max_outer_iterations" in line for line in result.trace)
        assert not verify_hazard_free_cover(instance, result.cover)
        assert ", DEGRADED" in result.summary()

    def test_normal_run_is_ok_and_converged(self):
        result = espresso_hf(figure3_instance())
        assert result.status == "ok"
        assert result.converged
        assert "DEGRADED" not in result.summary()

    def test_report_warns_on_degraded_status(self):
        from repro.report import minimization_report

        instance = build_benchmark("cache-ctrl")
        result = espresso_hf(instance, EspressoHFOptions(max_outer_iterations=0))
        assert result.status == "degraded"
        text = minimization_report(
            instance, result.cover, counters=result.counters, status=result.status
        )
        assert text.startswith("WARNING:")
        assert "may not be locally minimal" in text

    def test_report_warns_on_budget_status(self):
        from repro.report import minimization_report

        instance = figure3_instance()
        text = minimization_report(instance, espresso_hf(instance).cover,
                                   status="budget_exceeded")
        assert "budget exhausted" in text
