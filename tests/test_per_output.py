"""Per-output execution: result merging, shared budgets, parallel workers.

``espresso_hf_per_output`` runs one sub-run per output and merges the
results; with ``jobs > 1`` the sub-runs execute on a worker-process pool
(:func:`repro.guard.runner.run_pool`).  The contract under test: the
parallel sweep is *merge-identical* to the serial one, statuses merge
worst-of, and a shared budget in serial mode degrades the whole sweep
gracefully mid-flight.  A Theorem 4.1 failure in one output raises the
same :class:`NoSolutionError` in both modes, in the instance's own name
and output index.
"""

import pytest

from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.cubes.cover import Cover
from repro.cubes.cube import Cube
from repro.guard.budget import RunBudget
from repro.guard.errors import NoSolutionError
from repro.hazards import HazardFreeInstance, Transition
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import EspressoHFOptions, espresso_hf, espresso_hf_per_output
from repro.hf.espresso_hf import merge_output_results
from repro.hf.result import HFResult
from repro.perf import PerfCounters

from tests.test_hazards import figure3_instance


def _sub_result(status="ok", cubes=((0b11, 1),), iterations=1):
    cover = Cover(2, (), 1)
    for inbits, outbits in cubes:
        cover.append(Cube(2, inbits, outbits, 1))
    return HFResult(
        cover=cover,
        essentials=[],
        num_required=2,
        num_canonical_required=2,
        iterations=iterations,
        runtime_s=0.0,
        phase_seconds={"expand": 0.25},
        counters=PerfCounters(expand_probes=3),
        status=status,
        trace=["expand:|F|=1"],
    )


def _two_output_instance():
    return build_benchmark("dram-ctrl")


class TestMergeOutputResults:
    def _instance_stub(self):
        class Stub:
            n_inputs = 2
            n_outputs = 2

        return Stub()

    def test_worst_of_status_merging(self):
        instance = self._instance_stub()
        for statuses, expected in [
            (("ok", "ok"), "ok"),
            (("ok", "degraded"), "degraded"),
            (("degraded", "ok"), "degraded"),
            (("ok", "budget_exceeded"), "budget_exceeded"),
            (("budget_exceeded", "degraded"), "budget_exceeded"),
        ]:
            merged = merge_output_results(
                instance, [_sub_result(status=s) for s in statuses]
            )
            assert merged.status == expected, statuses

    def test_cubes_with_equal_inputs_merge_outputs(self):
        instance = self._instance_stub()
        merged = merge_output_results(
            instance,
            [
                _sub_result(cubes=((0b11, 1),)),
                _sub_result(cubes=((0b11, 1), (0b01, 1))),
            ],
        )
        got = {(c.inbits, c.outbits) for c in merged.cover}
        assert got == {(0b11, 0b11), (0b01, 0b10)}

    def test_metrics_sum_and_trace_prefixes(self):
        instance = self._instance_stub()
        merged = merge_output_results(
            instance, [_sub_result(iterations=2), _sub_result(iterations=3)]
        )
        assert merged.iterations == 5
        assert merged.num_required == 4
        assert merged.phase_seconds["expand"] == pytest.approx(0.5)
        assert merged.counters.expand_probes == 6
        assert merged.trace == ["out0/expand:|F|=1", "out1/expand:|F|=1"]


class TestSharedBudgetSerial:
    def test_shared_budget_exhausts_mid_sweep(self):
        # One stateful budget spans the whole serial sweep: dram-ctrl needs
        # ~48 checkpoints for all ten outputs, so a cap of 40 lets the
        # early outputs finish clean and blows partway through the sweep.
        # The merged sweep must degrade, not raise, and still verify.
        instance = _two_output_instance()
        options = EspressoHFOptions(budget=RunBudget(max_checkpoints=40))
        result = espresso_hf_per_output(instance, options)
        assert result.status == "budget_exceeded"
        exhausted = [
            line for line in result.trace if "budget-exceeded:" in line
        ]
        assert exhausted, "no sub-run recorded the exhaustion"
        # The exhaustion hit a *later* output: at least one earlier sub-run
        # ran to completion before the shared cap was consumed.
        first_exhausted = min(
            int(line.split("/", 1)[0][len("out"):]) for line in exhausted
        )
        assert first_exhausted > 0
        assert not verify_hazard_free_cover(instance, result.cover)

    def test_degraded_subrun_degrades_merged_status(self):
        instance = build_benchmark("cache-ctrl")
        result = espresso_hf_per_output(
            instance, EspressoHFOptions(max_outer_iterations=0)
        )
        assert result.status == "degraded"
        assert any("max_outer_iterations" in line for line in result.trace)
        assert not verify_hazard_free_cover(instance, result.cover)


class TestParallelExecution:
    def test_parallel_matches_serial_on_multi_output(self):
        instance = build_benchmark("stetson-p3")
        serial = espresso_hf_per_output(instance)
        parallel = espresso_hf_per_output(instance, EspressoHFOptions(jobs=2))
        assert [(c.inbits, c.outbits) for c in parallel.cover] == [
            (c.inbits, c.outbits) for c in serial.cover
        ]
        assert parallel.status == serial.status

    def test_single_output_instance_skips_pool(self):
        # n_outputs == 1 has nothing to parallelize; jobs > 1 must take the
        # serial path and behave identically.
        instance = figure3_instance()
        assert instance.n_outputs == 1
        serial = espresso_hf_per_output(instance)
        parallel = espresso_hf_per_output(instance, EspressoHFOptions(jobs=8))
        assert parallel.num_cubes == serial.num_cubes
        assert parallel.status == serial.status

    @pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
    def test_parallel_matches_serial_on_suite(self, name):
        # The acceptance criterion: per-output covers are identical cube
        # for cube in serial and parallel mode on every suite circuit.
        instance = build_benchmark(name)
        serial = espresso_hf_per_output(instance)
        parallel = espresso_hf_per_output(instance, EspressoHFOptions(jobs=4))
        assert [(c.inbits, c.outbits) for c in parallel.cover] == [
            (c.inbits, c.outbits) for c in serial.cover
        ]
        assert parallel.status == serial.status
        assert parallel.num_canonical_required == serial.num_canonical_required
        assert parallel.iterations == serial.iterations
        assert sorted(e.outbits for e in parallel.essentials) == sorted(
            e.outbits for e in serial.essentials
        )


def _unsolvable_second_output():
    """Output 0 is ``a`` (solvable); output 1 is the Theorem 4.1 gadget of
    ``tests.test_hazards.unsolvable_instance``."""
    on = Cover.from_strings(["1-- 10", "11- 01", "-10 01"])
    off = Cover.from_strings(["0-- 10", "10- 01", "011 01"])
    transitions = [
        Transition((1, 1, 1), (1, 0, 0)),
        Transition((0, 1, 0), (1, 1, 0)),
    ]
    return HazardFreeInstance(on, off, transitions, name="second-fails")


class TestNoSolution:
    """A failing output is reported in the whole instance's terms."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_names_the_instance_and_its_output(self, jobs):
        instance = _unsolvable_second_output()
        with pytest.raises(NoSolutionError) as multi:
            espresso_hf(instance)
        with pytest.raises(NoSolutionError) as per_output:
            espresso_hf_per_output(instance, EspressoHFOptions(jobs=jobs))
        assert str(per_output.value) == str(multi.value) == (
            "second-fails: no hazard-free cover exists (Theorem 4.1); "
            "offending required cubes: -10 (output 1)"
        )
        assert per_output.value.failures == multi.value.failures
        assert per_output.value.failures[0].output == 1
