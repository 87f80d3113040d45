"""One clock per pass: ``phase_seconds`` is the pipeline's only timer.

The :class:`~repro.pipeline.manager.PassManager` times each pass with one
``perf_counter`` pair and adds the seconds to ``state.phase_seconds``;
the operators carry no timers of their own.  Passes run one after
another, so their times are disjoint slices of the run.  This module pins
that partition law on every benchmark circuit::

    sum(result.phase_seconds.values()) <= result.runtime_s

It also holds fixtures for two operator branches that the benchmark
suite never reaches: LAST_GASP's candidate branch, with its inner
IRREDUNDANT, and a MINCOV branch-and-bound search (``mincov_nodes``).
Both use the classic cyclic 3-variable function
``f = sum m(0, 1, 2, 5, 6, 7)``: each ON minterm is covered by exactly
two of its six primes, which form a ring, so no prime is forced.
"""

import pytest

import repro.hf.lastgasp as lastgasp_module
from repro.bm.benchmarks import BENCHMARKS, build_benchmark
from repro.cubes.cover import Cover
from repro.cubes.cube import Cube
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import espresso_hf
from repro.hf.context import HFContext
from repro.hf.irredundant import irredundant_cover
from repro.hf.lastgasp import last_gasp
from repro.perf import PerfCounters

#: the ON minterms of the cyclic function, in ring order
RING = ["000", "001", "101", "111", "110", "010"]
#: its six primes; prime i covers minterms i and i + 1 of the ring
RING_PRIMES = ["00-", "-01", "1-1", "11-", "-10", "0-0"]


def cyclic_instance():
    """The cyclic function with one static transition per ON minterm.

    Each static transition makes its minterm a required cube, so the
    covering table of the six primes is the ring: every row has exactly
    two columns and no column is forced.
    """
    on = Cover.from_strings(RING)
    off = Cover.from_strings(["011", "100"])
    points = [tuple(int(ch) for ch in m) for m in RING]
    transitions = [Transition(p, p) for p in points]
    return HazardFreeInstance(on, off, transitions, name="cyclic")


class TestPartitionOnBenchmarks:
    @pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
    def test_pass_times_bounded_by_runtime(self, name):
        result = espresso_hf(build_benchmark(name))
        phases = result.phase_seconds
        assert phases, name
        assert all(seconds >= 0.0 for seconds in phases.values()), name
        # pass times are disjoint slices of the run's wall time
        assert sum(phases.values()) <= result.runtime_s + 1e-9, name
        assert result.counters.passes_executed >= len(phases), name


class TestCountersOnly:
    def test_snapshots_with_timing_dicts_still_load(self):
        # a counters row written when PerfCounters still held per-operator
        # time dicts: the counters load, the unknown timing keys are dropped
        row = {
            "supercube_calls": 9438,
            "supercube_hit_rate": 0.6084,
            "escape_swar_filtered": 0,
            "mincov_rows": 601,
            "op_seconds": {"essentials": 0.048666, "expand": 0.016016},
        }
        counters = PerfCounters.from_dict(row)
        assert counters.supercube_calls == 9438
        assert counters.mincov_rows == 601
        snapshot = counters.as_dict()
        assert "op_seconds" not in snapshot
        assert "escape_swar_filtered" not in snapshot
        assert all(isinstance(v, (int, float)) for v in snapshot.values())

    def test_merge_sums_counters_and_keeps_the_memo_peak(self):
        a = PerfCounters(supercube_calls=2, essentials_memo_peak=7)
        b = PerfCounters(
            supercube_calls=3, mincov_nodes=1, essentials_memo_peak=5
        )
        a.merge(b)
        assert a.supercube_calls == 5
        assert a.mincov_nodes == 1
        assert a.essentials_memo_peak == 7

    def test_dict_round_trip(self):
        perf = PerfCounters(expand_probes=4, passes_executed=9)
        assert PerfCounters.from_dict(perf.as_dict()) == perf


class TestLastGaspCandidateBranch:
    def test_candidates_reach_inner_irredundant(self, monkeypatch):
        inst = cyclic_instance()
        ctx = HFContext(inst)
        reqs = ctx.canonical_required()
        # the minterm cover: each cube is the only one covering its
        # required cube, and adjacent pairs merge into defined supercubes
        cubes = [Cube.from_string(m) for m in RING]
        calls = []

        def spy(pool, *args, **kwargs):
            calls.append(len(pool))
            return irredundant_cover(pool, *args, **kwargs)

        monkeypatch.setattr(lastgasp_module, "irredundant_cover", spy)
        out = last_gasp(cubes, reqs, ctx)
        # the pool is the six minterms plus the six ring primes
        assert calls == [12]
        assert len(out) <= len(cubes)
        assert sorted(c.input_string() for c in out) == ["-10", "00-", "1-1"]
        assert verify_hazard_free_cover(inst, Cover(3, out)) == []


class TestMincovNodes:
    def test_cyclic_table_needs_branch_and_bound(self):
        inst = cyclic_instance()
        ctx = HFContext(inst)
        reqs = ctx.canonical_required()
        primes = [Cube.from_string(p) for p in RING_PRIMES]
        out = irredundant_cover(primes, reqs, ctx)
        # no forced column: the fast path cannot settle it, MINCOV must
        assert ctx.perf.mincov_problems == 1
        assert ctx.perf.mincov_nodes > 0
        assert len(out) == 3
        assert verify_hazard_free_cover(inst, Cover(3, out)) == []
