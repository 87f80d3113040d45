"""The hazard-derivative transformation ``u(f)`` and its guarantees.

The transform's contract (docs/DETECTION.md): in ``transitions`` mode it
expands every Theorem 2.11 required cube against the OFF cover, so the
result is a hazard-free cover of the *specified* transitions — even for
instances where Espresso-HF must refuse (unsolvable dynamic conflicts
never constrain the required-cube expansion).  In ``complete`` mode it
realizes the complete sum, hazard-free for every function-hazard-free
static transition.  Every property here is judged by the independent
gate-level detector, not by the transform's own bookkeeping.
"""

import pytest

from repro.cubes.cube import Cube, LITERAL_DC
from repro.cubes.cover import Cover
from repro.detect import DetectOptions, detect_cover, detect_netlist
from repro.guard.errors import BudgetExceeded
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition
from repro.proptest.strategies import seeded_instance
from repro.transform import (
    extract_covers,
    transform_instance,
    transform_netlist,
)

EXHAUSTIVE = DetectOptions(mode="exhaustive")


def consensus_instance():
    on = Cover(3, [Cube.from_literals([2, 1, 3]), Cube.from_literals([3, 2, 2])])
    off = Cover(3, [Cube.from_literals([1, 1, 3]), Cube.from_literals([3, 2, 1])])
    t = Transition((1, 0, 1), (1, 1, 1))
    return HazardFreeInstance(on, off, [t], name="consensus")


class TestRaiseAgainstOff:
    """The u(f) raise: ``CoverColumns.raise_to_prime`` over the OFF columns."""

    def test_result_contains_input_and_avoids_off(self):
        inst = consensus_instance()
        for cube in inst.on:
            inbits = inst.off_columns.raise_to_prime(cube.inbits)
            expanded = Cube(inst.n_inputs, inbits)
            assert expanded.contains_input(cube)
            for other in inst.off:
                assert not expanded.intersects_input(other)

    def test_free_function_expands_to_tautology(self):
        cube = Cube.from_literals([2, 2])
        expanded = Cube(2, Cover(2, []).columns().raise_to_prime(cube.inbits))
        assert all(expanded.literal(i) == LITERAL_DC for i in range(2))


class TestTransitionsMode:
    def test_consensus_is_repaired(self):
        inst = consensus_instance()
        result = transform_instance(inst)
        assert result.mode == "transitions"
        report = detect_cover(inst, result.cover, EXHAUSTIVE, name="uf")
        assert report.hazard_free and report.complete
        # The consensus cube ac must have materialized.
        assert any(
            c.literal(0) == 2 and c.literal(1) == LITERAL_DC and c.literal(2) == 2
            for c in result.cover
        )

    def test_netlist_metrics_are_consistent(self):
        result = transform_instance(consensus_instance())
        assert result.num_cubes == len(result.cover.cubes)
        assert result.num_gates == result.netlist.num_gates
        assert result.depth == result.netlist.depth
        d = result.as_dict()
        assert d["mode"] == "transitions" and d["num_cubes"] == result.num_cubes

    def test_corpus_sample_verifies_even_when_unsolvable(self):
        """Seeded instances — including ones Espresso-HF cannot solve —
        all yield detector-verified hazard-free u(f) networks."""
        from repro.hazards import hazard_free_solution_exists

        checked = unsolvable = 0
        seed = 0
        while checked < 12 and seed < 200:
            inst = seeded_instance(seed)
            seed += 1
            if inst is None:
                continue
            checked += 1
            if not hazard_free_solution_exists(inst):
                unsolvable += 1
            result = transform_instance(inst)
            report = detect_cover(inst, result.cover, EXHAUSTIVE, name="uf")
            assert report.hazard_free, f"seed {seed - 1}: {inst.name}"
        assert checked == 12

    def test_benchmark_subset_verifies(self):
        from repro.bm.benchmarks import build_benchmark

        for name in ("dram-ctrl", "pe-send-ifc", "pscsi-ircv"):
            inst = build_benchmark(name)
            result = transform_instance(inst)
            report = detect_cover(
                inst,
                result.cover,
                DetectOptions(max_points=243, seed=2026),
                name=f"{name}-uf",
            )
            assert report.hazard_free, name


class TestCompleteMode:
    def test_complete_sum_repairs_static_hazards(self):
        inst = consensus_instance()
        result = transform_instance(inst, mode="complete")
        assert result.mode == "complete"
        report = detect_cover(inst, result.cover, EXHAUSTIVE, name="uf-complete")
        assert report.hazard_free

    def test_prime_limit_maps_to_budget_exceeded(self):
        inst = consensus_instance()
        with pytest.raises(BudgetExceeded):
            transform_instance(inst, mode="complete", prime_limit=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            transform_instance(consensus_instance(), mode="bogus")


class TestExtractCovers:
    def test_roundtrip_through_netlist(self):
        from repro.detect import Netlist

        inst = consensus_instance()
        netlist = Netlist.from_cover(inst.on, name="x")
        on, off = extract_covers(netlist)
        for v in range(8):
            vec = tuple((v >> i) & 1 for i in range(3))
            want = 1 if inst.on.evaluate(vec) else 0
            assert (1 if on.evaluate(vec) else 0) == want
            assert (1 if off.evaluate(vec) else 0) == 1 - want

    def test_too_many_inputs_rejected(self):
        from repro.detect import Gate, Netlist, NetlistError

        n = 15
        gates = [Gate(f"x{i}", "input") for i in range(n)]
        gates.append(Gate("f", "or", tuple(range(n))))
        netlist = Netlist(n, gates, [n])
        with pytest.raises(NetlistError, match="inputs"):
            extract_covers(netlist)


class TestTransformNetlist:
    def test_multilevel_netlist_is_flattened_hazard_free(self):
        from repro.detect import parse_netlist

        # A product-of-sums netlist with the dual (static-0) hazard:
        # f = (a OR b)(a' OR c) glitches at b = c = 0 while a flips —
        # both sums go X with nothing holding the 0.
        text = (
            ".inputs a b c\n.outputs f\n"
            "g1 = OR a b\ng2 = OR a' c\nf = AND g1 g2\n"
            ".trans 000 100\n"
        )
        netlist, transitions = parse_netlist(text)
        on, off = extract_covers(netlist)
        before = detect_netlist(netlist, on, off, transitions, EXHAUSTIVE)
        assert not before.hazard_free
        result = transform_netlist(netlist, transitions)
        after = detect_netlist(result.netlist, on, off, transitions, EXHAUSTIVE)
        assert after.hazard_free
        # Transition-scoped rewrite: same function on every vertex of the
        # specified transition cube (global equivalence is complete mode's
        # contract, checked below).
        from repro.detect.ternary import point_cube

        t = transitions[0]
        point = tuple(
            None if s != e else s for s, e in zip(t.start, t.end)
        )
        for vec in point_cube(point).minterm_vectors():
            assert result.netlist.evaluate(vec) == netlist.evaluate(vec)

    def test_complete_mode_is_globally_equivalent(self):
        from repro.detect import parse_netlist

        text = (
            ".inputs a b c\n.outputs f\n"
            "g1 = OR a b\ng2 = OR a' c\nf = AND g1 g2\n"
        )
        netlist, _ = parse_netlist(text)
        result = transform_netlist(netlist)
        assert result.mode == "complete"
        for v in range(8):
            vec = tuple((v >> i) & 1 for i in range(3))
            assert result.netlist.evaluate(vec) == netlist.evaluate(vec)
