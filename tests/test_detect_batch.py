"""Differential: the bit-parallel detector against the per-point reference.

:func:`repro.detect.detect_netlist` encodes each ternary point as one
input mask, judges function stability on integer rows and evaluates the
netlist with one dual-rail sweep per batch of up to 64 points.
``tests/detect_ref.py`` keeps the loop this replaced: one point at a time,
``stable_value`` over ``Cube`` covers and a Kleene sweep per point.  The
three layers are checked separately — the sweep against
``eval_gates_ternary``, the row stability against ``stable_value`` — and
then whole reports, counters included, against the reference.
"""

import copy
import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from repro.cubes import Cover, Cube
from repro.cubes.cube import LITERAL_DC, LITERAL_ONE, LITERAL_ZERO
from repro.detect import (
    DetectOptions,
    Gate,
    Netlist,
    STATUS_CLEAN,
    STATUS_HAZARD,
    STATUS_SKIPPED,
    detect_netlist,
)
from repro.detect.mutate import NETLIST_DEFECTS
from repro.detect.ternary import stable_rows, stable_value
from repro.guard.budget import RunBudget
from repro.hazards.transitions import Transition
from repro.hf import espresso_hf
from repro.obs.metrics import MetricsRegistry
from repro.pla import read_pla
from repro.proptest.strategies import seeded_instance

from tests import detect_ref as ref

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "data" / "benchmarks"
SMALL_BENCHMARKS = [
    BENCHMARK_DIR / f"{name}.pla"
    for name in ("dram-ctrl", "pe-send-ifc", "pscsi-ircv", "sscsi-trcv-bm", "stetson-p3")
]


def random_netlist(rng: random.Random, n_inputs: int, n_gates: int) -> Netlist:
    """A multi-level netlist over every operator, several outputs."""
    gates = [Gate(f"x{i}", "input") for i in range(n_inputs)]
    for k in range(n_gates):
        op = rng.choice(["and", "or", "not", "and", "or", "const0", "const1"])
        if op.startswith("const"):
            fanin = ()
        else:
            arity = 1 if op == "not" else rng.randint(1, 4)
            fanin = tuple(rng.randrange(len(gates)) for _ in range(arity))
        gates.append(Gate(f"g{k}", op, fanin))
    outputs = [rng.randrange(len(gates)) for _ in range(rng.randint(1, 3))]
    return Netlist(n_inputs, gates, outputs, name="rand")


def random_point(rng: random.Random, n: int):
    return tuple(rng.choice((0, 1, None)) for _ in range(n))


def point_masks(point):
    """``(d, lift)`` of :func:`stable_rows` for a ternary point."""
    d = lift = 0
    for i, v in enumerate(point):
        if v is None:
            d |= LITERAL_DC << (2 * i)
        else:
            d |= (LITERAL_ONE if v else LITERAL_ZERO) << (2 * i)
            lift |= LITERAL_DC << (2 * i)
    return d, lift


def random_spec(rng: random.Random, n: int, n_outputs: int = 1, overlap: float = 0.0):
    """ON cubes at random; OFF every minterm outside ON, minus a few
    don't-cares, plus a share ``overlap`` of the ON minterms."""
    on = Cover(n, n_outputs=n_outputs)
    for _ in range(rng.randint(1, 6)):
        lits = [rng.choice((1, 2, 3, 3)) for _ in range(n)]
        on.append(Cube.from_literals(lits, rng.randint(1, 2 ** n_outputs - 1), n_outputs))
    off = Cover(n, n_outputs=n_outputs)
    for vec in itertools.product((0, 1), repeat=n):
        outbits = 0
        for j in range(n_outputs):
            if on.evaluate(vec, j):
                if overlap and rng.random() < overlap:
                    outbits |= 1 << j
            elif rng.random() < 0.9:
                outbits |= 1 << j
        if outbits:
            off.append(Cube.minterm(vec, outbits, n_outputs))
    return on, off


def random_transitions(rng: random.Random, n: int, count: int, k_max: int):
    out = []
    for _ in range(count):
        start = tuple(rng.randint(0, 1) for _ in range(n))
        flip = set(rng.sample(range(n), rng.randint(1, min(k_max, n))))
        out.append(Transition(start, tuple(1 - v if i in flip else v for i, v in enumerate(start))))
    return out


def assert_sweep_matches_kleene(netlist: Netlist, rng: random.Random, batches: int = 3):
    n = netlist.n_inputs
    for _ in range(batches):
        points = [random_point(rng, n) for _ in range(rng.randint(1, 64))]
        can1 = [0] * n
        can0 = [0] * n
        for b, point in enumerate(points):
            for i, v in enumerate(point):
                if v is None or v == 1:
                    can1[i] |= 1 << b
                if v is None or v == 0:
                    can0[i] |= 1 << b
        for j, o in enumerate(netlist.outputs):
            one, zero = netlist.eval_dual_rail(j, can1, can0, len(points))
            for b, point in enumerate(points):
                got = (one >> b) & 1, (zero >> b) & 1
                want = {1: (1, 0), 0: (0, 1), None: (1, 1)}[
                    netlist.eval_gates_ternary(point)[o]
                ]
                assert got == want, (netlist.name, j, point)


def _small_netlists():
    for path in SMALL_BENCHMARKS:
        instance = read_pla(str(path)).to_instance()
        yield Netlist.from_cover(espresso_hf(instance).cover, name=path.stem)


class TestDualRailSweep:
    def test_random_netlists(self):
        rng = random.Random(16)
        for _ in range(150):
            netlist = random_netlist(rng, rng.randint(1, 6), rng.randint(1, 12))
            assert_sweep_matches_kleene(netlist, rng)

    def test_every_defect_mutant(self):
        rng = random.Random(17)
        mutants = 0
        for netlist in _small_netlists():
            for defect in NETLIST_DEFECTS.values():
                for seed in (0, 1, 2):
                    mutated = defect.mutate(netlist, seed)
                    if mutated is not None:
                        mutants += 1
                        assert_sweep_matches_kleene(mutated, rng, batches=2)
        assert mutants >= 30

    def test_cone_is_cached_per_output(self):
        netlist = random_netlist(random.Random(3), 4, 8)
        netlist.eval_dual_rail(0, [1] * 4, [0] * 4, 1)
        cone = netlist._cones[0]
        netlist.eval_dual_rail(0, [0] * 4, [1] * 4, 1)
        assert netlist._cones[0] is cone


class TestRowStability:
    def test_random_specs(self):
        """Some specs let OFF overlap ON: there ON must still win."""
        rng = random.Random(5)
        for i in range(60):
            n = rng.randint(1, 6)
            on, off = random_spec(rng, n, n_outputs=2, overlap=0.3 * (i % 2))
            on_split = on.split_outputs()
            off_split = off.split_outputs()
            for _ in range(20):
                point = random_point(rng, n)
                d, lift = point_masks(point)
                for j in range(2):
                    got = stable_rows(
                        [c.inbits for c in on_split[j]],
                        [c.inbits for c in off_split[j]],
                        d,
                        lift,
                        n,
                    )
                    assert got == stable_value(point, on, off, j), (point, j)

    def test_benchmark_specs(self):
        rng = random.Random(6)
        for path in SMALL_BENCHMARKS:
            instance = read_pla(str(path)).to_instance()
            n = instance.n_inputs
            for j in range(instance.n_outputs):
                on_rows = [c.inbits for c in instance.on_for_output(j)]
                off_rows = [c.inbits for c in instance.off_for_output(j)]
                for _ in range(25):
                    point = random_point(rng, n)
                    assert stable_rows(on_rows, off_rows, *point_masks(point), n) == (
                        stable_value(point, instance.on, instance.off, j)
                    )


def _with_registry(options: DetectOptions) -> DetectOptions:
    """A fresh copy: its own registry and an unspent budget."""
    return dataclasses.replace(
        options, budget=copy.deepcopy(options.budget), registry=MetricsRegistry()
    )


def assert_same_report(netlist, on, off, transitions, options):
    fast_opts, ref_opts = _with_registry(options), _with_registry(options)
    fast = detect_netlist(netlist, on, off, transitions, fast_opts)
    want = ref.detect_netlist(netlist, on, off, transitions, ref_opts)
    assert fast.as_dict() == want.as_dict()
    assert fast_opts.registry.snapshot() == ref_opts.registry.snapshot()
    if options.budget is not None:
        assert fast_opts.budget.checkpoints == ref_opts.budget.checkpoints
        assert fast_opts.budget.iterations == ref_opts.budget.iterations
    return fast


MODES = (
    DetectOptions(mode="exhaustive"),
    DetectOptions(max_points=12, seed=4),
    DetectOptions(max_points=40, seed=9, algebra=True),
)


class TestReportsMatchReference:
    def test_benchmark_covers_and_mutants(self):
        for path in SMALL_BENCHMARKS:
            instance = read_pla(str(path)).to_instance()
            args = (instance.on, instance.off, instance.transitions)
            netlist = Netlist.from_cover(espresso_hf(instance).cover, name=path.stem)
            for options in MODES:
                assert_same_report(netlist, *args, options)
                for defect in NETLIST_DEFECTS.values():
                    mutated = defect.mutate(netlist, 0)
                    if mutated is not None:
                        assert_same_report(mutated, *args, options)

    def test_seeded_corpus_on_covers(self):
        statuses = set()
        for seed in range(12):
            instance = seeded_instance(seed)
            if instance is None:
                continue
            netlist = Netlist.from_cover(instance.on, name=instance.name)
            for options in MODES:
                report = assert_same_report(
                    netlist, instance.on, instance.off, instance.transitions, options
                )
                statuses.update(v.status for v in report.verdicts)
        assert {STATUS_CLEAN, STATUS_HAZARD} <= statuses

    def test_wide_transitions_cross_batches(self):
        """Transitions of up to 3^6 points: several 64-point batches,
        partial last batches, and sampled walks that stop mid-batch."""
        rng = random.Random(11)
        statuses = set()
        for _ in range(12):
            n = rng.randint(5, 7)
            on, off = random_spec(rng, n, n_outputs=2)
            transitions = random_transitions(rng, n, 6, 6)
            netlist = Netlist.from_cover(on, name="wide")
            mutated = NETLIST_DEFECTS["widened_cube"].mutate(netlist, 1) or netlist
            for nl in (netlist, mutated):
                for options in MODES + (DetectOptions(max_points=100, seed=2),):
                    report = assert_same_report(nl, on, off, transitions, options)
                    statuses.update(v.status for v in report.verdicts)
        assert {STATUS_CLEAN, STATUS_HAZARD} <= statuses

    @pytest.mark.parametrize(
        "budget",
        [RunBudget(max_checkpoints=0), RunBudget(max_checkpoints=2), RunBudget(max_iterations=7)],
        ids=["checkpoints0", "checkpoints2", "iterations7"],
    )
    def test_count_budget_forces_skipped(self, budget):
        rng = random.Random(12)
        on, off = random_spec(rng, 7)
        transitions = random_transitions(rng, 7, 10, 6)
        netlist = Netlist.from_cover(on, name="budget")
        for mode in ("exhaustive", "sampled"):
            options = DetectOptions(mode=mode, max_points=300, budget=budget)
            report = assert_same_report(netlist, on, off, transitions, options)
            assert report.budget_exhausted
            assert report.verdicts[-1].status == STATUS_SKIPPED

    def test_checkpoints_fire_at_the_same_points(self):
        """Every 64th point, also when a walk ends on a batch boundary
        (128 sampled points) and when the point after it would fail."""
        rng = random.Random(13)
        on, off = random_spec(rng, 7)
        transitions = random_transitions(rng, 7, 10, 6)
        netlist = Netlist.from_cover(on, name="budget")
        for max_points in (64, 128, 300):
            options = DetectOptions(max_points=max_points, budget=RunBudget(max_checkpoints=1000))
            assert_same_report(netlist, on, off, transitions, options)


def test_sampled_rng_continues_after_hazard_break():
    """A hazard stops a sampled walk early; the next transition must draw
    from the rng exactly where the per-point loop left it, although the
    batch drew points past the break.  ``f = x0·x1 + x0'·x2`` over six
    inputs, its plain realization, and seven transitions that drop x0 and
    x1 and flip x3..x5: 3^5 points each, 20 sampled."""

    def f(v):
        return (v[0] and v[1]) or (not v[0] and v[2])

    on = Cover(6, [Cube.from_string("11----"), Cube.from_string("0-1---")])
    off = Cover(6, [Cube.minterm(v) for v in itertools.product((0, 1), repeat=6) if not f(v)])
    netlist = Netlist.from_cover(on, name="mux")
    transitions = []
    for x2, x3, x4, x5 in [
        (1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0),
        (1, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1),
    ]:
        transitions.append(
            Transition((1, 1, x2, x3, x4, x5), (0, 0, x2, 1 - x3, 1 - x4, 1 - x5))
        )
    options = DetectOptions(max_points=20, seed=3)
    got = detect_netlist(netlist, on, off, transitions, options).as_dict()
    want = ref.detect_netlist(netlist, on, off, transitions, options).as_dict()
    assert got["verdicts"] == want["verdicts"]
    assert [v["status"] for v in want["verdicts"]] == [
        "hazard", "hazard", "clean", "clean", "hazard", "clean", "hazard",
    ]
