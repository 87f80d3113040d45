"""Differential: the bit-parallel detector against the per-point reference.

:func:`repro.detect.detect_netlist` judges an exhaustive transition of
up to ``LATTICE_TRITS`` changing inputs for every output at once: a
lattice of stable values over all ``3^k`` points and one dual-rail sweep
of the whole netlist.  Every other transition is walked per output: one
dual-rail sweep of the output's cone per batch of up to 64 points, and
function stability on integer rows point by point.
``tests/detect_ref.py`` keeps the loop both replaced: one point and one
output at a time, ``stable_value`` over ``Cube`` covers and a Kleene
sweep per point.  The layers are checked separately — the sweeps against
``eval_gates_ternary``, the row stability and the lattice against
``stable_value`` — and then whole reports, counters included, against
the reference.
"""

import copy
import dataclasses
import itertools
import random
import time
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
    STATUS_MISMATCH,
    STATUS_SKIPPED,
    STATUS_UNCONSTRAINED,
    detect_netlist,
)
from repro.detect import detector
from repro.detect.detector import CHECK_EVERY, _point, _stable_lattice, _TransitionRows
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
        assert netlist.eval_dual_rail_all(can1, can0, len(points)) == [
            netlist.eval_dual_rail(j, can1, can0, len(points))
            for j in range(netlist.n_outputs)
        ]


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

    def test_support_comes_from_the_cached_walk(self):
        rng = random.Random(4)
        for _ in range(40):
            netlist = random_netlist(rng, rng.randint(1, 6), rng.randint(1, 12))
            for j, root in enumerate(netlist.outputs):
                seen, stack = set(), [root]
                while stack:
                    i = stack.pop()
                    if i not in seen:
                        seen.add(i)
                        stack.extend(netlist.gates[i].fanin)
                want = {i for i in seen if netlist.gates[i].op == "input"}
                assert netlist.support(j) == want
                assert netlist.support(j) is netlist._cones[j][0]


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


def _rows(cover):
    return [(c.inbits, c.outbits) for c in cover]


class TestStableLattice:
    def test_matches_stable_value_at_every_point(self):
        """Random specs with don't-cares, half of them with OFF overlapping
        ON."""
        rng = random.Random(24)
        for i in range(30):
            n = rng.randint(1, 6)
            n_out = rng.randint(1, 3)
            on, off = random_spec(rng, n, n_outputs=n_out, overlap=0.3 * (i % 2))
            start = tuple(rng.randint(0, 1) for _ in range(n))
            transitions = [Transition(start, start)]
            transitions += random_transitions(rng, n, 3, 4)
            for t in transitions:
                rows = _TransitionRows(t, _rows(on), _rows(off))
                k = len(t.changing)
                size = 3 ** k
                stable1, stable0 = _stable_lattice(rows, t, n_out)
                assert stable1 >> (n_out * size) == stable0 >> (n_out * size) == 0
                for b in range(size):
                    point = _point(t, [b // 3 ** i % 3 for i in range(k)])
                    for j in range(n_out):
                        if (stable1 >> (j * size + b)) & 1:
                            got = 1
                        elif (stable0 >> (j * size + b)) & 1:
                            got = 0
                        else:
                            got = None
                        assert got == stable_value(point, on, off, j), (t, b, j)


def _split_case():
    """Four inputs, six outputs, and the transition 1011 -> 0111 (x0 and
    x1 change, x2 = x3 = 1 hold), on which the outputs split:

    * f0: the start point is don't-care — unconstrained;
    * f1 = x2 on the gate x2 — outside the changing inputs, clean;
    * f2 = x0 on the gate x3 — outside them, wrong at the end point;
    * f3 = x0·x2 + x0'·x3 — a static-1 hazard at X0;
    * f4 = x1 on x1·x0' — wrong at the vertex 11 (the fourth point);
    * f5 = x2' on the gate x2 — wrong at the start point.
    """
    gates = [Gate(f"x{i}", "input") for i in range(4)]
    gates += [
        Gate("nx0", "not", (0,)),
        Gate("g0", "and", (1, 4)),
        Gate("a", "and", (0, 2)),
        Gate("b", "and", (4, 3)),
        Gate("g3", "or", (6, 7)),
        Gate("g4", "and", (4, 1)),
    ]
    netlist = Netlist(4, gates, [5, 2, 3, 8, 9, 2], name="split")
    spec = [
        (["01--"], ["00--"]),
        (["--1-"], ["--0-"]),
        (["1---"], ["0---"]),
        (["1-1-", "0--1"], ["1-0-", "0--0"]),
        (["-1--"], ["-0--"]),
        (["--0-"], ["--1-"]),
    ]
    on, off = Cover(4, n_outputs=6), Cover(4, n_outputs=6)
    for j, (on_cubes, off_cubes) in enumerate(spec):
        outputs = "".join("1" if i == j else "0" for i in range(6))
        for cover, cubes in ((on, on_cubes), (off, off_cubes)):
            for text in cubes:
                cover.append(Cube.from_string(text, outputs))
    t = Transition((1, 0, 1, 1), (0, 1, 1, 1))
    return netlist, on, off, [t, t.reversed()]


class TestPerTransitionJudge:
    """Risks of judging a transition once for all outputs instead of once
    per output: outputs of one transition that need different handling,
    every width of the lattice and the walk above it, and budgets that
    blow between two outputs of one transition."""

    def test_outputs_of_one_transition_split_across_statuses(self):
        netlist, on, off, transitions = _split_case()
        report = assert_same_report(netlist, on, off, transitions, DetectOptions())
        first = report.verdicts[:6]
        assert [(v.status, v.points_checked) for v in first] == [
            (STATUS_UNCONSTRAINED, 0),
            (STATUS_CLEAN, 2),
            (STATUS_MISMATCH, 2),
            (STATUS_HAZARD, 3),
            (STATUS_MISMATCH, 4),
            (STATUS_MISMATCH, 1),
        ]
        assert first[3].witness.point == "X011"
        assert first[4].witness.point == "1111"
        for options in (
            DetectOptions(mode="exhaustive", algebra=True),
            DetectOptions(max_points=4, seed=1),
            DetectOptions(budget=RunBudget(max_checkpoints=0)),
        ):
            assert_same_report(netlist, on, off, transitions, options)

    def test_algebra_class_of_each_output_from_one_evaluation(self):
        """The 8-valued class is evaluated once per transition, and every
        judged verdict still carries its own output's class."""
        instance = read_pla(str(BENCHMARK_DIR / "dram-ctrl.pla")).to_instance()
        netlist = Netlist.from_cover(espresso_hf(instance).cover, name="dram-ctrl")
        assert netlist.n_outputs > 1
        args = (instance.on, instance.off, instance.transitions)
        for options in (
            DetectOptions(algebra=True),
            DetectOptions(max_points=4, seed=1, algebra=True),
        ):
            report = detect_netlist(netlist, *args, options)
            mixed = False
            for t in instance.transitions:
                classes = set()
                for v in report.verdicts:
                    if v.transition != t:
                        continue
                    want = None
                    if v.status != STATUS_UNCONSTRAINED:
                        want = ref._algebra_class(netlist, t, v.output)
                        classes.add(want)
                    assert v.algebra == want, (t, v.output)
                mixed |= len(classes) > 1
            assert mixed  # outputs of one transition do differ in class

    def test_every_width_exhaustive(self):
        """k = 0..7 on a 7-input spec, auto mode and exhaustive above
        ``max_points``."""
        rng = random.Random(23)
        n = detector.LATTICE_TRITS
        on, off = random_spec(rng, n, n_outputs=2)
        transitions = []
        for k in range(n + 1):
            start = tuple(rng.randint(0, 1) for _ in range(n))
            flip = set(rng.sample(range(n), k))
            end = tuple(1 - v if i in flip else v for i, v in enumerate(start))
            transitions.append(Transition(start, end))
        netlist = Netlist.from_cover(on, name="widths")
        mutants = [d.mutate(netlist, 1) for d in NETLIST_DEFECTS.values()]
        statuses = set()
        for nl in [netlist] + [m for m in mutants if m is not None]:
            for options in (
                DetectOptions(),
                DetectOptions(mode="exhaustive", max_points=5, seed=3),
            ):
                report = assert_same_report(nl, on, off, transitions, options)
                assert all(v.exhaustive for v in report.verdicts)
                statuses.update(v.status for v in report.verdicts)
        assert {STATUS_CLEAN, STATUS_HAZARD, STATUS_MISMATCH} <= statuses

    def test_wider_exhaustive_is_walked_per_output(self):
        """Above ``LATTICE_TRITS`` changing inputs an exhaustive transition
        is walked per output over every point, in the reference's order.
        Ten inputs, x1 = x2 = 1 held and the other eight flipped: the mux
        ``x0·x1 + x0'·x2`` has its static-1 hazard at the third point, and
        ``x3`` is clean at all 3^8."""
        n = 10
        on, off = Cover(n, n_outputs=2), Cover(n, n_outputs=2)
        for cover, cubes in (
            (on, [("11" + "-" * 8, "10"), ("0-1" + "-" * 7, "10"), ("---1" + "-" * 6, "01")]),
            (off, [("10" + "-" * 8, "10"), ("0-0" + "-" * 7, "10"), ("---0" + "-" * 6, "01")]),
        ):
            for text, outputs in cubes:
                cover.append(Cube.from_string(text, outputs))
        start = (0, 1, 1, 0, 1, 0, 1, 0, 1, 0)
        t = Transition(start, tuple(v if i in (1, 2) else 1 - v for i, v in enumerate(start)))
        assert len(t.changing) == detector.LATTICE_TRITS + 1
        netlist = Netlist.from_cover(on, name="walked")
        for options in (
            DetectOptions(mode="exhaustive"),
            DetectOptions(mode="exhaustive", budget=RunBudget(max_checkpoints=200)),
        ):
            report = assert_same_report(netlist, on, off, [t], options)
            assert [(v.status, v.points_checked, v.exhaustive) for v in report.verdicts] == [
                (STATUS_HAZARD, 3, True),
                (STATUS_CLEAN, 3 ** 8, True),
            ]

    def test_overlapping_covers_decide_for_on(self):
        """Where OFF overlaps ON the stable value is 1 in both judges."""
        rng = random.Random(25)
        for _ in range(8):
            n = rng.randint(3, 6)
            on, off = random_spec(rng, n, n_outputs=3, overlap=0.5)
            transitions = random_transitions(rng, n, 6, 4)
            netlist = Netlist.from_cover(on, name="overlap")
            for options in MODES:
                assert_same_report(netlist, on, off, transitions, options)

    @pytest.mark.parametrize("cap", ["checkpoints", "iterations"])
    def test_budget_blows_between_outputs(self, cap):
        """Cap values spread up to the run's total, so exhaustion lands on
        several outputs of the transitions, with exhaustive and sampled
        transitions interleaved."""
        rng = random.Random(23)
        on, off = random_spec(rng, 6, n_outputs=3)
        transitions = random_transitions(rng, 6, 10, 5)
        netlist = Netlist.from_cover(on, name="budget")
        mutated = NETLIST_DEFECTS["widened_cube"].mutate(netlist, 2)
        for options in (DetectOptions(mode="exhaustive"), DetectOptions(max_points=100, seed=5)):
            for nl in (netlist, mutated):
                probe = _with_registry(dataclasses.replace(options, budget=RunBudget()))
                ref.detect_netlist(nl, on, off, transitions, probe)
                total = getattr(probe.budget, cap)
                assert total >= 3
                values = set(range(0, total, max(1, total // 10))) | {total - 1, total}
                for value in sorted(values):
                    budget = RunBudget(**{f"max_{cap}": value})
                    report = assert_same_report(
                        nl, on, off, transitions, dataclasses.replace(options, budget=budget)
                    )
                    assert report.budget_exhausted == (value < total)


def _wide_case(k: int):
    """``f = x0`` over ``k`` inputs, its realization, and the transition
    that flips them all: ``3^k`` points, clean at every one."""
    on = Cover(k, [Cube.from_string("1" + "-" * (k - 1))])
    off = Cover(k, [Cube.from_string("0" + "-" * (k - 1))])
    netlist = Netlist.from_cover(on, name="wide")
    return netlist, on, off, [Transition((0,) * k, (1,) * k)]


class TestBudgetBoundsTheWork:
    """A blown budget stops the work, not just the report: a wide
    exhaustive or a long sampled walk ends within a batch or so of the
    point where its checkpoints blow, instead of walking all of its
    points first."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The widths of the dual-rail sweeps run: points swept per call."""
        widths = []
        for name in ("eval_dual_rail", "eval_dual_rail_all"):
            sweep = getattr(Netlist, name)

            def counted(self, *args, _sweep=sweep):
                widths.append(args[-1])
                return _sweep(self, *args)

            monkeypatch.setattr(Netlist, name, counted)
        return widths

    @pytest.mark.parametrize(
        "options",
        [DetectOptions(mode="exhaustive"), DetectOptions(mode="sampled", max_points=10**6)],
        ids=["exhaustive", "sampled"],
    )
    def test_passed_deadline_stops_a_wide_walk(self, options, sweeps):
        netlist, on, off, transitions = _wide_case(14)
        budget = RunBudget(wall_s=1e-9)
        began = time.perf_counter()
        report = detect_netlist(
            netlist, on, off, transitions, dataclasses.replace(options, budget=budget)
        )
        assert time.perf_counter() - began < 5.0
        assert report.budget_exhausted
        assert [v.status for v in report.verdicts] == [STATUS_SKIPPED]
        assert sum(sweeps) <= 2 * CHECK_EVERY

    def test_checkpoint_cap_stops_a_wide_walk(self, sweeps):
        netlist, on, off, transitions = _wide_case(12)
        options = DetectOptions(mode="exhaustive", budget=RunBudget(max_checkpoints=3))
        report = assert_same_report(netlist, on, off, transitions, options)
        assert report.budget_exhausted
        # Two runs: the fast one sweeps four batches, the reference none.
        assert sweeps == [CHECK_EVERY] * 4

    def test_unspent_budget_walks_to_the_end(self):
        netlist, on, off, transitions = _wide_case(8)
        options = DetectOptions(mode="exhaustive", budget=RunBudget(wall_s=60.0))
        report = detect_netlist(netlist, on, off, transitions, options)
        assert not report.budget_exhausted
        assert [(v.status, v.points_checked) for v in report.verdicts] == [
            (STATUS_CLEAN, 3 ** 8)
        ]
        assert options.budget.checkpoints == 3 ** 8 // CHECK_EVERY
