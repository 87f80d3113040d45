"""Per-point reference for the gate-level detector.

:func:`repro.detect.detect_netlist` judges a narrow exhaustive
transition for every output at once (a lattice of stable values and one
dual-rail sweep of the whole netlist) and walks any other one per output
(integer-row stability, one dual-rail sweep of the output's cone per
batch of 64 points).  This module keeps the original loop: one ternary
point and one output at a time,
:func:`~repro.detect.ternary.stable_value` over ``Cube`` covers and a
full Kleene sweep of the netlist for every point, with its own exhaustive
point enumeration :func:`transition_points`.  It is the oracle
``tests/test_detect_batch.py`` compares against.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cubes.cover import Cover
from repro.detect.detector import (
    CHECK_EVERY,
    STATUS_CLEAN,
    STATUS_HAZARD,
    STATUS_MISMATCH,
    STATUS_SKIPPED,
    STATUS_UNCONSTRAINED,
    DetectionReport,
    DetectOptions,
    TransitionVerdict,
    _Counters,
    _sampled_points,
    _witness,
)
from repro.detect.netlist import Netlist
from repro.detect.ternary import stable_value
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.transitions import Transition
from repro.simulate.algebra import W, input_class, wand, wnot, wor


def _algebra_class(netlist: Netlist, transition: Transition, output: int) -> str:
    """The advisory 8-valued class of one output, from its own evaluation
    of the whole netlist (the detector evaluates once per transition)."""
    values: List[W] = []
    for i, g in enumerate(netlist.gates):
        if g.op == "input":
            values.append(input_class(transition.start[i], transition.end[i]))
        elif g.op == "const0":
            values.append(W.S0)
        elif g.op == "const1":
            values.append(W.S1)
        elif g.op == "not":
            values.append(wnot(values[g.fanin[0]]))
        elif g.op == "and":
            v = W.S1
            for f in g.fanin:
                v = wand(v, values[f])
            values.append(v)
        else:
            v = W.S0
            for f in g.fanin:
                v = wor(v, values[f])
            values.append(v)
    return values[netlist.outputs[output]].name


def detect_netlist(
    netlist: Netlist,
    on: Cover,
    off: Cover,
    transitions: Sequence[Transition],
    options: Optional[DetectOptions] = None,
) -> DetectionReport:
    """The reference :func:`repro.detect.detect_netlist`: the same loop without
    tracing, calling :func:`detect_one` per (transition, output)."""
    options = options or DetectOptions()
    if options.netlist_decorator is not None:
        netlist = options.netlist_decorator(netlist)
    if on.n_outputs != netlist.n_outputs or off.n_outputs != netlist.n_outputs:
        raise ValueError(
            f"specification has {on.n_outputs} outputs but netlist "
            f"{netlist.name!r} has {netlist.n_outputs}"
        )
    counters = _Counters(options.registry)
    report = DetectionReport(name=netlist.name)
    supports = [netlist.support(j) for j in range(netlist.n_outputs)]
    on_by_out = on.split_outputs()
    off_by_out = off.split_outputs()
    rng = random.Random(options.seed)
    budget = options.budget
    exhausted = False
    for t_index, t in enumerate(transitions):
        if len(t.start) != netlist.n_inputs:
            raise ValueError(
                f"transition {t_index} has {len(t.start)} inputs, "
                f"netlist {netlist.name!r} has {netlist.n_inputs}"
            )
        for j in range(netlist.n_outputs):
            if exhausted:
                report.verdicts.append(
                    TransitionVerdict(
                        t, j, STATUS_SKIPPED, 3 ** len(t.changing), 0, False
                    )
                )
                _Counters.bump(counters.skipped)
                continue
            try:
                verdict = detect_one(
                    netlist,
                    on_by_out[j],
                    off_by_out[j],
                    t,
                    j,
                    supports[j],
                    options,
                    rng,
                    counters,
                    budget,
                )
            except BudgetExceeded:
                exhausted = True
                report.budget_exhausted = True
                verdict = TransitionVerdict(
                    t, j, STATUS_SKIPPED, 3 ** len(t.changing), 0, False
                )
                _Counters.bump(counters.skipped)
            report.verdicts.append(verdict)
    return report


def transition_points(
    transition: Transition,
    mode: str,
    max_points: int,
    rng: random.Random,
) -> Tuple[Iterable[Tuple[int, ...]], int, bool]:
    """Yield trit assignments for the changing variables.

    A trit is 0 (start value), 1 (end value), or 2 (``X``).  Returns
    ``(iterator, total, exhaustive)``.
    """
    k = len(transition.changing)
    total = 3 ** k
    if mode == "exhaustive" or total <= max_points:
        def full():
            assign = [0] * k
            while True:
                yield tuple(assign)
                for i in range(k):
                    assign[i] += 1
                    if assign[i] < 3:
                        break
                    assign[i] = 0
                else:
                    return
        return full(), total, True
    return _sampled_points(transition, max_points, rng), total, False


def detect_one(
    netlist: Netlist,
    on_j: Cover,
    off_j: Cover,
    transition: Transition,
    output: int,
    support: frozenset,
    options: DetectOptions,
    rng: random.Random,
    counters: _Counters,
    budget: Optional[RunBudget],
) -> TransitionVerdict:
    changing = transition.changing
    k = len(changing)
    start, end = transition.start, transition.end
    _Counters.bump(counters.transitions)
    if budget is not None:
        budget.charge_iteration("detect")

    def spec_value(vec: Sequence[int]) -> Optional[int]:
        if on_j.evaluate(vec):
            return 1
        if off_j.evaluate(vec):
            return 0
        return None

    if spec_value(start) is None or spec_value(end) is None:
        return TransitionVerdict(
            transition, output, STATUS_UNCONSTRAINED, 3 ** k, 0, True
        )

    relevant = support & set(changing)
    mode = options.mode
    points, total, exhaustive = transition_points(
        transition,
        "exhaustive" if mode == "exhaustive" else "sampled",
        options.max_points,
        rng,
    )
    if not relevant:
        points, exhaustive = iter(((0,) * k, (1,) * k)), True

    checked = 0
    outcome: Optional[TransitionVerdict] = None
    base = list(start)
    for assign in points:
        checked += 1
        if budget is not None and checked % CHECK_EVERY == 0:
            budget.checkpoint("detect")
        point_list: List[Optional[int]] = base[:]
        has_x = False
        for pos, trit in zip(changing, assign):
            if trit == 0:
                point_list[pos] = start[pos]
            elif trit == 1:
                point_list[pos] = end[pos]
            else:
                point_list[pos] = None
                has_x = True
        point = tuple(point_list)
        if not has_x:
            vec = point
            expected = spec_value(vec)
            if expected is None:
                continue
            got = netlist.eval_gates(vec)[netlist.outputs[output]]
            if got != expected:
                _Counters.bump(counters.mismatches)
                outcome = TransitionVerdict(
                    transition,
                    output,
                    STATUS_MISMATCH,
                    total,
                    checked,
                    exhaustive,
                    _witness(netlist, transition, point, output, expected, got),
                )
                break
            continue
        expected = stable_value(point, on_j, off_j)
        if expected is None:
            continue  # the function itself is unstable here: no assertion
        got = netlist.eval_gates_ternary(point)[netlist.outputs[output]]
        if got is None:
            _Counters.bump(counters.hazards)
            outcome = TransitionVerdict(
                transition,
                output,
                STATUS_HAZARD,
                total,
                checked,
                exhaustive,
                _witness(netlist, transition, point, output, expected, None),
            )
            break
        if got != expected:
            _Counters.bump(counters.mismatches)
            outcome = TransitionVerdict(
                transition,
                output,
                STATUS_MISMATCH,
                total,
                checked,
                exhaustive,
                _witness(netlist, transition, point, output, expected, got),
            )
            break
    _Counters.bump(counters.points, checked)
    if outcome is None:
        outcome = TransitionVerdict(
            transition, output, STATUS_CLEAN, total, checked, exhaustive
        )
    if options.algebra:
        outcome = TransitionVerdict(
            outcome.transition,
            outcome.output,
            outcome.status,
            outcome.points_total,
            outcome.points_checked,
            outcome.exhaustive,
            outcome.witness,
            _algebra_class(netlist, transition, output),
        )
    return outcome
