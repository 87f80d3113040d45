"""The gate-level hazard detector: per-transition verdicts with witnesses.

Semantics (see ``docs/DETECTION.md``): for a specified transition
``[A, B]`` the detector examines the transition's **ternary points** —
stable inputs pinned to their ``A`` value, each changing input set to its
start value, its end value, or ``X``.  At every point where the function
is provably stable (:func:`~repro.detect.ternary.stable_value` over the
ON/OFF covers) the netlist must produce that stable value under Kleene
evaluation; an ``X`` output is a hazard, a wrong definite value is a
functional mismatch.  Vertex points (no ``X``) double as functional
endpoint checks.

Points are judged in batches of up to :data:`CHECK_EVERY`: one dual-rail
sweep (:meth:`~repro.detect.netlist.Netlist.eval_dual_rail`) gives the
netlist's Kleene value at every point of the batch, then the points are
walked in enumeration order with the stable value computed on integer
rows (:func:`~repro.detect.ternary.stable_rows`) until the first failure.

Two modes:

* **exhaustive** — all ``3^k`` points of a ``k``-variable transition;
* **sampled** — a seeded random subset capped by
  :attr:`DetectOptions.max_points`, automatically exhaustive whenever
  ``3^k`` fits the cap, cooperating with :class:`repro.guard.RunBudget`
  checkpoints and degrading gracefully to a partial report
  (``budget_exhausted=True``) when a cap blows.

Every hazard verdict carries a concrete witness: the ternary point, the
resolved sub-transition endpoints (an input pair exhibiting the glitch),
and the unstable-gate trace through the netlist.

The model judges *logic* hazards visible to unstable-input (ternary)
analysis.  It is exact for static transitions; for dynamic transitions
the Theorem 2.11 conditions additionally police monotone multi-input-
change interleavings (privileged cubes) that no ternary point can see —
the optional 8-valued ``algebra`` advisory covers that side,
conservatively for multi-level netlists.  ``docs/DETECTION.md`` spells
out the triage rules the differential suite enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cubes.cover import Cover
from repro.cubes.cube import LITERAL_DC, mask01, minterm_bits
from repro.detect.netlist import Netlist
from repro.detect.ternary import cofactor_rows, point_string, stable_rows
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import current_tracer
from repro.simulate.algebra import W, input_class, wand, wnot, wor

#: Verdict statuses, from best to worst.
STATUS_CLEAN = "clean"
STATUS_UNCONSTRAINED = "unconstrained"
STATUS_SKIPPED = "skipped"
STATUS_MISMATCH = "functional_mismatch"
STATUS_HAZARD = "hazard"

#: How many unstable gates a witness trace records at most.
TRACE_LIMIT = 16

#: Budget checkpoints run every this many examined points.
CHECK_EVERY = 64


@dataclass(frozen=True)
class HazardWitness:
    """A concrete exhibit for one hazard or mismatch verdict."""

    output: int
    point: str  # ternary point, e.g. "1X0X"
    start: Tuple[int, ...]  # resolved sub-transition endpoints
    end: Tuple[int, ...]
    expected: int  # the stable function value at the point
    observed: str  # "X" for a hazard, "0"/"1" for a mismatch
    unstable_gates: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "output": self.output,
            "point": self.point,
            "start": "".join(map(str, self.start)),
            "end": "".join(map(str, self.end)),
            "expected": self.expected,
            "observed": self.observed,
            "unstable_gates": list(self.unstable_gates),
        }


@dataclass(frozen=True)
class TransitionVerdict:
    """The detector's answer for one (transition, output) pair."""

    transition: Transition
    output: int
    status: str
    points_total: int
    points_checked: int
    exhaustive: bool
    witness: Optional[HazardWitness] = None
    algebra: Optional[str] = None  # advisory 8-valued class name

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "start": "".join(map(str, self.transition.start)),
            "end": "".join(map(str, self.transition.end)),
            "output": self.output,
            "status": self.status,
            "points_total": self.points_total,
            "points_checked": self.points_checked,
            "exhaustive": self.exhaustive,
        }
        if self.witness is not None:
            d["witness"] = self.witness.as_dict()
        if self.algebra is not None:
            d["algebra"] = self.algebra
        return d


@dataclass
class DetectionReport:
    """All verdicts for one netlist plus aggregate outcome."""

    name: str
    verdicts: List[TransitionVerdict] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def hazards(self) -> List[TransitionVerdict]:
        return [v for v in self.verdicts if v.status == STATUS_HAZARD]

    @property
    def mismatches(self) -> List[TransitionVerdict]:
        return [v for v in self.verdicts if v.status == STATUS_MISMATCH]

    @property
    def hazard_free(self) -> bool:
        """No hazard and no mismatch among the checked verdicts."""
        return not self.hazards and not self.mismatches

    @property
    def complete(self) -> bool:
        """Every verdict exhaustive and none skipped."""
        return not self.budget_exhausted and all(
            v.exhaustive and v.status != STATUS_SKIPPED for v in self.verdicts
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "hazard_free": self.hazard_free,
            "complete": self.complete,
            "budget_exhausted": self.budget_exhausted,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


@dataclass
class DetectOptions:
    """Knobs for :func:`detect_netlist`.

    ``mode`` is ``"exhaustive"`` (always enumerate all ``3^k`` points;
    may be slow for wide transitions), ``"sampled"`` (seeded random
    subset of at most ``max_points`` points, exhaustive when the
    transition fits), or ``"auto"`` (alias for ``"sampled"``).
    ``netlist_decorator`` is the fault-injection seam mirroring
    :func:`repro.proptest.faults.fault_decorator`: it rewrites the
    netlist before detection and exists so mutation suites can prove the
    oracles notice.
    """

    mode: str = "auto"
    max_points: int = 2187  # 3^7
    seed: int = 0
    algebra: bool = False
    budget: Optional[RunBudget] = None
    registry: Optional[MetricsRegistry] = None
    netlist_decorator: Optional[Callable[[Netlist], Netlist]] = None

    def __post_init__(self):
        if self.mode not in ("auto", "exhaustive", "sampled"):
            raise ValueError(f"unknown detect mode {self.mode!r}")
        if self.max_points < 1:
            raise ValueError("max_points must be positive")


class _Counters:
    """Thin veneer so the hot loop never branches on registry presence."""

    def __init__(self, registry: Optional[MetricsRegistry]):
        if registry is None:
            self.points = self.hazards = self.mismatches = None
            self.transitions = self.skipped = None
        else:
            self.points = registry.counter("detect.points_checked")
            self.hazards = registry.counter("detect.hazards_found")
            self.mismatches = registry.counter("detect.mismatches_found")
            self.transitions = registry.counter("detect.transitions_checked")
            self.skipped = registry.counter("detect.transitions_skipped")

    @staticmethod
    def bump(counter, n: int = 1) -> None:
        if counter is not None:
            counter.inc(n)


def _transition_points(
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

    def sampled():
        # The endpoints and the all-X point are always examined.
        yield (0,) * k
        yield (1,) * k
        yield (2,) * k
        seen = {(0,) * k, (1,) * k, (2,) * k}
        budget = max_points - len(seen)
        attempts = 0
        while budget > 0 and attempts < 8 * max_points:
            attempts += 1
            cand = tuple(rng.randrange(3) for _ in range(k))
            if cand in seen:
                continue
            seen.add(cand)
            budget -= 1
            yield cand
    return sampled(), total, False


def _algebra_class(netlist: Netlist, transition: Transition, output: int) -> str:
    """Advisory 8-valued (Eichelberger/BDN) class of one output.

    Exact for fan-out-free netlists and two-level covers; conservative
    (may overflag) under reconvergent fan-out.
    """
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


def _witness(
    netlist: Netlist,
    transition: Transition,
    point: Sequence[Optional[int]],
    output: int,
    expected: int,
    observed: Optional[int],
) -> HazardWitness:
    start = tuple(
        transition.start[i] if v is None else v for i, v in enumerate(point)
    )
    end = tuple(
        transition.end[i] if v is None else v for i, v in enumerate(point)
    )
    trace: List[str] = []
    if observed is None:
        gate_values = netlist.eval_gates_ternary(point)
        for idx, val in enumerate(gate_values):
            if val is None and netlist.gates[idx].op != "input":
                trace.append(netlist.gates[idx].name)
                if len(trace) >= TRACE_LIMIT:
                    break
    return HazardWitness(
        output=output,
        point=point_string(point),
        start=start,
        end=end,
        expected=expected,
        observed="X" if observed is None else str(observed),
        unstable_gates=tuple(trace),
    )


def detect_netlist(
    netlist: Netlist,
    on: Cover,
    off: Cover,
    transitions: Sequence[Transition],
    options: Optional[DetectOptions] = None,
) -> DetectionReport:
    """Judge a netlist against its specification over given transitions.

    ``on``/``off`` are the multi-output specification covers defining the
    intended function (don't-care where neither holds); the netlist's
    outputs are matched positionally against the covers' outputs.
    """
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
    tracer = current_tracer()
    span = tracer.start("detect", netlist=netlist.name) if tracer else None
    supports = [netlist.support(j) for j in range(netlist.n_outputs)]
    on_rows = [[c.inbits for c in cover] for cover in on.split_outputs()]
    off_rows = [[c.inbits for c in cover] for cover in off.split_outputs()]
    rng = random.Random(options.seed)
    budget = options.budget
    exhausted = False
    try:
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
                    verdict = _detect_one(
                        netlist,
                        on_rows[j],
                        off_rows[j],
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
    finally:
        if tracer and span:
            tracer.finish(
                span,
                verdicts=len(report.verdicts),
                hazards=len(report.hazards),
                hazard_free=report.hazard_free,
            )
    return report


def _detect_one(
    netlist: Netlist,
    on_rows: List[int],
    off_rows: List[int],
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
    n = netlist.n_inputs
    _Counters.bump(counters.transitions)
    if budget is not None:
        budget.charge_iteration("detect")

    m01 = mask01(n)
    full = m01 | (m01 << 1)

    # A transition whose endpoint value is don't-care for this output has
    # no TransitionKind: the specification places no hazard requirement on
    # it (Theorem 2.11 derives required cubes only for defined kinds), so
    # the detector must not assert either.
    if any(
        stable_rows(on_rows, off_rows, minterm_bits(vec), full, n) is None
        for vec in (start, end)
    ):
        return TransitionVerdict(
            transition, output, STATUS_UNCONSTRAINED, 3 ** k, 0, True
        )

    # Fast path: the output cone does not see any changing variable, so
    # only the two endpoints need a functional check.
    relevant = support & set(changing)
    mode = options.mode
    points, total, exhaustive = _transition_points(
        transition,
        "exhaustive" if mode == "exhaustive" else "sampled",
        options.max_points,
        rng,
    )
    if not relevant:
        points, exhaustive = iter(((0,) * k, (1,) * k)), True
    # Batches draw up to CHECK_EVERY points ahead; a sampled walk that
    # stops early rewinds the shared rng to just after its last point.
    rng_state = None if exhaustive else rng.getstate()

    # Point encoding: the stable inputs give the base mask, and each
    # changing variable contributes its start, end or X pair per trit.
    # Rows that miss the whole transition cube drop out once here.
    base = minterm_bits(start)
    lits = []
    for p in changing:
        pair = LITERAL_DC << (2 * p)
        lits.append((base & pair, pair & ~base, pair))
        base &= ~pair
    cube = base | sum(lit[2] for lit in lits)
    on_t = cofactor_rows(on_rows, cube, 0, m01)
    off_t = cofactor_rows(off_rows, cube, 0, m01)

    checked = 0
    outcome: Optional[TransitionVerdict] = None
    while outcome is None:
        batch = list(islice(points, CHECK_EVERY))
        if not batch:
            break
        every = (1 << len(batch)) - 1
        can1 = [every if v else 0 for v in start]
        can0 = [0 if v else every for v in start]
        for pos in changing:
            can1[pos] = can0[pos] = 0
        for b, assign in enumerate(batch):
            bit = 1 << b
            for pos, trit in zip(changing, assign):
                if trit == 2:
                    can1[pos] |= bit
                    can0[pos] |= bit
                elif (start, end)[trit][pos]:
                    can1[pos] |= bit
                else:
                    can0[pos] |= bit
        out1, out0 = netlist.eval_dual_rail(output, can1, can0, len(batch))
        for b, assign in enumerate(batch):
            checked += 1
            if budget is not None and checked % CHECK_EVERY == 0:
                budget.checkpoint("detect")
            d, lift = base, full
            for lit, trit in zip(lits, assign):
                d |= lit[trit]
                if trit == 2:
                    lift ^= lit[2]
            expected = stable_rows(on_t, off_t, d, lift, n)
            if expected is None:
                continue  # the function itself is unstable here: no assertion
            got = (out1 >> b) & 1
            if got and (out0 >> b) & 1:
                got = None
            elif got == expected:
                continue
            point = list(start)
            for pos, trit in zip(changing, assign):
                point[pos] = None if trit == 2 else (start, end)[trit][pos]
            if got is None:
                _Counters.bump(counters.hazards)
                status = STATUS_HAZARD
            else:
                _Counters.bump(counters.mismatches)
                status = STATUS_MISMATCH
            outcome = TransitionVerdict(
                transition,
                output,
                status,
                total,
                checked,
                exhaustive,
                _witness(netlist, transition, tuple(point), output, expected, got),
            )
            if rng_state is not None:
                rng.setstate(rng_state)
                replay, _, _ = _transition_points(
                    transition, "sampled", options.max_points, rng
                )
                for _ in islice(replay, checked):
                    pass
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


def detect_cover(
    instance: HazardFreeInstance,
    cover: Cover,
    options: Optional[DetectOptions] = None,
    name: Optional[str] = None,
) -> DetectionReport:
    """Detect hazards in the two-level realization of ``cover`` against
    ``instance``'s function and specified transitions."""
    netlist = Netlist.from_cover(cover, name=name or instance.name)
    return detect_netlist(
        netlist, instance.on, instance.off, instance.transitions, options
    )
