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

An exhaustive transition of up to :data:`LATTICE_TRITS` changing inputs
is judged once for all outputs (:func:`_judge_exhaustive`): a lattice of
the function's stable values at all ``3^k`` points
(:func:`_stable_lattice`) and one dual-rail sweep of the whole netlist
(:meth:`~repro.detect.netlist.Netlist.eval_dual_rail_all`); each output
then reads its first failing point off one mask compare.  Every other
transition is walked per output (:func:`_walk`) — a sampled one because
one seeded rng draws every output's points in turn, a wider exhaustive
one so that work stops at each output's first failure: batches of up to
:data:`CHECK_EVERY` points, one dual-rail sweep of the output's cone per
batch (:meth:`~repro.detect.netlist.Netlist.eval_dual_rail`), and the
stable value point by point on integer rows
(:func:`~repro.detect.ternary.stable_rows`) until the first failure.
Both end in :func:`_conclude`: budget checkpoints, counters, witness.

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
from functools import lru_cache
from itertools import islice, product
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cubes.cover import Cover
from repro.cubes.cube import LITERAL_DC, mask01, minterm_bits
from repro.detect.netlist import Netlist
from repro.detect.ternary import point_string, stable_rows
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

#: An exhaustive transition of at most this many changing inputs is
#: judged once for all outputs; a wider one is walked per output.  At 7,
#: the lattice and every gate mask of the sweep hold at most 2187 bits
#: per output.
LATTICE_TRITS = 7


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


def _sampled_points(
    transition: Transition, max_points: int, rng: random.Random
) -> Iterator[Tuple[int, ...]]:
    """A seeded sample of a transition's trit assignments: the endpoints
    and the all-``X`` point, then distinct draws from ``rng``, at most
    ``max_points`` in all.

    A trit is 0 (start value), 1 (end value), or 2 (``X``).  The rng is
    drawn from only as the points are taken.
    """
    k = len(transition.changing)
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


def _algebra_classes(netlist: Netlist, transition: Transition) -> List[str]:
    """Advisory 8-valued (Eichelberger/BDN) class of every output, from
    one evaluation of the netlist over the transition.

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
    return [values[o].name for o in netlist.outputs]


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


def _point(transition: Transition, assign: Sequence[int]) -> Tuple[Optional[int], ...]:
    """The ternary point of a trit assignment to the changing inputs."""
    point: List[Optional[int]] = list(transition.start)
    for pos, trit in zip(transition.changing, assign):
        point[pos] = None if trit == 2 else (transition.start, transition.end)[trit][pos]
    return tuple(point)


#: A failing point: its trits, the function's stable value there, and the
#: netlist's value (``None`` for ``X``).
Failure = Tuple[Tuple[int, ...], int, Optional[int]]


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
    on_rows = [(c.inbits, c.outbits) for c in on]
    off_rows = [(c.inbits, c.outbits) for c in off]
    rng = random.Random(options.seed)
    budget = options.budget
    if budget is not None:
        budget.start()  # a deadline counts from here, not the first checkpoint
    exhausted = False
    try:
        for t_index, t in enumerate(transitions):
            if len(t.start) != netlist.n_inputs:
                raise ValueError(
                    f"transition {t_index} has {len(t.start)} inputs, "
                    f"netlist {netlist.name!r} has {netlist.n_inputs}"
                )
            total = 3 ** len(t.changing)
            exhaustive = options.mode == "exhaustive" or total <= options.max_points
            once = exhaustive and len(t.changing) <= LATTICE_TRITS
            rows = judged = classes = None
            for j in range(netlist.n_outputs):
                if exhausted:
                    report.verdicts.append(
                        TransitionVerdict(t, j, STATUS_SKIPPED, total, 0, False)
                    )
                    _Counters.bump(counters.skipped)
                    continue
                try:
                    _Counters.bump(counters.transitions)
                    if budget is not None:
                        budget.charge_iteration("detect")
                    if rows is None:
                        rows = _TransitionRows(t, on_rows, off_rows)
                    if not (rows.constrained >> j) & 1:
                        # An endpoint value is don't-care for this output:
                        # the transition has no TransitionKind, so the
                        # specification places no hazard requirement on it
                        # (Theorem 2.11 derives required cubes only for
                        # defined kinds) and the detector asserts nothing.
                        verdict = TransitionVerdict(
                            t, j, STATUS_UNCONSTRAINED, total, 0, True
                        )
                    else:
                        if not once:
                            checked, failure, walked_all = _walk(
                                netlist, t, rows, j, supports[j], exhaustive,
                                options, rng,
                            )
                        else:
                            if judged is None:
                                judged = _judge_exhaustive(netlist, t, rows, supports)
                            (checked, failure), walked_all = judged[j], True
                        if options.algebra and classes is None:
                            classes = _algebra_classes(netlist, t)
                        verdict = _conclude(
                            netlist, t, j, total, checked, walked_all, failure,
                            classes[j] if classes else None, counters, budget,
                        )
                except BudgetExceeded:
                    exhausted = True
                    report.budget_exhausted = True
                    verdict = TransitionVerdict(t, j, STATUS_SKIPPED, total, 0, False)
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


class _TransitionRows:
    """The specification rows that meet one transition's cube.

    ``on``/``off`` are ``(inbits, outbits)`` rows of the multi-output
    covers that meet the transition cube, intersected with it (rows
    missing it cannot decide any of its points, and what a row holds
    outside it decides none either), ``constrained`` the output mask
    whose value is specified at both endpoints.  ``base`` is the start
    minterm with the changing pairs cleared, and ``lits`` holds per
    changing input its start, end and ``X`` pair.
    """

    __slots__ = ("on", "off", "constrained", "base", "lits")

    def __init__(self, transition, on_rows, off_rows):
        base = minterm_bits(transition.start)
        lits = []
        for p in transition.changing:
            pair = LITERAL_DC << (2 * p)
            lits.append((base & pair, pair & ~base, pair))
            base &= ~pair
        self.base, self.lits = base, lits
        inside = base | sum(lit[2] for lit in lits)
        self.on, self.off = (
            self._meet(rows, base, inside) for rows in (on_rows, off_rows)
        )
        self.constrained = self.specified(minterm_bits(transition.start)) & (
            self.specified(minterm_bits(transition.end))
        )

    @staticmethod
    def _meet(rows, base: int, inside: int) -> List[Tuple[int, int]]:
        """The rows that meet the cube — they admit every stable input's
        value, i.e. hold each bit of ``base`` — cut down to it; rows that
        then agree are merged, their output masks ORed."""
        merged: Dict[int, int] = {}
        for r, ob in [row for row in rows if row[0] & base == base]:
            merged[r & inside] = merged.get(r & inside, 0) | ob
        return list(merged.items())

    def specified(self, minterm: int) -> int:
        """Outputs whose ON or OFF rows contain ``minterm``."""
        out = 0
        for r, ob in self.on + self.off:
            if r & minterm == minterm:
                out |= ob
        return out


def _conclude(
    netlist: Netlist,
    transition: Transition,
    output: int,
    total: int,
    checked: int,
    exhaustive: bool,
    failure: Optional[Failure],
    algebra: Optional[str],
    counters: _Counters,
    budget: Optional[RunBudget],
) -> TransitionVerdict:
    """The verdict of one judged (transition, output) pair, carrying the
    output's advisory ``algebra`` class (``None`` when not asked for).

    Both judges end here.  The pair's budget checkpoints fire first, one
    per :data:`CHECK_EVERY` points examined — before the counters move,
    so a checkpoint that blows leaves them as the per-point loop would —
    then the counters and the witness.
    """
    if budget is not None:
        for _ in range(checked // CHECK_EVERY):
            budget.checkpoint("detect")
    status, witness = STATUS_CLEAN, None
    if failure is not None:
        assign, expected, got = failure
        if got is None:
            _Counters.bump(counters.hazards)
            status = STATUS_HAZARD
        else:
            _Counters.bump(counters.mismatches)
            status = STATUS_MISMATCH
        point = _point(transition, assign)
        witness = _witness(netlist, transition, point, output, expected, got)
    _Counters.bump(counters.points, checked)
    return TransitionVerdict(
        transition, output, status, total, checked, exhaustive, witness, algebra
    )


@lru_cache(maxsize=None)
def _trit_masks(k: int) -> Tuple[Tuple[int, int, int], ...]:
    """Per trit position ``i < k``, the masks of the ``3^k`` points whose
    trit ``i`` is 0, 1 and 2 (point ``b`` has trit ``i`` =
    ``b // 3^i % 3``, the enumeration order of :func:`_all_points`)."""
    size = 3 ** k
    masks = []
    for i in range(k):
        p = 3 ** i
        period = sum(1 << m for m in range(0, size, 3 * p))
        run = (1 << p) - 1
        masks.append(tuple(period * (run << (t * p)) for t in range(3)))
    return tuple(masks)


def _all_points(k: int) -> Iterator[Tuple[int, ...]]:
    """Every trit assignment of a ``k``-variable transition, trit 0
    varying fastest: point ``b`` has trit ``i`` = ``b // 3^i % 3``."""
    return (assign[::-1] for assign in product(range(3), repeat=k))


def _stable_lattice(
    rows: _TransitionRows, transition: Transition, n_outputs: int
) -> Tuple[int, int]:
    """Where the function is stable 1 and stable 0 at the ``3^k`` points
    of one transition, for every output at once: one int per stable
    value, output ``j``'s point mask at bits ``j*3^k`` and up.  Two
    steps:

    * **vertex table** — the vertices (points without ``X``) each row of
      ``rows.on`` (``rows.off``) contains, ORed into the blocks of the
      outputs the row belongs to;
    * **lattice** — a point is stable at ``v`` iff both of its halves
      are: ``S(x) = S(x|Xᵢ=0) ∧ S(x|Xᵢ=1)``.  Taking the trits low to
      high keeps every lookup final: one shift-AND of the packed int per
      trit.

    Where both hold (the covers overlap) the value is 1, as in
    :func:`~repro.detect.ternary.stable_rows`.
    """
    changing, start = transition.changing, transition.start
    size = 3 ** len(changing)
    trits = _trit_masks(len(changing))
    vertex = (1 << size) - 1
    for t0, t1, _ in trits:
        vertex &= t0 | t1
    # The trit-2 masks repeated once per output block.
    repeat = sum(1 << (j * size) for j in range(n_outputs))
    x_masks = [x * repeat for _, _, x in trits]
    # Per changing input: its pair's shift and the literal code of its
    # start value (0 ↦ 01, 1 ↦ 10); the end value's code is the other.
    codes = [(2 * pos, 1 << start[pos]) for pos in changing]

    def lattice(cover_rows):
        blocks = [0] * n_outputs
        for r, ob in cover_rows:
            vm = vertex
            for (shift, code), (t0, t1, _) in zip(codes, trits):
                lit = (r >> shift) & 3
                if lit != LITERAL_DC:
                    vm &= t0 if lit == code else t1
            while ob:
                low = ob & -ob
                blocks[low.bit_length() - 1] |= vm
                ob ^= low
        packed = 0
        for block in reversed(blocks):
            packed = (packed << size) | block
        for i, x in enumerate(x_masks):
            p = 3 ** i
            packed |= (packed << p) & (packed << (2 * p)) & x
        return packed

    return lattice(rows.on), lattice(rows.off)


def _judge_exhaustive(
    netlist: Netlist,
    transition: Transition,
    rows: _TransitionRows,
    supports: Sequence[FrozenSet[int]],
) -> Dict[int, Tuple[int, Optional[Failure]]]:
    """``(points checked, first failure)`` of every constrained output at
    all ``3^k`` points of one transition (``k <=`` :data:`LATTICE_TRITS`),
    from work done once.

    The stable values come from :func:`_stable_lattice`; the netlist's
    values from one dual-rail sweep of the whole netlist over all the
    points (:meth:`~repro.detect.netlist.Netlist.eval_dual_rail_all`).  An
    output fails where the function is stable and the netlist is not at
    that value, one mask compare per output; its first failing point gives
    ``points_checked``.  An output whose cone misses every changing input
    is judged at the two endpoints only, as the walk does.
    """
    changing, start = transition.changing, transition.start
    k = len(changing)
    size = 3 ** k
    every = (1 << size) - 1
    stable1, stable0 = _stable_lattice(rows, transition, netlist.n_outputs)
    can1 = [every if v else 0 for v in start]
    can0 = [0 if v else every for v in start]
    for pos, (t0, t1, t2) in zip(changing, _trit_masks(k)):
        at1, at0 = (t0, t1) if start[pos] else (t1, t0)
        can1[pos], can0[pos] = t2 | at1, t2 | at0
    swept = netlist.eval_dual_rail_all(can1, can0, size)
    endpoints = 1 | 1 << (size - 1) // 2  # the all-0 and the all-1 point
    found: Dict[int, Tuple[int, Optional[Failure]]] = {}
    for j, (one, zero) in enumerate(swept):
        if not (rows.constrained >> j) & 1:
            continue
        inside = bool(supports[j] & set(changing))
        e1 = (stable1 >> (j * size)) & every
        e0 = (stable0 >> (j * size)) & every & ~e1
        fail = (e1 & (~one | zero)) | (e0 & (~zero | one))
        if not inside:
            fail &= endpoints
        if not fail:
            found[j] = (size if inside else 2, None)
            continue
        b = (fail & -fail).bit_length() - 1
        got = None if (one & zero) >> b & 1 else (one >> b) & 1
        assign = tuple(b // 3 ** i % 3 for i in range(k))
        checked = b + 1 if inside else (1 if b == 0 else 2)
        found[j] = (checked, (assign, (e1 >> b) & 1, got))
    return found


def _walk(
    netlist: Netlist,
    transition: Transition,
    rows: _TransitionRows,
    output: int,
    support: FrozenSet[int],
    exhaustive: bool,
    options: DetectOptions,
    rng: random.Random,
) -> Tuple[int, Optional[Failure], bool]:
    """``(points checked, first failure, exhaustive)`` of one output,
    walked on its own over a seeded sample of a transition's points, or
    over all of them when ``exhaustive``.

    One rng serves every sampled (transition, output) pair in order, so a
    sampled transition cannot be judged once for all outputs; nor can an
    exhaustive one too wide for :func:`_judge_exhaustive`, whose points
    are walked instead, stopping at each output's first failure.  Batches
    of up to :data:`CHECK_EVERY` points, one dual-rail sweep of the
    output's cone per batch, and the stable value point by point on the
    output's rows (:func:`~repro.detect.ternary.stable_rows`) until the
    first failure.  An output whose cone misses every changing input is
    judged at the two endpoints only.

    Before each batch the walk stops if the budget checkpoints owed for
    the points so far would raise: :func:`_conclude` then fires them, and
    the pair ends as if each had fired on its 64th point.
    """
    changing = transition.changing
    k = len(changing)
    start = transition.start
    n = netlist.n_inputs
    m01 = mask01(n)
    full = m01 | (m01 << 1)
    on_t = [r for r, ob in rows.on if (ob >> output) & 1]
    off_t = [r for r, ob in rows.off if (ob >> output) & 1]
    if not support & set(changing):
        points, exhaustive = iter(((0,) * k, (1,) * k)), True
    elif exhaustive:
        points = _all_points(k)
    else:
        points = _sampled_points(transition, options.max_points, rng)
    # Batches draw up to CHECK_EVERY points ahead; a sampled walk that
    # stops early rewinds the shared rng to just after its last point.
    rng_state = None if exhaustive else rng.getstate()
    base, lits = rows.base, rows.lits
    budget = options.budget

    checked = 0
    while True:
        if budget is not None and budget.would_raise(checked // CHECK_EVERY):
            return checked, None, exhaustive
        batch = list(islice(points, CHECK_EVERY))
        if not batch:
            return checked, None, exhaustive
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
                elif (start, transition.end)[trit][pos]:
                    can1[pos] |= bit
                else:
                    can0[pos] |= bit
        out1, out0 = netlist.eval_dual_rail(output, can1, can0, len(batch))
        for b, assign in enumerate(batch):
            checked += 1
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
            if rng_state is not None:
                rng.setstate(rng_state)
                replay = _sampled_points(transition, options.max_points, rng)
                for _ in islice(replay, checked):
                    pass
            return checked, (assign, expected, got), exhaustive


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
