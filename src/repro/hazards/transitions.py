"""Specified input transitions and function-hazard analysis.

A *multiple-input change* is a transition from input minterm ``A`` to ``B``;
during the transition the inputs may change monotonically in any order, so
the circuit can observe any minterm of the transition cube ``[A, B]``
(Definition 2.1).  A function must change monotonically over a specified
transition (no function hazard, Definitions 2.2/2.3) for any implementation
to be glitch-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.cubes.cube import Cube, full_input_mask, mask01, minterm_bits
from repro.cubes.cover import Cover, CoverColumns
from repro.cubes.operations import transition_cube, changing_vars
from repro.espresso.tautology import tautology_rows


class TransitionKind(enum.Enum):
    """The four monotonic transition types of an output over ``[A, B]``."""

    STATIC_ZERO = "0->0"
    STATIC_ONE = "1->1"
    FALLING = "1->0"
    RISING = "0->1"


@dataclass(frozen=True)
class Transition:
    """A specified multiple-input change from minterm ``start`` to ``end``."""

    start: Tuple[int, ...]
    end: Tuple[int, ...]

    def __post_init__(self):
        if len(self.start) != len(self.end):
            raise ValueError("start and end must have equal width")
        if any(v not in (0, 1) for v in self.start + self.end):
            raise ValueError("transition endpoints must be 0/1 vectors")

    @property
    def n_inputs(self) -> int:
        return len(self.start)

    @cached_property
    def cube(self) -> Cube:
        """The transition cube ``[start, end]`` (input part only)."""
        return transition_cube(self.start, self.end)

    @cached_property
    def changing(self) -> Tuple[int, ...]:
        """Indices of the input variables that change."""
        return changing_vars(self.start, self.end)

    def __getstate__(self):
        # Pickle the fields only, never the memoized properties.
        return {"start": self.start, "end": self.end}

    def reversed(self) -> "Transition":
        """The transition traversed in the opposite direction."""
        return Transition(self.end, self.start)

    def start_cube(self) -> Cube:
        return Cube.minterm(self.start)

    def __str__(self) -> str:
        return f"{''.join(map(str, self.start))}->{''.join(map(str, self.end))}"


def classify_transition(
    transition: Transition, start_value: bool, end_value: bool
) -> TransitionKind:
    """Classify an output's behaviour over a transition by its endpoint values."""
    if start_value and end_value:
        return TransitionKind.STATIC_ONE
    if start_value and not end_value:
        return TransitionKind.FALLING
    if not start_value and end_value:
        return TransitionKind.RISING
    return TransitionKind.STATIC_ZERO


class TransitionEntry:
    """One transition's row of the transition table, built in a single
    integer pass over (possibly multi-output) ON and OFF covers.

    Input parts use the positional encoding of :mod:`repro.cubes.cube`;
    output parts one bit per output; changed-variable sets live on the low
    bit of each variable's pair, like :func:`~repro.cubes.cube.dc_pairs`.

    * ``start``, ``end``, ``cube``: minterm bits of ``A`` and ``B`` and the
      transition cube ``[A, B]``; ``changing`` marks the variables that flip.
    * ``on_start``, ``on_end``, ``off_start``, ``off_end``: the outputs whose
      ON (OFF) cover contains ``A`` (``B``).
    * ``on_meet``, ``off_meet``: one ``(outbits, raised, D, E)`` row per
      cube meeting ``[A, B]``, in cover order.  ``raised`` is the cube's
      cofactor by the transition cube (every non-changing variable raised
      to don't-care); ``D``/``E`` are its changed-variable sets for the
      ``A → B`` direction.

    A meeting cube admits ``A_i``, ``B_i`` or both on every changing
    variable ``i``.  So ``D ⊆ E``, its points inside ``[A, B]`` are exactly
    the changed-sets ``S`` with ``D ⊆ S ⊆ E``, and its ``B → A`` sets are
    ``changing & ~E`` and ``changing & ~D``.
    """

    __slots__ = (
        "transition",
        "n_inputs",
        "start",
        "end",
        "cube",
        "changing",
        "on_start",
        "on_end",
        "off_start",
        "off_end",
        "on_meet",
        "off_meet",
    )

    def __init__(self, transition: Transition, on: CoverColumns, off: CoverColumns):
        n = len(transition.start)
        m01 = mask01(n)
        s = minterm_bits(transition.start)
        e = minterm_bits(transition.end)
        tc = s | e
        ch = tc & (tc >> 1) & m01
        fixed = m01 & ~ch
        raise_mask = fixed | (fixed << 1)
        self.transition = transition
        self.n_inputs = n
        self.start, self.end, self.cube, self.changing = s, e, tc, ch
        masks = []
        for cols in (on, off):
            at_start = at_end = 0
            rows = []
            cubes = cols.cubes
            starts, ends = cols.meeting(s), cols.meeting(e)
            meet = cols.meeting(tc)
            while meet:
                low = meet & -meet
                meet ^= low
                c = cubes[low.bit_length() - 1]
                ci, co = c.inbits, c.outbits
                if starts & low:
                    at_start |= co
                if ends & low:
                    at_end |= co
                x = s & ~ci
                y = e & ci
                rows.append((co, ci | raise_mask, (x | (x >> 1)) & ch, (y | (y >> 1)) & ch))
            masks.append((at_start, at_end, rows))
        (self.on_start, self.on_end, self.on_meet), (
            self.off_start,
            self.off_end,
            self.off_meet,
        ) = masks

    def kind(self, j: int) -> Optional[TransitionKind]:
        """Output ``j``'s transition type (ON wins over OFF), or ``None``
        when an endpoint lies in neither cover."""
        bit = 1 << j
        if self.on_start & bit:
            start_value = True
        elif self.off_start & bit:
            start_value = False
        else:
            return None
        if self.on_end & bit:
            end_value = True
        elif self.off_end & bit:
            end_value = False
        else:
            return None
        return classify_transition(self.transition, start_value, end_value)

    def undefined_outputs(self, outputs: int) -> int:
        """The outputs among ``outputs`` for which some point of ``[A, B]``
        lies in neither cover (a tautology of the raised rows per output).

        Outputs often share their row set, so each distinct set runs the
        tautology check once.
        """
        full = full_input_mask(self.n_inputs)
        whole = 0
        by_output: Dict[int, List[int]] = {}
        for co, raised, _, _ in self.on_meet + self.off_meet:
            if raised == full:
                whole |= co
            co &= outputs
            while co:
                bit = co & -co
                co ^= bit
                by_output.setdefault(bit, []).append(raised)
        endpoints = (self.on_start | self.off_start) & (self.on_end | self.off_end)
        undefined = outputs & ~whole & ~endpoints
        pending = outputs & ~whole & endpoints
        covered: Dict[Tuple[int, ...], bool] = {}
        while pending:
            bit = pending & -pending
            pending ^= bit
            rows = by_output.get(bit, [])
            key = tuple(rows)
            verdict = covered.get(key)
            if verdict is None:
                verdict = covered[key] = tautology_rows(rows, self.n_inputs)
            if not verdict:
                undefined |= bit
        return undefined

    def hazard_outputs(self, start_on: int, end_on: int) -> int:
        """The outputs with a function hazard when ``start_on``/``end_on``
        mark the outputs that are 1 at ``A``/``B``.

        Static transitions must not meet the other cover.  A falling output
        is hazardous iff some OFF row ``o`` and ON row ``n`` of it have
        ``D_o ⊆ E_n``; a rising one iff ``D_n ⊆ E_o`` (the falling test in
        the ``B → A`` direction).  All outputs share one pass over the row
        pairs.
        """
        on_out = off_out = 0
        for co, _, _, _ in self.on_meet:
            on_out |= co
        for co, _, _, _ in self.off_meet:
            off_out |= co
        hazards = (start_on & end_on & off_out) | (~(start_on | end_on) & on_out)
        dynamic = start_on ^ end_on
        falling = start_on & ~end_on
        for oo, _, od, oe in self.off_meet:
            if not oo & dynamic:
                continue
            for no, _, nd, ne in self.on_meet:
                common = oo & no & dynamic & ~hazards
                if common:
                    if not od & ~ne:
                        hazards |= common & falling
                    if not nd & ~oe:
                        hazards |= common & ~falling
        return hazards

    def blockers(self, j: int, falling: bool) -> List[int]:
        """``D`` of every OFF row of output ``j``, in the ``A → B``
        (``falling``) or the ``B → A`` direction, in cover order."""
        bit = 1 << j
        if falling:
            return [d for co, _, d, _ in self.off_meet if co & bit]
        ch = self.changing
        return [ch & ~e for co, _, _, e in self.off_meet if co & bit]


def function_hazard_free(transition: Transition, on: Cover, off: Cover) -> bool:
    """True iff the (single-output) function is function-hazard-free over the
    transition.

    ``on`` and ``off`` are the single-output ON and OFF covers.  The function
    must be fully defined on the transition cube (checked by
    :meth:`repro.hazards.instance.HazardFreeInstance.validate`, not here).

    * static transitions: the transition cube must lie entirely in the
      ON-set (1→1) or OFF-set (0→0);
    * dynamic transitions (1→0 after normalization): the function must fall
      monotonically — no OFF point of the transition cube may be reachable
      *before* an ON point.  Using changed-variable sets this is the pair
      condition: there must be no ON cube ``n`` and OFF cube ``o`` meeting
      the transition cube with ``D_o ⊆ E_n``.
    """
    entry = TransitionEntry(transition, on.columns(), off.columns())
    return not entry.hazard_outputs(entry.on_start & 1, entry.on_end & 1) & 1


def function_hazard_free_brute(
    transition: Transition, on: Cover, off: Cover
) -> bool:
    """Exhaustive function-hazard check (test oracle, exponential).

    Walks every pair of points in the transition cube and applies
    Definitions 2.2/2.3 directly.
    """
    start, end = transition.start, transition.end
    sv, ev = on.evaluate(start), on.evaluate(end)

    def value(vec):
        return on.evaluate(vec)

    def reachable_between(a, b):
        """Minterms of [a, b]."""
        return list(transition_cube(a, b).minterm_vectors())

    points = reachable_between(start, end)
    if sv == ev:
        return all(value(p) == sv for p in points)
    # dynamic: hazard iff some p with f(p)=f(end) can still reach q with
    # f(q)=f(start)
    for p in points:
        if value(p) != ev:
            continue
        for q in reachable_between(p, end):
            if value(q) == sv:
                return False
    return True
