"""Monte-Carlo event-driven glitch simulation under arbitrary delays.

Implements the paper's circuit model directly (§2.1): a two-level AND-OR
network where every gate and every fanout wire has its own arbitrary finite
delay (pure delay model), and the inputs of a multiple-input change flip
monotonically in arbitrary order at arbitrary times.  A trial draws random
delays and input flip times, simulates the resulting waveforms exactly, and
checks the output waveform for monotonicity.

Covers satisfying Theorem 2.11 must never glitch in any trial; for covers
that violate it, enough random trials find a glitching delay assignment —
this is the library's independent dynamic check of the algebraic theory.

The network is a two-level :class:`~repro.detect.netlist.Netlist` (the
``from_cover`` shape), read through :meth:`~repro.detect.netlist.Netlist.products`;
the waveform computation shares nothing else with the detector.  Each
literal wire and each OR branch draws its own delay, in product order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.hazards.transitions import Transition

if TYPE_CHECKING:
    from repro.detect.netlist import Netlist


@dataclass
class GlitchReport:
    """A hazard exhibited by one simulated delay assignment."""

    transition: Transition
    output_waveform: List[Tuple[float, int]]  # (time, value) changes
    trial: int

    def __str__(self) -> str:
        wf = " -> ".join(str(v) for _, v in self.output_waveform)
        return f"glitch on {self.transition} (trial {self.trial}): {wf}"


def _waveform_of_and(
    gate_literals,
    flip_time: Sequence[Optional[float]],
    start: Sequence[int],
    wire_delays: Sequence[float],
    gate_delay: float,
) -> List[Tuple[float, int]]:
    """Exact output waveform of one AND gate.

    Each literal is a step function: value ``start``-derived until the
    input's flip time plus this gate's wire delay, then flipped.  The AND of
    finitely many step functions changes value only at those arrival times.
    """
    events = [0.0]
    arrivals = []
    for idx, (var, phase) in enumerate(gate_literals):
        t = flip_time[var]
        if t is not None:
            arrival = t + wire_delays[idx]
            events.append(arrival)
        arrivals.append(t + wire_delays[idx] if t is not None else None)
    events = sorted(set(events))

    def lit_value(idx: int, time: float) -> int:
        var, phase = gate_literals[idx]
        v = start[var]
        if arrivals[idx] is not None and time >= arrivals[idx]:
            v ^= 1
        return 1 if v == phase else 0

    waveform: List[Tuple[float, int]] = []
    last = None
    for t in events:
        val = 1
        for idx in range(len(gate_literals)):
            if lit_value(idx, t) == 0:
                val = 0
                break
        if val != last:
            waveform.append((t + gate_delay if t > 0 else 0.0 if last is None else t + gate_delay, val))
            last = val
    return waveform


def _or_waveform(
    and_waveforms: List[List[Tuple[float, int]]],
    or_wire_delays: Sequence[float],
    or_gate_delay: float,
) -> List[Tuple[float, int]]:
    """Exact OR-of-waveforms with per-branch wire delays and a gate delay."""
    events = {0.0}
    shifted: List[List[Tuple[float, int]]] = []
    for wf, d in zip(and_waveforms, or_wire_delays):
        s = [(t + d if t > 0 else 0.0, v) for t, v in wf]
        shifted.append(s)
        for t, _ in s:
            events.add(t)

    def value_at(wf: List[Tuple[float, int]], time: float) -> int:
        v = wf[0][1]
        for t, val in wf:
            if t <= time:
                v = val
            else:
                break
        return v

    waveform: List[Tuple[float, int]] = []
    last = None
    for t in sorted(events):
        val = 1 if any(value_at(wf, t) for wf in shifted) else 0
        if val != last:
            waveform.append((t + or_gate_delay if t > 0 else 0.0 if last is None else t + or_gate_delay, val))
            last = val
    return waveform


def simulate_transition(
    network: Netlist,
    transition: Transition,
    rng: random.Random,
    max_delay: float = 10.0,
    output: int = 0,
) -> List[Tuple[float, int]]:
    """One random-delay trial; returns the output waveform (time, value)."""
    start = transition.start
    changing = transition.changing
    flip_time: List[Optional[float]] = [None] * network.n_inputs
    for i in changing:
        flip_time[i] = rng.uniform(0.0, max_delay)
    and_waveforms = []
    for literals in network.products(output):
        wire_delays = [rng.uniform(0.0, max_delay) for _ in literals]
        gate_delay = rng.uniform(0.0, max_delay)
        and_waveforms.append(
            _waveform_of_and(literals, flip_time, start, wire_delays, gate_delay)
        )
    or_wires = [rng.uniform(0.0, max_delay) for _ in and_waveforms]
    or_delay = rng.uniform(0.0, max_delay)
    if not and_waveforms:
        return [(0.0, 0)]
    return _or_waveform(and_waveforms, or_wires, or_delay)


def is_monotonic_waveform(
    waveform: List[Tuple[float, int]], start_value: int, end_value: int
) -> bool:
    """True iff the waveform makes at most the one specified change."""
    values = [v for _, v in waveform]
    if not values:
        return start_value == end_value
    if values[0] != start_value or values[-1] != end_value:
        return False
    return len(values) <= (1 if start_value == end_value else 2)


def find_glitch(
    network: Netlist,
    transition: Transition,
    trials: int = 200,
    seed: int = 0,
    max_delay: float = 10.0,
    output: int = 0,
) -> Optional[GlitchReport]:
    """Search random delay assignments for a logic hazard on one transition.

    Returns a :class:`GlitchReport` for the first glitching trial, or
    ``None`` when every trial's output waveform is monotonic.
    """
    rng = random.Random(seed)
    start_value = network.evaluate(transition.start)[output]
    end_value = network.evaluate(transition.end)[output]
    for trial in range(trials):
        waveform = simulate_transition(
            network, transition, rng, max_delay, output
        )
        if not is_monotonic_waveform(waveform, start_value, end_value):
            return GlitchReport(transition, waveform, trial)
    return None
