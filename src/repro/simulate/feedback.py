"""Closed-loop simulation of a synthesized burst-mode controller.

The minimized cover implements next-state functions ``Z_k`` and output
functions ``Y_j`` over (specification inputs, fed-back state variables).
This module operates the machine the way the locally-clocked burst-mode
architecture does (Nowick/Dill):

1. **input-burst phase** — the state variables are held while the burst
   inputs flip in random order with random per-gate and per-wire delays;
   every function's exact output waveform is computed
   (:mod:`repro.simulate.montecarlo`) and must be monotonic — this is
   precisely what hazard-free minimization guarantees;
2. **state-update phase** — once the logic settles, the local clock latches
   the new state code atomically; the combinational functions must be
   *stable* across the latch (no output may change when the state inputs
   switch), which holds by construction of the synthesized instance.

A *spec walk* drives the machine through random paths of its own
specification and fails loudly if any function glitches, the machine lands
in the wrong total state, or the latched state is not stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cubes.cover import Cover
from repro.hazards.transitions import Transition
from repro.simulate.montecarlo import is_monotonic_waveform, simulate_transition


class FeedbackSimulationError(AssertionError):
    """The closed-loop machine misbehaved."""


@dataclass
class StepReport:
    """Outcome of one input burst applied to the closed-loop machine."""

    transition: Transition
    #: per-function output waveforms during the input-burst phase
    waveforms: List[List[Tuple[float, int]]] = field(default_factory=list)
    new_state: Tuple[int, ...] = ()
    new_outputs: Tuple[int, ...] = ()

    def glitching_functions(self) -> List[int]:
        """Indices of functions whose waveform was non-monotonic."""
        return [j for j, ok in enumerate(self._monotonic_flags) if not ok]

    _monotonic_flags: List[bool] = field(default_factory=list)


class ClosedLoopMachine:
    """A minimized cover operated as a locally-clocked feedback machine.

    ``cover`` must have inputs ``[0, n_ext)`` = specification inputs and
    ``[n_ext, n_ext + n_states)`` = state variables, outputs
    ``[0, n_states)`` = next-state functions and the rest = specification
    outputs — the layout produced by :func:`repro.bm.synthesis.synthesize`.
    """

    def __init__(
        self,
        cover: Cover,
        n_ext_inputs: int,
        n_states: int,
        rng: Optional[random.Random] = None,
        max_delay: float = 10.0,
    ):
        from repro.detect.netlist import Netlist

        if cover.n_inputs != n_ext_inputs + n_states:
            raise ValueError("cover inputs must be spec inputs + state vars")
        if cover.n_outputs < n_states:
            raise ValueError("cover has fewer outputs than state variables")
        self.n_ext = n_ext_inputs
        self.n_states = n_states
        self.rng = rng or random.Random(0)
        self.max_delay = max_delay
        self.netlist = Netlist.from_cover(cover)
        self.ext_inputs: Tuple[int, ...] = tuple([0] * n_ext_inputs)
        self.state: Tuple[int, ...] = tuple([0] * n_states)

    # ------------------------------------------------------------------

    def total_inputs(self) -> Tuple[int, ...]:
        return self.ext_inputs + self.state

    def reset(self, ext_inputs: Sequence[int], state: Sequence[int]) -> None:
        """Place the machine in a total state; it must be stable."""
        self.ext_inputs = tuple(ext_inputs)
        self.state = tuple(state)
        values = self.netlist.evaluate(self.total_inputs())
        for k in range(self.n_states):
            if values[k] != self.state[k]:
                raise FeedbackSimulationError(
                    f"reset total state is unstable on state bit {k}"
                )

    def step(self, burst: Sequence[int]) -> StepReport:
        """Apply one input burst and latch the resulting state."""
        for i in burst:
            if not 0 <= i < self.n_ext:
                raise ValueError(f"burst index {i} is not an external input")
        start = self.total_inputs()
        new_ext = tuple(
            v ^ 1 if i in set(burst) else v for i, v in enumerate(self.ext_inputs)
        )
        end = new_ext + self.state  # state held during the burst
        transition = Transition(start, end)
        report = StepReport(transition=transition)
        # Phase 1: exact waveforms under random per-gate/per-wire delays.
        start_values = self.netlist.evaluate(start)
        settled = self.netlist.evaluate(end)
        for j in range(self.netlist.n_outputs):
            waveform = simulate_transition(
                self.netlist, transition, self.rng, self.max_delay, j
            )
            report.waveforms.append(waveform)
            monotonic = is_monotonic_waveform(
                waveform, start_values[j], settled[j]
            )
            report._monotonic_flags.append(monotonic)
        # Phase 2: local clock latches the settled next-state code.
        next_state = settled[: self.n_states]
        latched = self.netlist.evaluate(new_ext + next_state)
        # The latch must not disturb the combinational functions.
        for j, (after, before) in enumerate(zip(latched, settled)):
            if after != before:
                raise FeedbackSimulationError(
                    f"function {j} is unstable across the state latch"
                )
        self.ext_inputs = new_ext
        self.state = next_state
        report.new_state = next_state
        report.new_outputs = latched[self.n_states :]
        return report


def run_spec_walk(
    cover: Cover,
    synthesis_result,
    n_steps: int = 20,
    seed: int = 0,
) -> List[StepReport]:
    """Drive the minimized machine through random paths of its own spec.

    ``synthesis_result`` is the :class:`~repro.bm.synthesis.SynthesisResult`
    whose instance ``cover`` implements.  Raises
    :class:`FeedbackSimulationError` on any glitch, wrong successor state or
    unstable latch.  Returns the per-step reports.
    """
    states, edges = synthesis_result.unrolled()
    index_of = {s: k for k, s in enumerate(states)}
    outgoing: Dict[int, List] = {}
    for src, burst, _outburst, dst in edges:
        outgoing.setdefault(index_of[src], []).append((burst, dst))

    rng = random.Random(seed)
    machine = ClosedLoopMachine(
        cover, synthesis_result.n_spec_inputs, len(states), rng=rng
    )
    current = states[0]
    one_hot = [0] * len(states)
    one_hot[index_of[current]] = 1
    machine.reset(current.inputs, one_hot)

    reports: List[StepReport] = []
    for _ in range(n_steps):
        options = outgoing.get(index_of[current])
        if not options:
            break
        burst, expected = rng.choice(options)
        report = machine.step(sorted(burst))
        reports.append(report)
        glitching = report.glitching_functions()
        if glitching:
            raise FeedbackSimulationError(
                f"functions {glitching} glitched during burst {sorted(burst)} "
                f"from state {index_of[current]}"
            )
        expected_code = tuple(
            1 if k == index_of[expected] else 0 for k in range(len(states))
        )
        if report.new_state != expected_code:
            raise FeedbackSimulationError(
                f"landed in state code {report.new_state}, expected one-hot "
                f"{index_of[expected]}"
            )
        if machine.ext_inputs != tuple(expected.inputs):
            raise FeedbackSimulationError("input polarity bookkeeping diverged")
        if report.new_outputs != tuple(expected.outputs):
            raise FeedbackSimulationError(
                f"outputs {report.new_outputs}, expected {expected.outputs}"
            )
        current = expected
    return reports
