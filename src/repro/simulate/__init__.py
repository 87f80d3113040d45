"""Gate-level hazard analysis for AND-OR implementations of covers.

Every simulator runs on the detector's IR: build one
``repro.detect.netlist.Netlist.from_cover(cover)`` per cover and pass the
output index as ``output=`` (default 0).  Two independent dynamic
cross-checks of the algebraic hazard conditions:

* :mod:`repro.simulate.ternary` — Eichelberger-style ternary (0/X/1)
  simulation: changing inputs are driven to X; an output that resolves to X
  during a static transition exhibits a potential static logic hazard.
* :mod:`repro.simulate.montecarlo` — event-driven simulation of the AND-OR
  network under the unbounded gate and wire delay, pure delay model:
  every gate and every fanout branch gets its own random delay, the changing
  inputs flip in random order at random times, and the output waveform is
  checked for monotonicity.  A cover satisfying Theorem 2.11 must never
  glitch; deliberately hazardous covers glitch for some delay assignment.
"""

from repro.simulate.ternary import ternary_value, ternary_simulate, has_static_hazard_ternary
from repro.simulate.montecarlo import (
    simulate_transition,
    find_glitch,
    GlitchReport,
)
from repro.simulate.feedback import (
    ClosedLoopMachine,
    FeedbackSimulationError,
    StepReport,
    run_spec_walk,
)
from repro.simulate.algebra import (
    W,
    wand,
    wor,
    wnot,
    classify_network,
    has_logic_hazard,
)
from repro.simulate.vcd import waveform_to_vcd, trace_to_vcd

__all__ = [
    "ternary_value",
    "ternary_simulate",
    "has_static_hazard_ternary",
    "simulate_transition",
    "find_glitch",
    "GlitchReport",
    "ClosedLoopMachine",
    "FeedbackSimulationError",
    "StepReport",
    "run_spec_walk",
    "W",
    "wand",
    "wor",
    "wnot",
    "classify_network",
    "has_logic_hazard",
    "waveform_to_vcd",
    "trace_to_vcd",
]
