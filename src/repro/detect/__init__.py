"""Gate-level hazard detection for arbitrary AND/OR/NOT netlists.

The "check my circuit" workload (ROADMAP item 1): where the rest of the
repository minimizes covers *we* produce, this package judges circuits
*anyone* brings:

* :mod:`repro.detect.netlist` — the multi-level :class:`Netlist` IR with
  topological binary and Kleene-ternary evaluation; its two-level
  ``from_cover`` shape is also what the simulators of
  :mod:`repro.simulate` run on;
* :mod:`repro.detect.ternary` — ternary points, the hazard-derivative
  chain rule (Ikenmeyer et al.), and cover-based function-stability
  checks;
* :mod:`repro.detect.detector` — per-transition hazard verdicts with
  concrete witnesses, exhaustive and budgeted-sampling modes;
* :mod:`repro.detect.nlformat` — the ``.net`` text exchange format;
* :mod:`repro.detect.mutate` — defect injection for oracle-sensitivity
  testing.

See ``docs/DETECTION.md`` for the hazard model and its exact
relationship to the Theorem 2.11 verifier and the Monte-Carlo
simulator.
"""

from repro.detect.detector import (
    DetectionReport,
    DetectOptions,
    HazardWitness,
    STATUS_CLEAN,
    STATUS_HAZARD,
    STATUS_MISMATCH,
    STATUS_SKIPPED,
    STATUS_UNCONSTRAINED,
    TransitionVerdict,
    detect_cover,
    detect_netlist,
)
from repro.detect.mutate import (
    NETLIST_DEFECTS,
    NetlistDefect,
    defect_decorator,
)
from repro.detect.netlist import Gate, Netlist, NetlistError
from repro.detect.nlformat import format_netlist, parse_netlist
from repro.detect.ternary import (
    derivative_gates,
    derivative_point,
    parse_point,
    point_cube,
    point_string,
    stable_value,
    stable_value_brute,
)

__all__ = [
    "Gate",
    "Netlist",
    "NetlistError",
    "parse_netlist",
    "format_netlist",
    "DetectOptions",
    "DetectionReport",
    "TransitionVerdict",
    "HazardWitness",
    "detect_netlist",
    "detect_cover",
    "STATUS_CLEAN",
    "STATUS_HAZARD",
    "STATUS_MISMATCH",
    "STATUS_SKIPPED",
    "STATUS_UNCONSTRAINED",
    "derivative_gates",
    "derivative_point",
    "point_cube",
    "point_string",
    "parse_point",
    "stable_value",
    "stable_value_brute",
    "NETLIST_DEFECTS",
    "NetlistDefect",
    "defect_decorator",
]
