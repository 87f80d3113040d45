"""Ternary (Eichelberger-style) hazard analysis for static transitions.

For a static transition ``[A, B]`` of a combinational network, drive the
changing inputs to X and the stable inputs to their common values.  If the
output resolves to the (equal) endpoint value, every delay assignment keeps
the output stable — no static logic hazard; if it resolves to X, some delay
assignment glitches it.  For two-level AND-OR logic this test is exact for
static hazards and agrees with Lemma 2.6 (a 1→1 transition is hazard-free
iff some product holds 1 across the whole transition cube).

Dynamic (1→0 / 0→1) logic hazards are outside plain ternary simulation's
reach; the Monte-Carlo simulator (:mod:`repro.simulate.montecarlo`) covers
those.

Every function takes a :class:`~repro.detect.netlist.Netlist` (usually
``Netlist.from_cover(cover)``) and judges its output ``output``; the
Kleene evaluation is the netlist's own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.hazards.transitions import Transition

if TYPE_CHECKING:
    from repro.detect.netlist import Netlist


def ternary_value(
    network: Netlist, start: Sequence[int], end: Sequence[int], output: int = 0
) -> Optional[int]:
    """The network's ternary output with changing inputs driven to X."""
    inputs: List[Optional[int]] = [
        a if a == b else None for a, b in zip(start, end)
    ]
    return network.evaluate_ternary(inputs)[output]


def ternary_simulate(
    network: Netlist, transition: Transition, output: int = 0
) -> Optional[int]:
    """Ternary output over a transition (None = X = potential hazard)."""
    return ternary_value(network, transition.start, transition.end, output)


def has_static_hazard_ternary(
    network: Netlist, transition: Transition, output: int = 0
) -> bool:
    """True iff a static transition shows a potential static logic hazard.

    Raises :class:`ValueError` when the endpoint outputs differ (the
    transition is dynamic and ternary analysis does not apply).
    """
    v_start = network.evaluate(transition.start)[output]
    v_end = network.evaluate(transition.end)[output]
    if v_start != v_end:
        raise ValueError(
            "ternary static-hazard analysis applies to static transitions only"
        )
    return ternary_simulate(network, transition, output) is None
