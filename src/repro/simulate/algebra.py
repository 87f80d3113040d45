"""Eight-valued hazard algebra for single multiple-input changes.

Under the unbounded gate/wire delay, pure delay model, a signal's behaviour
over one input transition is characterized by three bits: its initial
value, its final value, and whether a non-monotonic excursion is possible.
That yields eight *waveform classes*:

========  ==========================  =========================
class     (v0, v1, hazard-possible)   classic name
========  ==========================  =========================
``S0``    (0, 0, no)                  static 0
``S1``    (1, 1, no)                  static 1
``RISE``  (0, 1, no)                  clean rise
``FALL``  (1, 0, no)                  clean fall
``H0``    (0, 0, yes)                 static-0 hazard
``H1``    (1, 1, yes)                 static-1 hazard
``HR``    (0, 1, yes)                 dynamic rise hazard
``HF``    (1, 0, yes)                 dynamic fall hazard
========  ==========================  =========================

The AND/OR composition tables are *derived*, not hand-written: each class
is represented by a small set of canonical waveforms (value sequences), and
the class of ``a AND b`` is computed by producting every representative
pair under every interleaving of their change events — exactly the
behaviours arbitrary delays can produce when the operands vary
independently.  For two-level AND-OR logic with independently delayed
literal wires this algebra is exact, and the test suite checks it against
both the Theorem 2.11 lemma conditions and Monte-Carlo simulation.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.hazards.transitions import Transition

if TYPE_CHECKING:
    from repro.detect.netlist import Netlist


class W(enum.Enum):
    """The eight waveform classes."""

    S0 = (0, 0, False)
    S1 = (1, 1, False)
    RISE = (0, 1, False)
    FALL = (1, 0, False)
    H0 = (0, 0, True)
    H1 = (1, 1, True)
    HR = (0, 1, True)
    HF = (1, 0, True)

    @property
    def v0(self) -> int:
        return self.value[0]

    @property
    def v1(self) -> int:
        return self.value[1]

    @property
    def hazard(self) -> bool:
        return self.value[2]


_BY_KEY: Dict[Tuple[int, int, bool], W] = {w.value: w for w in W}


def _reduce(seq: Sequence[int]) -> Tuple[int, ...]:
    out: List[int] = []
    for v in seq:
        if not out or out[-1] != v:
            out.append(v)
    return tuple(out)


def _representatives(w: W) -> List[Tuple[int, ...]]:
    """Canonical waveforms of a class (monotone one, plus pulsed variants)."""
    base = _reduce((w.v0, w.v1)) if w.v0 != w.v1 else (w.v0,)
    reps = [base]
    if w.hazard:
        # one and two spurious pulses; two suffice to expose every
        # composition hazard, and extras are free (computed once at import)
        one = _reduce((w.v0, 1 - w.v0, w.v0, w.v1) if w.v0 == w.v1 else (w.v0, w.v1, w.v0, w.v1))
        two = _reduce(one[:-1] + (1 - one[-1], one[-1]))
        reps.extend([one, two])
    return reps


def _interleavings(a: Tuple[int, ...], b: Tuple[int, ...]):
    """All orderings of the two waveforms' change events.

    A waveform with ``k`` changes is a sequence of ``k`` events; an
    interleaving chooses positions of a's events among ``ka + kb`` slots.
    """
    ka, kb = len(a) - 1, len(b) - 1
    for positions in itertools.combinations(range(ka + kb), ka):
        pos_set = set(positions)
        ia = ib = 0
        va, vb = a[0], b[0]
        steps = [(va, vb)]
        for slot in range(ka + kb):
            if slot in pos_set:
                ia += 1
                va = a[ia]
            else:
                ib += 1
                vb = b[ib]
            steps.append((va, vb))
        yield steps


def _compose(a: W, b: W, op) -> W:
    v0 = op(a.v0, b.v0)
    v1 = op(a.v1, b.v1)
    hazard = False
    for ra in _representatives(a):
        for rb in _representatives(b):
            for steps in _interleavings(ra, rb):
                product = _reduce([op(x, y) for x, y in steps])
                expected = _reduce((v0, v1)) if v0 != v1 else (v0,)
                if product != expected:
                    hazard = True
                    break
            if hazard:
                break
        if hazard:
            break
    return _BY_KEY[(v0, v1, hazard)]


def _build_table(op) -> Dict[Tuple[W, W], W]:
    table: Dict[Tuple[W, W], W] = {}
    for a in W:
        for b in W:
            table[(a, b)] = _compose(a, b, op)
    return table


_AND_TABLE = _build_table(lambda x, y: x & y)
_OR_TABLE = _build_table(lambda x, y: x | y)
_NOT_TABLE: Dict[W, W] = {
    w: _BY_KEY[(1 - w.v0, 1 - w.v1, w.hazard)] for w in W
}


def wand(a: W, b: W) -> W:
    """AND of two waveform classes."""
    return _AND_TABLE[(a, b)]


def wor(a: W, b: W) -> W:
    """OR of two waveform classes."""
    return _OR_TABLE[(a, b)]


def wnot(a: W) -> W:
    """NOT of a waveform class (pure delay: hazards pass through)."""
    return _NOT_TABLE[a]


def input_class(start: int, end: int) -> W:
    """The class of an input signal over a transition (always clean)."""
    if start == end:
        return W.S1 if start else W.S0
    return W.RISE if end else W.FALL


def classify_network(
    network: Netlist, transition: Transition, output: int = 0
) -> W:
    """The waveform class of output ``output`` of a two-level netlist.

    Every literal wire is delayed independently (unbounded wire delay), so
    gate inputs compose as independent classes.
    """
    input_classes = [
        input_class(a, b) for a, b in zip(transition.start, transition.end)
    ]
    or_acc = W.S0
    for literals in network.products(output):
        acc = W.S1
        for var, phase in literals:
            lit = input_classes[var] if phase else wnot(input_classes[var])
            acc = wand(acc, lit)
        or_acc = wor(or_acc, acc)
    return or_acc


def has_logic_hazard(
    network: Netlist, transition: Transition, output: int = 0
) -> bool:
    """True iff the network can glitch on the transition (any type).

    Exact for two-level networks under the paper's delay model; covers both
    static and dynamic hazards (unlike plain ternary simulation).
    """
    return classify_network(network, transition, output).hazard


def cover_hazard_free_by_algebra(instance, cover) -> bool:
    """Whole-cover hazard check through the waveform algebra.

    Classifies every (specified transition, output) pair of the cover's
    AND-OR implementation.  For covers that implement the specified function
    correctly on the transition cubes, this is equivalent to the Theorem
    2.11 verifier (property-tested in ``tests/test_algebra.py``) — an
    independent oracle derived from waveform composition instead of the
    covering lemmas.
    """
    from repro.detect.netlist import Netlist

    network = Netlist.from_cover(cover)
    for t in instance.transitions:
        for j in range(instance.n_outputs):
            if has_logic_hazard(network, t, j):
                return False
    return True
