"""Ternary points, hazard derivatives, and function-stability checks.

The detector's semantics come from the modern hazard-complexity line
(Ikenmeyer et al., "On the complexity of hazard-free circuits";
Komarath/Saurabh, "On the complexity of detecting hazards"):

* A **ternary point** ``x ∈ {0, 1, X}ⁿ`` models a moment where the
  ``X``-inputs are unstable.  A circuit ``C`` has a *hazard* at ``x``
  iff Kleene evaluation gives ``C(x) = X`` while the boolean function
  ``f`` it implements is constant on every resolution of ``x`` — i.e.
  the hazard-free extension has a definite value the gates fail to
  produce.
* The **hazard derivative** of ``C`` at base point ``a`` in direction
  ``b`` (a set of unstable inputs) is computed by the chain rule
  (:func:`derivative_gates`): each wire carries a pair ``(value, dv)``
  where ``value`` is the binary evaluation at ``a`` and ``dv = 1``
  means the wire can be unstable.  The chain rule is *exactly* Kleene
  evaluation in pair form — :func:`derivative_gates` and
  :meth:`~repro.detect.netlist.Netlist.eval_gates_ternary` agree wire
  for wire, which the differential suite asserts — so a hazard at ``x``
  is precisely "chain-rule derivative 1 but true derivative 0".

The *true* derivative needs function knowledge: :func:`stable_value`
answers "is ``f`` constant on the cube of resolutions of ``x``?" from
ON/OFF covers via cofactor + tautology (exact, no enumeration), with
:func:`stable_value_brute` as the small-n oracle.  :func:`stable_rows`
is the same answer on integer rows (the covers' ``inbits``) and a point
encoded as masks — the form the detector runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cubes.cube import Cube, LITERAL_ONE, LITERAL_ZERO, mask01
from repro.cubes.cover import Cover
from repro.espresso.tautology import tautology, tautology_rows
from repro.detect.netlist import Netlist

#: A ternary vector: entries 0, 1, or None (= X, unstable).
TernaryPoint = Tuple[Optional[int], ...]


def point_cube(point: Sequence[Optional[int]]) -> Cube:
    """The cube of resolutions of a ternary point (X ↦ don't-care)."""
    cube = Cube.from_string("-" * len(point)) if point else Cube(0, 0)
    for i, v in enumerate(point):
        if v is not None:
            cube = cube.with_literal(i, LITERAL_ONE if v else LITERAL_ZERO)
    return cube


def point_string(point: Sequence[Optional[int]]) -> str:
    """Render a ternary point as e.g. ``"1X0X"``."""
    return "".join("X" if v is None else str(v) for v in point)


def parse_point(text: str) -> TernaryPoint:
    """Inverse of :func:`point_string` (accepts ``x``, ``X``, ``-``)."""
    out: List[Optional[int]] = []
    for ch in text:
        if ch in "xX-":
            out.append(None)
        elif ch in "01":
            out.append(int(ch))
        else:
            raise ValueError(f"bad ternary digit {ch!r} in {text!r}")
    return tuple(out)


def stable_value(
    point: Sequence[Optional[int]], on: Cover, off: Cover, output: int = 0
) -> Optional[int]:
    """The hazard-free extension ``f̃(point)`` given ON/OFF covers.

    Returns 1 if ``f`` is 1 on every resolution, 0 if 0 on every
    resolution, and ``None`` when ``f`` genuinely varies (or leaves the
    specified domain) over the resolutions.
    """
    cube = point_cube(point)
    if tautology(on.restrict_to_output(output).cofactor(cube)):
        return 1
    if tautology(off.restrict_to_output(output).cofactor(cube)):
        return 0
    return None


def cofactor_rows(rows: Sequence[int], d: int, lift: int, m01: int) -> List[int]:
    """:meth:`Cover.cofactor` on integer rows: every row whose meet with
    ``d`` has no empty pair, raised by ``lift`` (``m01`` is
    :func:`~repro.cubes.cube.mask01` of the input count)."""
    out = []
    for r in rows:
        t = r & d
        if (t | t >> 1) & m01 == m01:
            out.append(r | lift)
    return out


def stable_rows(
    on_rows: Sequence[int],
    off_rows: Sequence[int],
    d: int,
    lift: int,
    n_inputs: int,
) -> Optional[int]:
    """:func:`stable_value` on one output's ON and OFF rows at one point.

    ``d`` is the input part of the point's cube (``X`` ↦ ``11``, 0 ↦
    ``01``, 1 ↦ ``10``) and ``lift`` has ``11`` on every fixed pair, the
    pairs the cofactor raises back to don't-care.  ON is tried first,
    then OFF.
    """
    m01 = mask01(n_inputs)
    if tautology_rows(cofactor_rows(on_rows, d, lift, m01), n_inputs):
        return 1
    if tautology_rows(cofactor_rows(off_rows, d, lift, m01), n_inputs):
        return 0
    return None


def stable_value_brute(
    point: Sequence[Optional[int]], on: Cover, output: int = 0
) -> Optional[int]:
    """Enumeration oracle for :func:`stable_value` on fully specified
    functions (resolves every X both ways; exponential in the X count)."""
    values = set()
    for vec in point_cube(point).minterm_vectors():
        values.add(bool(on.evaluate(vec, output)))
        if len(values) == 2:
            return None
    return 1 if values.pop() else 0


def derivative_gates(
    netlist: Netlist,
    base: Sequence[int],
    unstable: Sequence[int],
) -> List[Tuple[int, int]]:
    """Hazard-derivative pairs ``(value, dv)`` for every gate.

    ``base`` is a binary input vector; ``unstable`` lists the input
    indices carrying derivative 1.  AND composes as
    ``dv = (da & db) | (da & vb) | (db & va)`` with ``v = va & vb`` —
    the chain rule of Ikenmeyer et al. — OR dually, NOT passes ``dv``
    through.
    """
    netlist._check_inputs(base)
    unstable_set = set(unstable)
    pairs: List[Tuple[int, int]] = []
    for i, g in enumerate(netlist.gates):
        if g.op == "input":
            pairs.append((1 if base[i] else 0, 1 if i in unstable_set else 0))
        elif g.op == "const0":
            pairs.append((0, 0))
        elif g.op == "const1":
            pairs.append((1, 0))
        elif g.op == "not":
            v, d = pairs[g.fanin[0]]
            pairs.append((1 - v, d))
        elif g.op == "and":
            v, d = 1, 0
            for f in g.fanin:
                vf, df = pairs[f]
                d = (d & df) | (d & vf) | (df & v)
                v = v & vf
            pairs.append((v, d))
        else:  # or
            v, d = 0, 0
            for f in g.fanin:
                vf, df = pairs[f]
                d = (d & df) | (d & (1 - vf)) | (df & (1 - v))
                v = v | vf
            pairs.append((v, d))
    return pairs


def derivative_point(
    base: Sequence[int], unstable: Sequence[int]
) -> TernaryPoint:
    """The ternary point matching a (base, unstable-set) derivative query."""
    unstable_set = set(unstable)
    return tuple(
        None if i in unstable_set else (1 if v else 0)
        for i, v in enumerate(base)
    )
