"""The gate-level netlist IR: multi-level AND/OR/NOT networks.

One IR serves every gate-level consumer.  Detection (ROADMAP item 1)
must accept *foreign* circuits — arbitrary DeMorgan netlists — and the
two-level simulators (:mod:`repro.simulate`) run on the canonical
realization of a cover that :meth:`Netlist.from_cover` builds.  The IR is
a flat list of gates in topological order, binary and ternary (Kleene)
evaluation over that order, and conversions to and from covers.

Design notes
------------

* Gates are stored in one topologically sorted list; the first
  ``n_inputs`` entries are ``input`` gates.  Fan-in edges point strictly
  backwards, which the constructor enforces, so evaluation is a single
  forward sweep — no recursion, no cycle checks at runtime.
* Ternary evaluation uses the same encoding as
  :mod:`repro.simulate.ternary`: ``None`` is the unstable value ``X``; an
  AND with a controlling 0 is 0 and an OR with a controlling 1 is 1 even
  when other fan-ins are ``X``.
* :meth:`Netlist.eval_dual_rail` is the same Kleene evaluation for any
  number of points at once, over one output's fan-in cone: each wire
  carries a can-be-1 and a can-be-0 point mask (``X`` sets both).
  :meth:`Netlist.eval_dual_rail_all` runs the same sweep once over the
  fan-in of every output.  The detector runs both;
  :meth:`Netlist.eval_gates_ternary` stays the per-point oracle and
  produces the witness traces.
* Each output's fan-in is walked once and cached: the same walk gives
  the cone the sweep runs and the inputs :meth:`Netlist.support` reports.
* ``from_cover`` builds the canonical two-level realization (shared NOT
  gates on complemented inputs, one AND per distinct product, one OR per
  output).  :meth:`Netlist.products` is the one decoder of that shape:
  the simulators read an output's products through it, and ``as_cover``
  inverts ``from_cover`` through it for any netlist that still has the
  shape — the bridge that lets two-level oracles (Theorem 2.11, the
  Monte-Carlo simulator) judge netlist-level mutations.

Malformed netlists raise :class:`NetlistError`, a
:class:`~repro.guard.errors.MalformedInstance`, so the CLI exit-code
taxonomy (exit 4) applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cubes.cube import (
    Cube,
    LITERAL_DC,
    LITERAL_ONE,
    LITERAL_ZERO,
)
from repro.cubes.cover import Cover
from repro.guard.errors import MalformedInstance

#: Gate operators.  ``input`` gates have no fan-in; ``const0``/``const1``
#: are nullary constants (needed for empty and tautological covers);
#: ``not`` is unary; ``and``/``or`` take one or more fan-ins.
OPS = ("input", "and", "or", "not", "const0", "const1")

_NULLARY = ("input", "const0", "const1")


#: One product of a two-level output: ``(input index, phase)`` literals,
#: phase 1 = positive.
Product = Tuple[Tuple[int, int], ...]

#: The logic gates of a fan-in cone in topological order, as
#: ``(index, op, fanin)``.
Cone = Tuple[Tuple[int, str, Tuple[int, ...]], ...]


class NetlistError(MalformedInstance):
    """A structurally invalid netlist (bad fan-in, arity, name, ...)."""


@dataclass(frozen=True)
class Gate:
    """One gate: a name, an operator, and fan-in gate indices."""

    name: str
    op: str
    fanin: Tuple[int, ...] = ()

    def arity_ok(self) -> bool:
        if self.op in _NULLARY:
            return not self.fanin
        if self.op == "not":
            return len(self.fanin) == 1
        if self.op in ("and", "or"):
            return len(self.fanin) >= 1
        return False


class Netlist:
    """An AND/OR/NOT netlist in topological order.

    Parameters
    ----------
    n_inputs:
        Number of primary inputs; ``gates[:n_inputs]`` must be ``input``
        gates.
    gates:
        All gates, inputs first, each fan-in index strictly smaller than
        the gate's own index.
    outputs:
        Gate indices driving the primary outputs (repeats allowed).
    name:
        Diagnostic name used in error messages and reports.
    """

    __slots__ = (
        "name", "n_inputs", "gates", "outputs", "_depths", "_cones",
        "_products",
    )

    def __init__(
        self,
        n_inputs: int,
        gates: Sequence[Gate],
        outputs: Sequence[int],
        name: str = "netlist",
    ):
        gates = tuple(gates)
        outputs = tuple(outputs)
        if n_inputs < 0 or n_inputs > len(gates):
            raise NetlistError(
                f"{name}: n_inputs {n_inputs} out of range for "
                f"{len(gates)} gates"
            )
        index: Dict[str, int] = {}
        for i, g in enumerate(gates):
            if g.op not in OPS:
                raise NetlistError(
                    f"{name}: gate {i} ({g.name!r}): unknown op {g.op!r}"
                )
            if (g.op == "input") != (i < n_inputs):
                raise NetlistError(
                    f"{name}: gate {i} ({g.name!r}): input gates must be "
                    f"exactly the first {n_inputs} gates"
                )
            if not g.arity_ok():
                raise NetlistError(
                    f"{name}: gate {i} ({g.name!r}): op {g.op!r} cannot "
                    f"take {len(g.fanin)} fan-ins"
                )
            for f in g.fanin:
                if not (0 <= f < i):
                    raise NetlistError(
                        f"{name}: gate {i} ({g.name!r}): fan-in {f} is not "
                        f"an earlier gate (netlists must be topological)"
                    )
            if g.name in index:
                raise NetlistError(
                    f"{name}: duplicate gate name {g.name!r} "
                    f"(gates {index[g.name]} and {i})"
                )
            index[g.name] = i
        if not outputs:
            raise NetlistError(f"{name}: netlist has no outputs")
        for o in outputs:
            if not (0 <= o < len(gates)):
                raise NetlistError(
                    f"{name}: output index {o} out of range"
                )
        self.name = name
        self.n_inputs = n_inputs
        self.gates = gates
        self.outputs = outputs
        self._depths: Optional[Tuple[int, ...]] = None
        self._cones: Dict[Optional[int], Tuple[FrozenSet[int], Cone]] = {}
        self._products: Dict[int, Tuple[Product, ...]] = {}

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_gates(self) -> int:
        """Logic gates (everything that is not a primary input)."""
        return len(self.gates) - self.n_inputs

    @property
    def num_literals(self) -> int:
        """Total fan-in edge count over logic gates."""
        return sum(len(g.fanin) for g in self.gates)

    def gate_depths(self) -> Tuple[int, ...]:
        """Depth of every gate (inputs and constants are depth 0)."""
        if self._depths is None:
            depths: List[int] = []
            for g in self.gates:
                if g.op in _NULLARY:
                    depths.append(0)
                else:
                    depths.append(1 + max(depths[f] for f in g.fanin))
            self._depths = tuple(depths)
        return self._depths

    @property
    def depth(self) -> int:
        depths = self.gate_depths()
        return max(depths[o] for o in self.outputs)

    def support(self, output: int) -> FrozenSet[int]:
        """Primary inputs in the cone of ``outputs[output]``."""
        return self._fanin(output)[0]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _check_inputs(self, inputs: Sequence) -> None:
        if len(inputs) != self.n_inputs:
            raise NetlistError(
                f"{self.name}: expected {self.n_inputs} input values, "
                f"got {len(inputs)}"
            )

    def eval_gates(self, inputs: Sequence[int]) -> List[int]:
        """Binary evaluation; returns the value of every gate."""
        self._check_inputs(inputs)
        values: List[int] = []
        for i, g in enumerate(self.gates):
            if g.op == "input":
                values.append(1 if inputs[i] else 0)
            elif g.op == "const0":
                values.append(0)
            elif g.op == "const1":
                values.append(1)
            elif g.op == "not":
                values.append(1 - values[g.fanin[0]])
            elif g.op == "and":
                v = 1
                for f in g.fanin:
                    v &= values[f]
                values.append(v)
            else:  # or
                v = 0
                for f in g.fanin:
                    v |= values[f]
                values.append(v)
        return values

    def evaluate(self, inputs: Sequence[int]) -> Tuple[int, ...]:
        values = self.eval_gates(inputs)
        return tuple(values[o] for o in self.outputs)

    def eval_gates_ternary(
        self, inputs: Sequence[Optional[int]]
    ) -> List[Optional[int]]:
        """Kleene ternary evaluation; ``None`` is the unstable value X."""
        self._check_inputs(inputs)
        values: List[Optional[int]] = []
        for i, g in enumerate(self.gates):
            if g.op == "input":
                x = inputs[i]
                values.append(None if x is None else (1 if x else 0))
            elif g.op == "const0":
                values.append(0)
            elif g.op == "const1":
                values.append(1)
            elif g.op == "not":
                x = values[g.fanin[0]]
                values.append(None if x is None else 1 - x)
            elif g.op == "and":
                v: Optional[int] = 1
                for f in g.fanin:
                    x = values[f]
                    if x == 0:
                        v = 0
                        break
                    if x is None:
                        v = None
                values.append(v)
            else:  # or
                v = 0
                for f in g.fanin:
                    x = values[f]
                    if x == 1:
                        v = 1
                        break
                    if x is None:
                        v = None
                values.append(v)
        return values

    def evaluate_ternary(
        self, inputs: Sequence[Optional[int]]
    ) -> Tuple[Optional[int], ...]:
        values = self.eval_gates_ternary(inputs)
        return tuple(values[o] for o in self.outputs)

    def eval_dual_rail(
        self, output: int, can1: Sequence[int], can0: Sequence[int], width: int
    ) -> Tuple[int, int]:
        """Kleene evaluation of one output at ``width`` points in one sweep.

        Bit ``p`` of ``can1[i]`` (``can0[i]``) says primary input ``i`` can
        be 1 (0) at point ``p``: a stable input sets one rail, an ``X``
        input both.  Every wire of the output's fan-in cone carries the
        same pair of point masks: AND takes the AND of the can-be-1 masks
        and the OR of the can-be-0 masks, OR is the dual, NOT swaps them.
        Returns the output's ``(can1, can0)``; a point with both bits set
        is ``X`` — exactly :meth:`eval_gates_ternary` at that point.
        """
        one, zero = self._sweep(self._fanin(output)[1], can1, can0, width)
        root = self.outputs[output]
        return one[root], zero[root]

    def eval_dual_rail_all(
        self, can1: Sequence[int], can0: Sequence[int], width: int
    ) -> List[Tuple[int, int]]:
        """:meth:`eval_dual_rail` of every output from one sweep over the
        gates that feed any output; one ``(can1, can0)`` pair per output."""
        one, zero = self._sweep(self._fanin(None)[1], can1, can0, width)
        return [(one[o], zero[o]) for o in self.outputs]

    def _sweep(
        self, cone: Cone, can1: Sequence[int], can0: Sequence[int], width: int
    ) -> Tuple[List[int], List[int]]:
        self._check_inputs(can1)
        self._check_inputs(can0)
        every = (1 << width) - 1
        one = list(can1) + [0] * (len(self.gates) - self.n_inputs)
        zero = list(can0) + [0] * (len(self.gates) - self.n_inputs)
        for i, op, fanin in cone:
            if op == "and":
                a, b = every, 0
                for f in fanin:
                    a &= one[f]
                    b |= zero[f]
            elif op == "or":
                a, b = 0, every
                for f in fanin:
                    a |= one[f]
                    b &= zero[f]
            elif op == "not":
                a, b = zero[fanin[0]], one[fanin[0]]
            elif op == "const1":
                a, b = every, 0
            else:  # const0
                a, b = 0, every
            one[i] = a
            zero[i] = b
        return one, zero

    def _fanin(self, output: Optional[int]) -> Tuple[FrozenSet[int], Cone]:
        """The fan-in of ``outputs[output]`` (of every output for
        ``None``), walked once and cached: its primary inputs, and its
        logic gates in topological order as ``(index, op, fanin)``."""
        cached = self._cones.get(output)
        if cached is None:
            roots = self.outputs if output is None else (self.outputs[output],)
            seen = set(roots)
            stack = list(seen)
            while stack:
                for f in self.gates[stack.pop()].fanin:
                    if f not in seen:
                        seen.add(f)
                        stack.append(f)
            gates = self.gates
            cached = self._cones[output] = (
                frozenset(i for i in seen if gates[i].op == "input"),
                tuple(
                    (i, gates[i].op, gates[i].fanin)
                    for i in sorted(seen)
                    if gates[i].op != "input"
                ),
            )
        return cached

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_cover(cls, cover: Cover, name: str = "cover") -> "Netlist":
        """The canonical two-level AND-OR realization of a cover.

        Complemented literals go through shared NOT gates (one per input
        actually used complemented), mirroring the gate/wire structure the
        Monte-Carlo simulator assumes.  Tautological cubes become
        ``const1``; outputs with no cubes become ``const0``.  A cube whose
        width differs from the cover's (possible when ``Cover.cubes`` is
        rebuilt by hand) raises a line-numbered
        :class:`~repro.guard.errors.MalformedInstance`.
        """
        n = cover.n_inputs
        for row, c in enumerate(cover, start=1):
            if c.n_inputs != n:
                raise MalformedInstance(
                    f"cover cube {row}: {c.n_inputs} input literals do not "
                    f"fit a {n}-input cover"
                )
        gates: List[Gate] = [Gate(f"x{i}", "input") for i in range(n)]
        not_gate: Dict[int, int] = {}
        for c in cover:
            for i in range(n):
                if c.literal(i) == LITERAL_ZERO and i not in not_gate:
                    not_gate[i] = len(gates)
                    gates.append(Gate(f"x{i}_n", "not", (i,)))
        # One AND per distinct product (shared across outputs).
        and_gate: Dict[int, int] = {}
        products: List[Tuple[int, int]] = []  # (inbits, outbits-union)
        order: Dict[int, int] = {}
        for c in cover:
            if c.is_empty or c.outbits == 0:
                continue
            if c.inbits not in order:
                order[c.inbits] = len(products)
                products.append((c.inbits, c.outbits))
            else:
                k = order[c.inbits]
                products[k] = (c.inbits, products[k][1] | c.outbits)
        const1 = None
        for k, (inbits, _) in enumerate(products):
            cube = Cube(n, inbits, 1, 1)
            fanin: List[int] = []
            for i in range(n):
                lit = cube.literal(i)
                if lit == LITERAL_ONE:
                    fanin.append(i)
                elif lit == LITERAL_ZERO:
                    fanin.append(not_gate[i])
            if not fanin:
                if const1 is None:
                    const1 = len(gates)
                    gates.append(Gate("const1", "const1"))
                and_gate[inbits] = const1
            else:
                and_gate[inbits] = len(gates)
                gates.append(Gate(f"p{k}", "and", tuple(fanin)))
        const0 = None
        outputs: List[int] = []
        for j in range(cover.n_outputs):
            fanin = [
                and_gate[inbits]
                for inbits, outbits in products
                if (outbits >> j) & 1
            ]
            if not fanin:
                if const0 is None:
                    const0 = len(gates)
                    gates.append(Gate("const0", "const0"))
                outputs.append(const0)
            elif len(fanin) == 1:
                outputs.append(fanin[0])
            else:
                outputs.append(len(gates))
                gates.append(Gate(f"f{j}", "or", tuple(fanin)))
        return cls(n, gates, outputs, name=name)

    def products(self, output: int) -> Tuple[Product, ...]:
        """The products ORed into ``outputs[output]``, in fan-in order.

        The output must be two-level: a ``const``, an input literal
        (possibly through NOT gates), an AND of literals, or an OR of such
        terms.  ``const1`` is the empty product; ``const0`` contributes
        none.  Raises :class:`NetlistError` for genuinely multi-level
        netlists.
        """
        cached = self._products.get(output)
        if cached is not None:
            return cached
        root = self.outputs[output]
        terms = self.gates[root].fanin if self.gates[root].op == "or" else (root,)
        products: List[Product] = []
        for t in terms:
            g = self.gates[t]
            if g.op == "const1":
                products.append(())
            elif g.op == "and":
                products.append(tuple(self._literal(f) for f in g.fanin))
            elif g.op in ("input", "not"):
                products.append((self._literal(t),))
            elif g.op == "or":
                raise NetlistError(
                    f"{self.name}: nested OR under output {output}; "
                    "netlist is not two-level"
                )
        self._products[output] = result = tuple(products)
        return result

    def _literal(self, i: int) -> Tuple[int, int]:
        """Resolve gate ``i`` to ``(input index, phase)`` through NOTs."""
        phase = 1
        while self.gates[i].op == "not":
            phase = 1 - phase
            i = self.gates[i].fanin[0]
        if self.gates[i].op != "input":
            raise NetlistError(
                f"{self.name}: gate {self.gates[i].name!r} is not a "
                "literal; netlist is not two-level"
            )
        return i, phase

    def as_cover(self) -> Cover:
        """Invert :meth:`from_cover` for any two-level-shaped netlist.

        Reads every output through :meth:`products`, so it raises
        :class:`NetlistError` for genuinely multi-level netlists.  A
        product holding both phases of an input is empty and contributes
        nothing.
        """
        n, n_out = self.n_inputs, self.n_outputs
        by_inbits: Dict[int, int] = {}
        for j in range(n_out):
            for product in self.products(j):
                cube = Cube.full(n)
                for var, phase in product:
                    code = LITERAL_ONE if phase else LITERAL_ZERO
                    if cube.literal(var) not in (LITERAL_DC, code):
                        break  # x AND NOT x: empty product
                    cube = cube.with_literal(var, code)
                else:
                    by_inbits[cube.inbits] = by_inbits.get(cube.inbits, 0) | (1 << j)
        cover = Cover(n, n_outputs=n_out)
        for inbits in sorted(by_inbits):
            cover.append(Cube(n, inbits, by_inbits[inbits], n_out))
        return cover

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={self.n_inputs}, "
            f"gates={self.num_gates}, outputs={self.n_outputs}, "
            f"depth={self.depth})"
        )
