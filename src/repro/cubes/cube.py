"""Immutable cube in positional-cube notation (bitmask encoded).

A :class:`Cube` is a product term over ``n_inputs`` binary input variables
and ``n_outputs`` outputs.  The input part is a Python integer holding two
bits per variable; the output part holds one bit per output function (the
cube is part of output ``j``'s cover iff output bit ``j`` is set).

Literal codes (two bits, low bit = "admits 0", high bit = "admits 1"):

====== =========== ==========================
code   name        meaning for variable ``x``
====== =========== ==========================
``00`` EMPTY       cube denotes the empty set
``01`` ZERO        literal ``x'`` (x must be 0)
``10`` ONE         literal ``x``  (x must be 1)
``11`` DC          ``x`` unconstrained
====== =========== ==========================
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro._compat import popcount

LITERAL_EMPTY = 0
LITERAL_ZERO = 1
LITERAL_ONE = 2
LITERAL_DC = 3

_LITERAL_CHARS = {"0": LITERAL_ZERO, "1": LITERAL_ONE, "-": LITERAL_DC, "2": LITERAL_DC, "~": LITERAL_EMPTY}
_CHAR_OF_LITERAL = {LITERAL_EMPTY: "~", LITERAL_ZERO: "0", LITERAL_ONE: "1", LITERAL_DC: "-"}


@lru_cache(maxsize=None)
def mask01(n_inputs: int) -> int:
    """Bitmask ``0b...0101`` with the low bit of each of ``n_inputs`` pairs set."""
    mask = 0
    for i in range(n_inputs):
        mask |= 1 << (2 * i)
    return mask


@lru_cache(maxsize=None)
def full_input_mask(n_inputs: int) -> int:
    """Bitmask with all ``2 * n_inputs`` bits set (the universal input part)."""
    return (1 << (2 * n_inputs)) - 1


def empty_pairs(inbits: int, n_inputs: int) -> int:
    """Mask (on the low bit of each pair) of variables whose literal is EMPTY."""
    return ~(inbits | (inbits >> 1)) & mask01(n_inputs)


def dc_pairs(inbits: int, n_inputs: int) -> int:
    """Mask (on the low bit of each pair) of variables whose literal is DC."""
    return inbits & (inbits >> 1) & mask01(n_inputs)


def minterm_bits(values: Sequence[int]) -> int:
    """Input part of the minterm cube of a 0/1 vector (one bit per pair)."""
    bits = 0
    for i, v in enumerate(values):
        bits |= (LITERAL_ONE if v else LITERAL_ZERO) << (2 * i)
    return bits


class Cube:
    """An immutable product term (cube) over inputs and outputs.

    Cubes are hashable and totally ordered (lexicographically on their
    encoding) so that covers can be sorted and deduplicated deterministically.
    """

    __slots__ = ("n_inputs", "n_outputs", "inbits", "outbits", "_hash")

    def __init__(self, n_inputs: int, inbits: int, outbits: int = 1, n_outputs: int = 1):
        if n_inputs < 0:
            raise ValueError("n_inputs must be >= 0")
        if n_outputs < 1:
            raise ValueError("n_outputs must be >= 1")
        if inbits < 0 or inbits > full_input_mask(n_inputs):
            raise ValueError(f"inbits 0x{inbits:x} out of range for {n_inputs} inputs")
        if outbits < 0 or outbits >= (1 << n_outputs):
            raise ValueError(f"outbits 0x{outbits:x} out of range for {n_outputs} outputs")
        object.__setattr__(self, "n_inputs", n_inputs)
        object.__setattr__(self, "n_outputs", n_outputs)
        object.__setattr__(self, "inbits", inbits)
        object.__setattr__(self, "outbits", outbits)
        object.__setattr__(self, "_hash", hash((n_inputs, n_outputs, inbits, outbits)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Cube is immutable")

    def __reduce__(self):
        # Rebuild through the constructor: the default slot-state restore
        # would go through the __setattr__ above.
        return (type(self), (self.n_inputs, self.inbits, self.outbits, self.n_outputs))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def full(cls, n_inputs: int, n_outputs: int = 1) -> "Cube":
        """The universal cube (all inputs don't-care, all outputs set)."""
        return cls(n_inputs, full_input_mask(n_inputs), (1 << n_outputs) - 1, n_outputs)

    @classmethod
    def from_string(cls, text: str, outputs: Optional[str] = None, n_outputs: Optional[int] = None) -> "Cube":
        """Parse a cube from PLA-style text, e.g. ``Cube.from_string("10-1", "01")``.

        ``text`` uses ``0``, ``1``, ``-`` (input literals); ``outputs`` uses
        ``0``/``1`` per output (default: a single output set to 1).
        """
        text = text.strip()
        inbits = 0
        for i, ch in enumerate(text):
            if ch not in _LITERAL_CHARS:
                raise ValueError(f"bad literal character {ch!r} in {text!r}")
            inbits |= _LITERAL_CHARS[ch] << (2 * i)
        if outputs is None:
            n_out = n_outputs if n_outputs is not None else 1
            outbits = (1 << n_out) - 1 if n_outputs is not None else 1
        else:
            outputs = outputs.strip()
            n_out = len(outputs)
            outbits = 0
            for j, ch in enumerate(outputs):
                if ch == "1" or ch == "4":
                    outbits |= 1 << j
                elif ch not in "0~":
                    raise ValueError(f"bad output character {ch!r} in {outputs!r}")
        return cls(len(text), inbits, outbits, n_out)

    @classmethod
    def from_literals(cls, literals: Sequence[int], outbits: int = 1, n_outputs: int = 1) -> "Cube":
        """Build a cube from a sequence of literal codes (0..3 per variable)."""
        inbits = 0
        for i, lit in enumerate(literals):
            if not 0 <= lit <= 3:
                raise ValueError(f"literal code {lit} out of range")
            inbits |= lit << (2 * i)
        return cls(len(literals), inbits, outbits, n_outputs)

    @classmethod
    def minterm(cls, values: Sequence[int], outbits: int = 1, n_outputs: int = 1) -> "Cube":
        """Build the minterm cube for a 0/1 input vector."""
        return cls(len(values), minterm_bits(values), outbits, n_outputs)

    @classmethod
    def from_index(cls, n_inputs: int, index: int, outbits: int = 1, n_outputs: int = 1) -> "Cube":
        """Build the minterm cube whose input vector is the binary expansion of ``index``.

        Bit ``i`` of ``index`` is the value of input variable ``i``.
        """
        inbits = 0
        for i in range(n_inputs):
            inbits |= (LITERAL_ONE if (index >> i) & 1 else LITERAL_ZERO) << (2 * i)
        return cls(n_inputs, inbits, outbits, n_outputs)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def literal(self, i: int) -> int:
        """The two-bit literal code of input variable ``i``."""
        return (self.inbits >> (2 * i)) & 3

    def literals(self) -> Tuple[int, ...]:
        """Tuple of all literal codes, variable 0 first."""
        return tuple(self.literal(i) for i in range(self.n_inputs))

    def with_literal(self, i: int, code: int) -> "Cube":
        """A copy of this cube with variable ``i``'s literal replaced by ``code``."""
        if not 0 <= code <= 3:
            raise ValueError(f"literal code {code} out of range")
        cleared = self.inbits & ~(3 << (2 * i))
        return Cube(self.n_inputs, cleared | (code << (2 * i)), self.outbits, self.n_outputs)

    def with_outputs(self, outbits: int) -> "Cube":
        """A copy of this cube with a different output part."""
        return Cube(self.n_inputs, self.inbits, outbits, self.n_outputs)

    def restrict_to_output(self, j: int) -> "Cube":
        """This cube as a single-output cube for output ``j`` (output part = 1)."""
        if not (self.outbits >> j) & 1:
            raise ValueError(f"cube does not belong to output {j}")
        return Cube(self.n_inputs, self.inbits, 1, 1)

    def has_output(self, j: int) -> bool:
        """True iff this cube participates in output ``j``."""
        return bool((self.outbits >> j) & 1)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True iff the cube denotes the empty set (some EMPTY literal or no outputs)."""
        if self.outbits == 0:
            return True
        return empty_pairs(self.inbits, self.n_inputs) != 0

    @property
    def is_minterm(self) -> bool:
        """True iff every input literal is fully specified (no DC, no EMPTY)."""
        return (
            empty_pairs(self.inbits, self.n_inputs) == 0
            and dc_pairs(self.inbits, self.n_inputs) == 0
        )

    def contains(self, other: "Cube") -> bool:
        """True iff ``other``'s set of (minterm, output) points is a subset of ours."""
        self._check_shape(other)
        return (other.inbits & self.inbits) == other.inbits and (other.outbits & self.outbits) == other.outbits

    def contains_input(self, other: "Cube") -> bool:
        """Containment on the input part only (ignores outputs)."""
        return (other.inbits & self.inbits) == other.inbits

    def intersects(self, other: "Cube") -> bool:
        """True iff the two cubes share at least one (minterm, output) point."""
        self._check_shape(other)
        if (self.outbits & other.outbits) == 0:
            return False
        meet = self.inbits & other.inbits
        return empty_pairs(meet, self.n_inputs) == 0

    def intersects_input(self, other: "Cube") -> bool:
        """Input-part intersection test (ignores outputs)."""
        meet = self.inbits & other.inbits
        return empty_pairs(meet, self.n_inputs) == 0

    def contains_minterm(self, values: Sequence[int]) -> bool:
        """True iff the 0/1 input vector lies inside this cube's input part."""
        bits = minterm_bits(values)
        return (self.inbits & bits) == bits

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def intersect(self, other: "Cube") -> "Cube":
        """The cube denoting the intersection (may be empty)."""
        self._check_shape(other)
        return Cube(self.n_inputs, self.inbits & other.inbits, self.outbits & other.outbits, self.n_outputs)

    def supercube(self, other: "Cube") -> "Cube":
        """The smallest cube containing both cubes."""
        self._check_shape(other)
        return Cube(self.n_inputs, self.inbits | other.inbits, self.outbits | other.outbits, self.n_outputs)

    def distance(self, other: "Cube") -> int:
        """Number of input variables on which the cubes conflict.

        Two cubes intersect (on the input part) iff their distance is 0.  The
        output part contributes one extra unit when the output sets are
        disjoint, matching Espresso's multi-output distance.
        """
        self._check_shape(other)
        meet = self.inbits & other.inbits
        dist = popcount(empty_pairs(meet, self.n_inputs))
        if self.n_outputs > 1 and (self.outbits & other.outbits) == 0:
            dist += 1
        return dist

    def input_distance(self, other: "Cube") -> int:
        """Number of conflicting input variables (output part ignored)."""
        meet = self.inbits & other.inbits
        return popcount(empty_pairs(meet, self.n_inputs))

    def conflict_vars(self, other: "Cube") -> Iterator[int]:
        """Indices of input variables on which the cubes conflict."""
        pairs = empty_pairs(self.inbits & other.inbits, self.n_inputs)
        while pairs:
            low = pairs & -pairs
            yield low.bit_length() // 2
            pairs ^= low

    def cofactor(self, other: "Cube") -> Optional["Cube"]:
        """The Shannon cofactor of this cube with respect to ``other``.

        Returns ``None`` when the cubes do not intersect.  Variables that
        ``other`` fixes become don't-cares in the result (standard cover
        cofactor: ``self`` restricted to the subspace selected by ``other``).
        """
        self._check_shape(other)
        outbits = self.outbits & other.outbits
        if outbits == 0 and self.n_outputs > 1:
            return None
        meet = self.inbits & other.inbits
        if empty_pairs(meet, self.n_inputs):
            return None
        # Raise every variable fixed by `other` back to don't-care.
        fixed = ~dc_pairs(other.inbits, self.n_inputs) & mask01(self.n_inputs)
        raise_mask = fixed | (fixed << 1)
        return Cube(self.n_inputs, self.inbits | raise_mask, outbits if self.n_outputs > 1 else self.outbits, self.n_outputs)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def num_literals(self) -> int:
        """Number of specified (non-DC) input literals, i.e. AND-gate fan-in."""
        return self.n_inputs - popcount(dc_pairs(self.inbits, self.n_inputs))

    def num_dc(self) -> int:
        """Number of don't-care input positions."""
        return popcount(dc_pairs(self.inbits, self.n_inputs))

    def num_minterms(self) -> int:
        """Number of input minterms the cube spans (per output)."""
        if self.is_empty:
            return 0
        return 1 << self.num_dc()

    def free_vars(self) -> Tuple[int, ...]:
        """Indices of don't-care input variables."""
        pairs = dc_pairs(self.inbits, self.n_inputs)
        out = []
        while pairs:
            low = pairs & -pairs
            out.append(low.bit_length() // 2)
            pairs ^= low
        return tuple(out)

    def fixed_vars(self) -> Tuple[int, ...]:
        """Indices of specified (non-DC) input variables."""
        dc = dc_pairs(self.inbits, self.n_inputs)
        fixed = ~dc & mask01(self.n_inputs)
        out = []
        while fixed:
            low = fixed & -fixed
            out.append(low.bit_length() // 2)
            fixed ^= low
        return tuple(out)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def minterm_vectors(self) -> Iterator[Tuple[int, ...]]:
        """Yield every 0/1 input vector inside this cube (small n only)."""
        if self.is_empty:
            return
        free = self.free_vars()
        base = [0] * self.n_inputs
        for i in range(self.n_inputs):
            if self.literal(i) == LITERAL_ONE:
                base[i] = 1
        for mask in range(1 << len(free)):
            vec = list(base)
            for k, var in enumerate(free):
                vec[var] = (mask >> k) & 1
            yield tuple(vec)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def _check_shape(self, other: "Cube") -> None:
        if self.n_inputs != other.n_inputs or self.n_outputs != other.n_outputs:
            raise ValueError(
                f"shape mismatch: ({self.n_inputs},{self.n_outputs}) vs ({other.n_inputs},{other.n_outputs})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return (
            self.n_inputs == other.n_inputs
            and self.n_outputs == other.n_outputs
            and self.inbits == other.inbits
            and self.outbits == other.outbits
        )

    def __lt__(self, other: "Cube") -> bool:
        return (self.inbits, self.outbits) < (other.inbits, other.outbits)

    def __hash__(self) -> int:
        return self._hash

    def input_string(self) -> str:
        """PLA-style input part, e.g. ``"10-1"``."""
        return "".join(_CHAR_OF_LITERAL[self.literal(i)] for i in range(self.n_inputs))

    def output_string(self) -> str:
        """PLA-style output part, e.g. ``"01"``."""
        return "".join("1" if (self.outbits >> j) & 1 else "0" for j in range(self.n_outputs))

    def __str__(self) -> str:
        if self.n_outputs == 1 and self.outbits == 1:
            return self.input_string()
        return f"{self.input_string()} {self.output_string()}"

    def __repr__(self) -> str:
        return f"Cube({self!s})"


def parse_cubes(lines: Iterable[str], n_outputs: int = 1) -> Tuple[Cube, ...]:
    """Parse whitespace-separated ``input output`` cube lines into cubes."""
    cubes = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            cubes.append(Cube.from_string(parts[0]))
        else:
            cubes.append(Cube.from_string(parts[0], parts[1]))
    return tuple(cubes)
