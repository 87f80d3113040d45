"""Covers: ordered collections of cubes over a shared shape."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cubes.cube import Cube, minterm_bits


class CoverColumns:
    """A cube list transposed into bitsets with one bit per cube (cover order).

    ``by_literal[i][code]`` holds the cubes whose literal ``i`` meets the
    literal ``code`` (0 = EMPTY meets nothing, 3 = DC meets every non-EMPTY
    literal); ``by_containing[i][code]`` the cubes whose literal ``i``
    contains ``code`` (0 = EMPTY is in every literal, 3 = DC only in DC);
    ``by_output[j]`` the cubes of output ``j``.  A meeting or containment
    test against every cube then costs one AND per input variable.
    """

    __slots__ = ("cubes", "by_literal", "by_containing", "by_output")

    def __init__(self, cubes: Sequence[Cube], n_inputs: int, n_outputs: int):
        self.cubes = cubes
        by_bit = _bit_columns([c.inbits for c in cubes], 2 * n_inputs)
        every = (1 << len(cubes)) - 1
        self.by_literal = []
        self.by_containing = []
        for zero, one in zip(by_bit[::2], by_bit[1::2]):
            self.by_literal.append((0, zero, one, zero | one))
            self.by_containing.append((every, zero, one, zero & one))
        self.by_output = _bit_columns([c.outbits for c in cubes], n_outputs)

    def meeting(self, inbits: int) -> int:
        """The cubes whose input part meets the input part ``inbits``."""
        found = (1 << len(self.cubes)) - 1
        for codes in self.by_literal:
            if not found:
                break
            found &= codes[inbits & 3]
            inbits >>= 2
        return found

    def raise_to_prime(self, inbits: int, rows: Optional[int] = None) -> int:
        """Raise the literals of ``inbits`` to DC in variable order, each
        while the raised cube meets none of the cubes ``rows`` (default:
        all): the greedy prime expansion against an OFF cover.  Raising
        ``i`` is legal iff the decided columns below ``i``, the DC column
        of ``i`` and the original columns above ``i`` AND to 0, so one
        sweep of O(n) ANDs gives the prime (a refused raise stays refused).
        """
        before = (1 << len(self.cubes)) - 1 if rows is None else rows
        suffix = [before]
        for i in reversed(range(len(self.by_literal))):
            suffix.append(suffix[-1] & self.by_literal[i][(inbits >> (2 * i)) & 3])
        for i, codes in enumerate(self.by_literal):
            code = (inbits >> (2 * i)) & 3
            if code != 3 and not (before & codes[3] & suffix[-2 - i]):
                inbits |= 3 << (2 * i)
                code = 3
            before &= codes[code]
        return inbits

    def containing(self, inbits: int) -> int:
        """The cubes whose input part contains the input part ``inbits``."""
        found = (1 << len(self.cubes)) - 1
        for codes in self.by_containing:
            if not found:
                break
            found &= codes[inbits & 3]
            inbits >>= 2
        return found


def _bit_columns(values: Sequence[int], width: int) -> List[int]:
    """Transpose: bit ``k`` of ``result[b]`` is bit ``b`` of ``values[k]``."""
    if not values or not width:
        return [0] * width
    text = "".join([format(v, f"0{width}b") for v in reversed(values)])
    return [int(text[width - 1 - b :: width], 2) for b in range(width)]


class Cover:
    """A sum-of-products cover: an ordered list of cubes of one shape.

    Covers are lightweight containers; the heavyweight algorithms (tautology,
    complement, minimization) live in :mod:`repro.espresso` and operate on
    covers.  A cover may be used as a set of implicants of a multi-output
    function: a cube belongs to output ``j``'s cover iff its output bit ``j``
    is set.
    """

    __slots__ = ("n_inputs", "n_outputs", "cubes")

    def __init__(self, n_inputs: int, cubes: Iterable[Cube] = (), n_outputs: int = 1):
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.cubes: List[Cube] = []
        for c in cubes:
            self.append(c)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_strings(cls, rows: Sequence[str], n_outputs: int = 1) -> "Cover":
        """Build a cover from PLA-style rows, e.g. ``["10-1 1", "0--- 1"]``.

        Rows may omit the output part for single-output covers.
        """
        cubes = []
        n_inputs = None
        for row in rows:
            parts = row.split()
            cube = (
                Cube.from_string(parts[0])
                if len(parts) == 1
                else Cube.from_string(parts[0], parts[1])
            )
            if n_inputs is None:
                n_inputs = cube.n_inputs
            cubes.append(cube)
        if n_inputs is None:
            raise ValueError("cannot infer shape from an empty row list")
        n_out = cubes[0].n_outputs
        return cls(n_inputs, cubes, n_out)

    def copy(self) -> "Cover":
        clone = Cover(self.n_inputs, (), self.n_outputs)
        clone.cubes = list(self.cubes)
        return clone

    def append(self, cube: Cube) -> None:
        if cube.n_inputs != self.n_inputs or cube.n_outputs != self.n_outputs:
            raise ValueError(
                f"cube shape ({cube.n_inputs},{cube.n_outputs}) does not match "
                f"cover shape ({self.n_inputs},{self.n_outputs})"
            )
        self.cubes.append(cube)

    def extend(self, cubes: Iterable[Cube]) -> None:
        for c in cubes:
            self.append(c)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __getitem__(self, idx):
        return self.cubes[idx]

    def __contains__(self, cube: Cube) -> bool:
        return cube in self.cubes

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return (
            self.n_inputs == other.n_inputs
            and self.n_outputs == other.n_outputs
            and sorted(self.cubes) == sorted(other.cubes)
        )

    # A Cover is mutated in place by append/extend, so hashing by content
    # would let a dict/set key change under the container.  Unhashable is
    # the honest contract; use ``key()`` for an explicit content snapshot.
    __hash__ = None

    def key(self) -> tuple:
        """Immutable content snapshot, usable as a dict/set key."""
        return (self.n_inputs, self.n_outputs, tuple(sorted(self.cubes)))

    @property
    def is_empty(self) -> bool:
        return not self.cubes

    def num_literals(self) -> int:
        """Total number of input literals over all cubes (PLA area proxy)."""
        return sum(c.num_literals() for c in self.cubes)

    def evaluate(self, values: Sequence[int], output: int = 0) -> bool:
        """Evaluate the cover's output ``output`` on a 0/1 input vector."""
        bits = minterm_bits(values)
        for c in self.cubes:
            if (c.outbits >> output) & 1 and (c.inbits & bits) == bits:
                return True
        return False

    def contains_cube(self, cube: Cube) -> bool:
        """True iff some single cube of the cover contains ``cube``."""
        return any(c.contains(cube) for c in self.cubes)

    def cubes_intersecting(self, cube: Cube) -> List[Cube]:
        """All cover cubes that intersect ``cube``."""
        return [c for c in self.cubes if c.intersects(cube)]

    def columns(self) -> CoverColumns:
        """The cover transposed into per-literal and per-output bitsets."""
        return CoverColumns(self.cubes, self.n_inputs, self.n_outputs)

    def restrict_to_output(self, j: int) -> "Cover":
        """The single-output cover of output ``j`` (cubes with bit ``j`` set)."""
        out = Cover(self.n_inputs, (), 1)
        for c in self.cubes:
            if c.has_output(j):
                out.append(Cube(self.n_inputs, c.inbits, 1, 1))
        return out

    def split_outputs(self) -> List["Cover"]:
        """``restrict_to_output(j)`` for every output ``j``, in one pass.

        A cube of several outputs yields one single-output cube, shared by
        their covers (cubes are immutable).
        """
        split = [Cover(self.n_inputs) for _ in range(self.n_outputs)]
        for c in self.cubes:
            single = Cube(self.n_inputs, c.inbits)
            outbits = c.outbits
            while outbits:
                low = outbits & -outbits
                split[low.bit_length() - 1].cubes.append(single)
                outbits ^= low
        return split

    # ------------------------------------------------------------------
    # Simple transforms
    # ------------------------------------------------------------------

    def without(self, cube: Cube) -> "Cover":
        """A copy of the cover with one occurrence of ``cube`` removed."""
        out = self.copy()
        out.cubes.remove(cube)
        return out

    def deduplicate(self) -> "Cover":
        """Remove exact duplicate cubes, preserving first-seen order."""
        seen = set()
        out = Cover(self.n_inputs, (), self.n_outputs)
        for c in self.cubes:
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    def drop_empty(self) -> "Cover":
        """Remove cubes that denote the empty set."""
        out = Cover(self.n_inputs, (), self.n_outputs)
        for c in self.cubes:
            if not c.is_empty:
                out.append(c)
        return out

    def sorted(self) -> "Cover":
        """A deterministically ordered copy (by cube encoding)."""
        out = Cover(self.n_inputs, (), self.n_outputs)
        out.cubes = sorted(self.cubes)
        return out

    def cofactor(self, cube: Cube) -> "Cover":
        """Shannon cofactor of the cover with respect to ``cube``."""
        out = Cover(self.n_inputs, (), self.n_outputs)
        for c in self.cubes:
            cf = c.cofactor(cube)
            if cf is not None:
                out.append(cf)
        return out

    # ------------------------------------------------------------------
    # Brute-force semantics (test oracles; exponential in n_inputs)
    # ------------------------------------------------------------------

    def on_set_vectors(self, output: int = 0) -> List[Tuple[int, ...]]:
        """All input vectors on which output ``output`` evaluates to 1."""
        import itertools

        return [
            vec
            for vec in itertools.product((0, 1), repeat=self.n_inputs)
            if self.evaluate(vec, output)
        ]

    def semantically_equal(self, other: "Cover") -> bool:
        """Exhaustive functional equality check (small ``n_inputs`` only)."""
        import itertools

        if self.n_inputs != other.n_inputs or self.n_outputs != other.n_outputs:
            return False
        for vec in itertools.product((0, 1), repeat=self.n_inputs):
            for j in range(self.n_outputs):
                if self.evaluate(vec, j) != other.evaluate(vec, j):
                    return False
        return True

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.cubes)

    def __repr__(self) -> str:
        return f"Cover(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, cubes={len(self.cubes)})"
