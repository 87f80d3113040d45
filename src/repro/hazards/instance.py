"""Hazard-free minimization problem instances.

A :class:`HazardFreeInstance` bundles a (possibly multi-output) Boolean
function — given as ON and OFF covers; everything else is don't-care — with
a set of specified multiple-input-change transitions.  From it we derive the
three objects every algorithm in the library consumes (paper §3.1):

* the set ``Q`` of required cubes (with their output index),
* the set ``P`` of privileged cubes with their start points,
* the OFF-set ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover, CoverColumns
from repro.guard.errors import MalformedInstance
from repro.hazards.transitions import Transition, TransitionEntry, TransitionKind
from repro.hazards.required import subcubes_from_blockers


@dataclass(frozen=True)
class RequiredCube:
    """A cube that must be contained in a single cube of any hazard-free cover.

    ``cube`` is the input part (single-output encoding); ``output`` the index
    of the output function it belongs to; ``transition`` the specified
    transition it was derived from (for diagnostics).
    """

    cube: Cube
    output: int
    transition: Optional[Transition] = None

    def __str__(self) -> str:
        return f"req[{self.cube.input_string()} @out{self.output}]"


@dataclass(frozen=True)
class PrivilegedCube:
    """A 1→0 transition cube: intersecting it without covering its start
    point makes an implicant hazardous (Definition 2.10)."""

    cube: Cube
    start: Cube  # minterm cube of the transition's start point
    output: int
    transition: Optional[Transition] = None

    def __str__(self) -> str:
        return (
            f"priv[{self.cube.input_string()} start={self.start.input_string()}"
            f" @out{self.output}]"
        )


class InstanceError(MalformedInstance):
    """Raised when an instance violates the model's preconditions.

    Part of the :class:`~repro.guard.errors.MalformedInstance` family (still
    a ``ValueError``), so the CLI reports it as a user-input error (exit 4).
    """


class HazardFreeInstance:
    """A function plus specified transitions, ready for minimization.

    Parameters
    ----------
    on, off:
        Multi-output covers of the ON and OFF sets.  Points in neither cover
        are don't-cares; a specified transition cube must be fully defined
        (every point ON or OFF for every output).
    transitions:
        The specified multiple-input changes (shared by all outputs).
    validate:
        When true (default) the constructor checks well-formedness:
        ON/OFF disjointness, full definedness on transition cubes, and
        function-hazard freedom of every (transition, output) pair.
    """

    def __init__(
        self,
        on: Cover,
        off: Cover,
        transitions: Sequence[Transition],
        name: str = "instance",
        validate: bool = True,
    ):
        if on.n_inputs != off.n_inputs or on.n_outputs != off.n_outputs:
            raise InstanceError("ON and OFF covers must share a shape")
        self.on = on
        self.off = off
        self.transitions = list(transitions)
        self.name = name
        self.n_inputs = on.n_inputs
        self.n_outputs = on.n_outputs
        # Single-output ON/OFF covers per output, split on first use.
        self._on_by_output: Optional[List[Cover]] = None
        self._off_by_output: Optional[List[Cover]] = None
        # The transition table: one TransitionEntry per distinct transition,
        # built on first use and shared by validation, kinds and derivation.
        self._table: Dict[Transition, TransitionEntry] = {}
        self._required: Optional[List[RequiredCube]] = None
        self._privileged: Optional[List[PrivilegedCube]] = None
        if validate:
            self.validate()

    # The ON and OFF covers transposed into bitsets, shared by the
    # transition table, the disjointness check and the verifier.  Built on
    # first use: an instance that is only canonicalized never reads them.

    @cached_property
    def on_columns(self) -> CoverColumns:
        return self.on.columns()

    @cached_property
    def off_columns(self) -> CoverColumns:
        return self.off.columns()

    # ------------------------------------------------------------------
    # Function access
    # ------------------------------------------------------------------

    def on_for_output(self, j: int) -> Cover:
        """Single-output ON cover of output ``j``."""
        if self._on_by_output is None:
            self._on_by_output = self.on.split_outputs()
        return self._on_by_output[j]

    def off_for_output(self, j: int) -> Cover:
        """Single-output OFF cover of output ``j``."""
        if self._off_by_output is None:
            self._off_by_output = self.off.split_outputs()
        return self._off_by_output[j]

    def value(self, vec: Sequence[int], j: int) -> Optional[bool]:
        """Output ``j``'s value on an input vector (None = don't-care)."""
        if self.on_for_output(j).evaluate(vec):
            return True
        if self.off_for_output(j).evaluate(vec):
            return False
        return None

    def _entry(self, transition: Transition) -> TransitionEntry:
        """The transition table's row for ``transition`` (built once)."""
        entry = self._table.get(transition)
        if entry is None:
            if len(transition.start) != self.n_inputs:
                raise InstanceError(f"transition {transition} has wrong width")
            entry = TransitionEntry(transition, self.on_columns, self.off_columns)
            self._table[transition] = entry
        return entry

    def kind(self, transition: Transition, j: int) -> TransitionKind:
        """The transition type of output ``j`` over ``transition``."""
        kind = self._entry(transition).kind(j)
        if kind is None:
            raise InstanceError(
                f"transition {transition} endpoint undefined for output {j}"
            )
        return kind

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the preconditions of the hazard-free minimization model."""
        self._check_disjoint()
        outputs = (1 << self.n_outputs) - 1
        for t in self.transitions:
            entry = self._entry(t)
            undefined = entry.undefined_outputs(outputs)
            hazards = entry.hazard_outputs(entry.on_start, entry.on_end)
            for j in range(self.n_outputs):
                if (undefined >> j) & 1:
                    raise InstanceError(
                        f"function not fully defined on {t} for output {j}"
                    )
                if (hazards >> j) & 1:
                    raise InstanceError(
                        f"transition {t} has a function hazard on output {j}"
                    )

    def _check_disjoint(self) -> None:
        """ON ∩ OFF = ∅ for every output, reporting the first intersecting
        pair (in cover order) of the lowest such output."""
        on, off = self.on_columns, self.off_columns
        for j in range(self.n_outputs):
            off_j = off.by_output[j]
            rows = on.by_output[j] if off_j else 0
            while rows:
                low = rows & -rows
                rows ^= low
                c = on.cubes[low.bit_length() - 1]
                hit = off.meeting(c.inbits) & off_j
                if hit:
                    o = off.cubes[(hit & -hit).bit_length() - 1]
                    raise InstanceError(
                        f"ON and OFF sets of output {j} intersect: "
                        f"{c.input_string()} ∩ {o.input_string()}"
                    )

    # ------------------------------------------------------------------
    # Derived sets (memoized)
    # ------------------------------------------------------------------

    def required_cubes(self) -> List[RequiredCube]:
        """The set ``Q`` of required cubes over all outputs (Definition 2.9)."""
        if self._required is None:
            required: List[RequiredCube] = []
            seen = set()
            for t in self.transitions:
                entry = self._entry(t)
                for j in range(self.n_outputs):
                    kind = self.kind(t, j)
                    if kind is TransitionKind.STATIC_ONE:
                        cubes = [t.cube]
                    elif kind is TransitionKind.FALLING:
                        cubes = subcubes_from_blockers(
                            self.n_inputs,
                            entry.start,
                            entry.changing,
                            entry.blockers(j, True),
                        )
                    elif kind is TransitionKind.RISING:
                        cubes = subcubes_from_blockers(
                            self.n_inputs,
                            entry.end,
                            entry.changing,
                            entry.blockers(j, False),
                        )
                    else:
                        continue
                    for c in cubes:
                        key = (c.inbits, j)
                        if key not in seen:
                            seen.add(key)
                            required.append(RequiredCube(c, j, t))
            self._required = required
        return list(self._required)

    def privileged_cubes(self) -> List[PrivilegedCube]:
        """The set ``P`` of privileged cubes over all outputs (Definition 2.10)."""
        if self._privileged is None:
            privileged: List[PrivilegedCube] = []
            seen = set()
            for t in self.transitions:
                entry = self._entry(t)
                for j in range(self.n_outputs):
                    kind = self.kind(t, j)
                    if kind is TransitionKind.FALLING:
                        norm, start = t, entry.start
                    elif kind is TransitionKind.RISING:
                        norm, start = t.reversed(), entry.end
                    else:
                        continue
                    key = (entry.cube, start, j)
                    if key not in seen:
                        seen.add(key)
                        privileged.append(
                            PrivilegedCube(
                                t.cube, Cube(self.n_inputs, start), j, norm
                            )
                        )
            self._privileged = privileged
        return list(self._privileged)

    def privileged_for_output(self, j: int) -> List[PrivilegedCube]:
        """Privileged cubes restricted to output ``j``."""
        return [p for p in self.privileged_cubes() if p.output == j]

    def required_for_output(self, j: int) -> List[RequiredCube]:
        """Required cubes restricted to output ``j``."""
        return [q for q in self.required_cubes() if q.output == j]

    # ------------------------------------------------------------------

    def restrict_to_output(self, j: int) -> "HazardFreeInstance":
        """A single-output instance for output ``j`` (shared transitions)."""
        inst = HazardFreeInstance(
            self.on_for_output(j),
            self.off_for_output(j),
            self.transitions,
            name=f"{self.name}.out{j}",
            validate=False,
        )
        return inst

    def __repr__(self) -> str:
        return (
            f"HazardFreeInstance({self.name}: {self.n_inputs} in / "
            f"{self.n_outputs} out, {len(self.transitions)} transitions)"
        )
