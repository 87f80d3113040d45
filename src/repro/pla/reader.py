"""Parser for Espresso-style PLA files with the ``.trans`` extension.

Supported directives: ``.i``, ``.o``, ``.p`` (ignored count), ``.ilb``,
``.ob``, ``.type`` (``f``, ``fr``, ``fd``, ``fdr``), ``.trans``, ``.e``.
Output-plane characters: ``1`` (ON), ``0`` (OFF under an ``r`` type, else
don't-care), ``-``/``~``/``2`` (don't-care), ``4`` (ON, Espresso legacy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.guard.errors import MalformedInstance
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition


class PlaError(MalformedInstance):
    """Raised on malformed PLA input.

    Subclasses :class:`~repro.guard.errors.MalformedInstance` (and thus
    ``ValueError``), so the CLI maps it to exit code 4.  Messages carry the
    1-based line number of the offending line whenever one exists.
    """


@dataclass
class PlaFile:
    """Parsed contents of a PLA file."""

    n_inputs: int
    n_outputs: int
    on: Cover
    off: Cover
    dc: Cover
    transitions: List[Transition] = field(default_factory=list)
    input_labels: Optional[List[str]] = None
    output_labels: Optional[List[str]] = None
    pla_type: str = "fr"
    name: str = "pla"

    def to_instance(self, validate: bool = True) -> HazardFreeInstance:
        """Build a hazard-free instance (requires an ``r`` type: OFF given)."""
        if "r" not in self.pla_type:
            raise PlaError(
                f"type '{self.pla_type}' has no OFF-set; a hazard-free "
                "instance needs .type fr (or fdr)"
            )
        return HazardFreeInstance(
            self.on, self.off, self.transitions, name=self.name, validate=validate
        )


#: input literal -> its two-bit code, high bit first (``0`` ZERO, ``1`` ONE,
#: ``-``/``2`` DC, ``~`` EMPTY)
_IN_BITS = str.maketrans({"0": "01", "1": "10", "-": "11", "2": "11", "~": "00"})
#: output character -> its bit in the ON, OFF and don't-care planes
_ON_BITS = str.maketrans("014-~2", "011000")
_OFF_BITS = str.maketrans("014-~2", "100000")
_DC_BITS = str.maketrans("014-~2", "000111")
#: deletion tables: what survives them is a bad character
_IN_VALID = str.maketrans("", "", "01-2~")
_OUT_VALID = str.maketrans("", "", "014-~2")


def read_pla(path: Union[str, Path]) -> PlaFile:
    """Read and parse a PLA file from disk."""
    text = Path(path).read_text()
    return parse_pla(text, name=Path(path).stem)


def parse_pla(text: str, name: str = "pla") -> PlaFile:
    """Parse PLA text into a :class:`PlaFile`."""
    n_inputs: Optional[int] = None
    n_outputs: Optional[int] = None
    pla_type = "fr"
    input_labels = None
    output_labels = None
    rows: List[Tuple[int, str, str]] = []
    transitions: List[Transition] = []

    def _count(parts: List[str], lineno: int) -> int:
        if len(parts) != 2:
            raise PlaError(f"line {lineno}: {parts[0]} needs one integer argument")
        try:
            value = int(parts[1])
        except ValueError:
            raise PlaError(
                f"line {lineno}: {parts[0]} argument {parts[1]!r} is not an integer"
            ) from None
        if value <= 0:
            raise PlaError(f"line {lineno}: {parts[0]} must be positive, got {value}")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key == ".i":
                n_inputs = _count(parts, lineno)
            elif key == ".o":
                n_outputs = _count(parts, lineno)
            elif key == ".p":
                pass  # informational product count
            elif key == ".ilb":
                input_labels = parts[1:]
            elif key == ".ob":
                output_labels = parts[1:]
            elif key == ".type":
                if len(parts) != 2:
                    raise PlaError(f"line {lineno}: .type needs an argument")
                pla_type = parts[1]
                if pla_type not in ("f", "fd", "fr", "fdr"):
                    raise PlaError(f"line {lineno}: unsupported .type {pla_type}")
            elif key == ".trans":
                if len(parts) != 3:
                    raise PlaError(f"line {lineno}: .trans needs START END")
                transitions.append(_parse_transition(parts[1], parts[2], lineno))
            elif key == ".e" or key == ".end":
                break
            else:
                raise PlaError(f"line {lineno}: unknown directive {key}")
        else:
            parts = line.split()
            if len(parts) == 1 and n_outputs == 1:
                # single-output shorthand: implicit output '1'
                parts = [parts[0], "1"]
            if len(parts) != 2:
                raise PlaError(f"line {lineno}: expected 'inputs outputs'")
            rows.append((lineno, parts[0], parts[1]))

    if n_inputs is None or n_outputs is None:
        if n_inputs is None and n_outputs is None and not rows and not transitions:
            raise PlaError(f"{name}: empty or truncated PLA (no .i/.o directive)")
        missing = ".i" if n_inputs is None else ".o"
        raise PlaError(f"{name}: missing {missing} directive")
    for t in transitions:
        if t.n_inputs != n_inputs:
            raise PlaError(f"transition {t} width does not match .i {n_inputs}")

    on = Cover(n_inputs, (), n_outputs)
    off = Cover(n_inputs, (), n_outputs)
    dc = Cover(n_inputs, (), n_outputs)
    # The planes a row's output part feeds: ``0`` is OFF only under an
    # ``r`` type (else "not in the ON set"), ``-~2`` don't-care only under
    # a ``d`` type.
    planes = [(on.cubes, _ON_BITS)]
    if "r" in pla_type:
        planes.append((off.cubes, _OFF_BITS))
    if "d" in pla_type:
        planes.append((dc.cubes, _DC_BITS))
    # Rows repeat their input and output parts, so each distinct part is
    # checked and decoded once.
    inbits_of: Dict[str, int] = {}
    outbits_of: Dict[str, List[int]] = {}
    for lineno, in_part, out_part in rows:
        if len(in_part) != n_inputs:
            raise PlaError(
                f"line {lineno}: cube {in_part!r} width != .i {n_inputs}"
            )
        if len(out_part) != n_outputs:
            raise PlaError(
                f"line {lineno}: output part {out_part!r} width != .o {n_outputs}"
            )
        inbits = inbits_of.get(in_part)
        if inbits is None:
            bad = in_part.translate(_IN_VALID)
            if bad:
                raise PlaError(
                    f"line {lineno}: bad literal character {bad[0]!r} in {in_part!r}"
                )
            # Reversed, so variable 0 lands on the low pair of bits.
            inbits = inbits_of[in_part] = int(in_part[::-1].translate(_IN_BITS), 2)
        outbits = outbits_of.get(out_part)
        if outbits is None:
            bad = out_part.translate(_OUT_VALID)
            if bad:
                raise PlaError(f"line {lineno}: bad output character {bad[0]!r}")
            reverse = out_part[::-1]
            outbits = outbits_of[out_part] = [
                int(reverse.translate(table), 2) for _, table in planes
            ]
        for (cubes, _), bits in zip(planes, outbits):
            if bits:
                cubes.append(Cube(n_inputs, inbits, bits, n_outputs))
    return PlaFile(
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        on=on,
        off=off,
        dc=dc,
        transitions=transitions,
        input_labels=input_labels,
        output_labels=output_labels,
        pla_type=pla_type,
        name=name,
    )


def _parse_transition(start: str, end: str, lineno: int) -> Transition:
    try:
        a = tuple(int(c) for c in start)
        b = tuple(int(c) for c in end)
        return Transition(a, b)
    except ValueError as exc:
        raise PlaError(f"line {lineno}: bad transition endpoints") from exc
