"""Scalar reference for the row decoding of ``repro.pla.reader.parse_pla``.

The reader decodes each distinct input and output part once, with
``str.translate`` tables: a reversed input part translates straight into
its positional bits, and a reversed output part gives the ON, OFF and
don't-care masks with one table per plane.  This module keeps the original
parser, which built every row from ``Cube.from_string`` one character at a
time and then re-tagged its outputs per plane, as the oracle the
differential in ``tests/test_pla_rows.py`` compares against.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.hazards.transitions import Transition
from repro.pla.reader import PlaError, PlaFile, _parse_transition


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
    off_specified = "r" in pla_type
    dc_specified = "d" in pla_type
    for lineno, in_part, out_part in rows:
        if len(in_part) != n_inputs:
            raise PlaError(
                f"line {lineno}: cube {in_part!r} width != .i {n_inputs}"
            )
        if len(out_part) != n_outputs:
            raise PlaError(
                f"line {lineno}: output part {out_part!r} width != .o {n_outputs}"
            )
        try:
            base = Cube.from_string(in_part, "0" * n_outputs)
        except ValueError as exc:
            raise PlaError(f"line {lineno}: {exc}") from None
        on_bits = 0
        off_bits = 0
        dc_bits = 0
        for j, ch in enumerate(out_part):
            if ch in "14":
                on_bits |= 1 << j
            elif ch == "0":
                if off_specified:
                    off_bits |= 1 << j
                # otherwise: "not in the ON set", carries no information
            elif ch in "-~2":
                if dc_specified:
                    dc_bits |= 1 << j
            else:
                raise PlaError(f"line {lineno}: bad output character {ch!r}")
        if on_bits:
            on.append(base.with_outputs(on_bits))
        if off_bits:
            off.append(base.with_outputs(off_bits))
        if dc_bits:
            dc.append(base.with_outputs(dc_bits))
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
