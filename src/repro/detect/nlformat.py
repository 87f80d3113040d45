"""The ``.net`` netlist text format: parser and writer.

A deliberately small, line-oriented DeMorgan netlist exchange format so
external circuits become first-class traffic for ``espresso-hf detect``
and ``espresso-hf transform`` (documented for users in
``docs/FORMAT.md``)::

    # anything after '#' is a comment
    .model carry          # optional name
    .inputs a b c
    .outputs cout
    n1 = AND a b
    n2 = AND a c'
    cout = OR n1 n2 n3    # forward references are errors
    .trans 010 110        # optional specified transitions
    .end                  # optional

Gate operators are ``AND``/``OR``/``NOT``/``BUF``/``CONST0``/``CONST1``
(case-insensitive).  A postfix prime on an operand (``c'``) reads the
complement through a shared NOT gate, so authors never write inverter
boilerplate.  ``BUF`` introduces an alias, not a gate.

Every diagnostic is a :class:`~repro.detect.netlist.NetlistError`
carrying the 1-based line number, keeping the malformed-input exit code
(4) of the CLI taxonomy.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from repro.detect.netlist import Gate, Netlist, NetlistError
from repro.hazards.transitions import Transition

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\[\]-]*$")

_OPS = {"AND": "and", "OR": "or", "NOT": "not", "BUF": "buf",
        "CONST0": "const0", "CONST1": "const1"}


def _fail(line_no: int, message: str, name: str) -> NetlistError:
    return NetlistError(f"{name}, line {line_no}: {message}")


def _check_name(token: str, line_no: int, name: str) -> str:
    if not _NAME_RE.match(token):
        raise _fail(line_no, f"invalid signal name {token!r}", name)
    return token


def parse_netlist(
    text: str, name: str = "netlist"
) -> Tuple[Netlist, List[Transition]]:
    """Parse ``.net`` text into a netlist and its specified transitions."""
    inputs: List[str] = []
    output_names: List[Tuple[str, int]] = []  # (name, line)
    gates: List[Gate] = []
    signal: Dict[str, int] = {}
    trans_lines: List[Tuple[str, str, int]] = []
    model = name
    seen_inputs = False
    not_cache: Dict[int, int] = {}

    def resolve(token: str, line_no: int) -> int:
        prime = token.endswith("'")
        base = token[:-1] if prime else token
        if base not in signal:
            raise _fail(
                line_no,
                f"unknown signal {base!r} (forward references are not "
                "allowed; define gates before use)",
                model,
            )
        idx = signal[base]
        if not prime:
            return idx
        if idx not in not_cache:
            not_cache[idx] = len(gates)
            nname = f"{base}_n"
            suffix = 2
            while nname in signal:
                nname = f"{base}_n{suffix}"
                suffix += 1
            gates.append(Gate(nname, "not", (idx,)))
            signal[nname] = not_cache[idx]
        return not_cache[idx]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive == ".model":
                if len(parts) != 2:
                    raise _fail(line_no, ".model takes one name", model)
                model = parts[1]
            elif directive == ".inputs":
                if seen_inputs:
                    raise _fail(line_no, "duplicate .inputs line", model)
                seen_inputs = True
                if len(parts) < 2:
                    raise _fail(line_no, ".inputs needs at least one name", model)
                for tok in parts[1:]:
                    _check_name(tok, line_no, model)
                    if tok in signal:
                        raise _fail(
                            line_no, f"duplicate input {tok!r}", model
                        )
                    signal[tok] = len(gates)
                    gates.append(Gate(tok, "input"))
                    inputs.append(tok)
            elif directive == ".outputs":
                if len(parts) < 2:
                    raise _fail(line_no, ".outputs needs at least one name", model)
                for tok in parts[1:]:
                    output_names.append((tok, line_no))
            elif directive == ".trans":
                if len(parts) != 3:
                    raise _fail(
                        line_no, ".trans takes two binary vectors", model
                    )
                trans_lines.append((parts[1], parts[2], line_no))
            elif directive == ".end":
                break
            else:
                raise _fail(line_no, f"unknown directive {directive!r}", model)
            continue
        if "=" not in line:
            raise _fail(
                line_no,
                f"expected 'name = OP operands...' but got {line!r}",
                model,
            )
        if not seen_inputs:
            raise _fail(line_no, "gate defined before .inputs", model)
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        _check_name(lhs, line_no, model)
        if lhs in signal:
            raise _fail(line_no, f"signal {lhs!r} defined twice", model)
        rhs_parts = rhs.split()
        if not rhs_parts:
            raise _fail(line_no, f"gate {lhs!r} has no operator", model)
        op_token = rhs_parts[0].upper()
        if op_token not in _OPS:
            raise _fail(
                line_no,
                f"unknown operator {rhs_parts[0]!r} "
                f"(expected one of {', '.join(sorted(_OPS))})",
                model,
            )
        op = _OPS[op_token]
        operands = [resolve(tok, line_no) for tok in rhs_parts[1:]]
        if op == "buf":
            if len(operands) != 1:
                raise _fail(line_no, "BUF takes exactly one operand", model)
            signal[lhs] = operands[0]
            continue
        if op == "not" and len(operands) != 1:
            raise _fail(line_no, "NOT takes exactly one operand", model)
        if op in ("and", "or") and not operands:
            raise _fail(line_no, f"{op_token} needs at least one operand", model)
        if op in ("const0", "const1") and operands:
            raise _fail(line_no, f"{op_token} takes no operands", model)
        signal[lhs] = len(gates)
        gates.append(Gate(lhs, op, tuple(operands)))

    if not seen_inputs:
        raise _fail(1, "missing .inputs line", model)
    if not output_names:
        raise _fail(1, "missing .outputs line", model)
    outputs: List[int] = []
    for tok, line_no in output_names:
        if tok not in signal:
            raise _fail(line_no, f"output {tok!r} is never defined", model)
        outputs.append(signal[tok])
    netlist = Netlist(len(inputs), gates, outputs, name=model)

    transitions: List[Transition] = []
    for start_s, end_s, line_no in trans_lines:
        for vec in (start_s, end_s):
            if len(vec) != len(inputs) or any(c not in "01" for c in vec):
                raise _fail(
                    line_no,
                    f".trans vector {vec!r} is not a {len(inputs)}-bit "
                    "binary string",
                    model,
                )
        transitions.append(
            Transition(
                tuple(int(c) for c in start_s),
                tuple(int(c) for c in end_s),
            )
        )
    return netlist, transitions


def format_netlist(
    netlist: Netlist, transitions: Sequence[Transition] = ()
) -> str:
    """Serialize a netlist (and optional transitions) as ``.net`` text.

    ``parse_netlist(format_netlist(n))`` reproduces the netlist up to
    NOT-gate sharing.
    """
    lines = [f".model {netlist.name}"]
    input_gates = netlist.gates[: netlist.n_inputs]
    lines.append(".inputs " + " ".join(g.name for g in input_gates))
    out_names = [netlist.gates[o].name for o in netlist.outputs]
    lines.append(".outputs " + " ".join(out_names))
    for g in netlist.gates[netlist.n_inputs:]:
        operands = " ".join(netlist.gates[f].name for f in g.fanin)
        op = g.op.upper()
        lines.append(f"{g.name} = {op} {operands}".rstrip())
    for t in transitions:
        s = "".join(map(str, t.start))
        e = "".join(map(str, t.end))
        lines.append(f".trans {s} {e}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
