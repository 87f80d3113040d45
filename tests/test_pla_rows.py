"""Differential: the table-driven PLA row decoder against the scalar oracle.

``parse_pla`` decodes rows with ``str.translate`` tables, once per distinct
input and output part.  ``tests/pla_ref.py`` keeps the parser that built
every row with ``Cube.from_string`` one character at a time.  Both must
give the same ON, OFF and don't-care covers, cube for cube and in order,
and the same ``PlaError`` message for every malformed row — over the 15
benchmark PLAs, a generated corpus of every stratum, and seeded random
rows of every ``.type``.
"""

import random
from pathlib import Path

import pytest

from repro.corpus.generator import generate_corpus
from repro.pla.reader import PlaError, parse_pla

from tests import pla_ref as ref

BENCHMARKS = sorted(
    (Path(__file__).resolve().parent.parent / "data" / "benchmarks").glob("*.pla")
)

TYPES = ("f", "fd", "fr", "fdr")
IN_CHARS = "01-2~"
OUT_CHARS = "014-~2"


def outcome(parse, text):
    """Everything a parse produces, or the raised error's class and message."""
    try:
        pla = parse(text, name="x")
    except (PlaError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", (
        pla.n_inputs,
        pla.n_outputs,
        pla.pla_type,
        pla.input_labels,
        pla.output_labels,
        pla.transitions,
        [cover_rows(c) for c in (pla.on, pla.off, pla.dc)],
    )


def cover_rows(cover):
    return (
        cover.n_inputs,
        cover.n_outputs,
        [(c.n_inputs, c.n_outputs, c.inbits, c.outbits) for c in cover],
    )


def assert_same(text):
    expected = outcome(ref.parse_pla, text)
    assert outcome(parse_pla, text) == expected
    return expected


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_benchmark_plas(path):
    status, value = assert_same(path.read_text())
    assert status == "ok" and value[6][0][2] and value[6][1][2]


def test_all_fifteen_benchmarks_present():
    assert len(BENCHMARKS) == 15


def test_corpus_plas():
    corpus = generate_corpus(7, 21)
    assert len({c.stratum for c in corpus}) == 7
    for item in corpus:
        assert assert_same(item.pla_text)[0] == "ok"


def random_pla(rng, pla_type, n_inputs, n_outputs, n_rows):
    lines = [f".i {n_inputs}", f".o {n_outputs}", f".type {pla_type}"]
    for _ in range(n_rows):
        in_part = "".join(rng.choice(IN_CHARS) for _ in range(n_inputs))
        out_part = "".join(rng.choice(OUT_CHARS) for _ in range(n_outputs))
        lines.append(f"{in_part} {out_part}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pla_type", TYPES)
def test_seeded_random_rows(pla_type):
    rng = random.Random(f"rows-{pla_type}")
    for _ in range(60):
        n_inputs, n_outputs = rng.randint(1, 9), rng.randint(1, 5)
        text = random_pla(rng, pla_type, n_inputs, n_outputs, rng.randint(0, 25))
        assert assert_same(text)[0] == "ok"


def test_repeated_parts_keep_every_row():
    # The same input and output parts on several rows, in every plane.
    text = ".i 3\n.o 2\n.type fdr\n" + "1-0 10\n1-0 10\n0~2 4-\n1-0 0~\n0~2 4-\n.e\n"
    status, value = assert_same(text)
    assert status == "ok"
    assert [len(rows) for _, _, rows in value[6]] == [4, 3, 3]


#: characters the decoder must reject, including ones ``int(_, 2)`` accepts
BAD = "x3+_5aAé"


def corrupt(rng, text):
    """One row of ``text`` with a bad character or a wrong width."""
    lines = text.splitlines()
    rows = [k for k, line in enumerate(lines) if line and line[0] not in ".#"]
    k = rng.choice(rows)
    in_part, out_part = lines[k].split()
    mode = rng.randrange(4)
    if mode == 0:
        i = rng.randrange(len(in_part))
        in_part = in_part[:i] + rng.choice(BAD) + in_part[i + 1 :]
    elif mode == 1:
        j = rng.randrange(len(out_part))
        out_part = out_part[:j] + rng.choice(BAD) + out_part[j + 1 :]
    elif mode == 2:
        in_part += rng.choice(IN_CHARS)
    else:
        out_part += rng.choice(OUT_CHARS)
    lines[k] = f"{in_part} {out_part}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pla_type", TYPES)
def test_malformed_rows_same_message(pla_type):
    rng = random.Random(f"bad-{pla_type}")
    errors = set()
    for _ in range(80):
        text = random_pla(rng, pla_type, rng.randint(1, 6), rng.randint(1, 4), 8)
        for _ in range(rng.randint(1, 3)):
            text = corrupt(rng, text)
        status, message = assert_same(text)
        if status != "ok":
            assert status == "PlaError"
            errors.add(message.split(":", 1)[1].split()[0])
    assert errors >= {"bad", "cube", "output"}


@pytest.mark.parametrize(
    "row, message",
    [
        ("1x 1", "line 3: bad literal character 'x' in '1x'"),
        ("1_ 1", "line 3: bad literal character '_' in '1_'"),
        ("+1 1", "line 3: bad literal character '+' in '+1'"),
        ("3x 1", "line 3: bad literal character '3' in '3x'"),
        ("11 _", "line 3: bad output character '_'"),
        ("11 x", "line 3: bad output character 'x'"),
        ("1x y", "line 3: bad literal character 'x' in '1x'"),
        ("111 y", "line 3: cube '111' width != .i 2"),
        ("1x 11", "line 3: output part '11' width != .o 1"),
    ],
)
def test_malformed_row_messages(row, message):
    text = f".i 2\n.o 1\n{row}\n00 0\n"
    assert assert_same(text) == ("PlaError", message)


def test_first_bad_row_wins():
    text = ".i 2\n.o 1\n.type fr\n11 1\n1x 1\n11 y\n.e\n"
    assert assert_same(text) == (
        "PlaError",
        "line 5: bad literal character 'x' in '1x'",
    )
