"""``CoverColumns.raise_to_prime`` against the scalar row-loop oracle.

The one raise-to-prime of the package (u(f), Espresso-II EXPAND and
LAST_GASP all call it) is a prefix/suffix sweep over the cover's literal
columns.  The oracle below is the scalar loop it replaced: variable by
variable, raise a literal when the raised row meets no OFF row, testing
every OFF row.  A derandomized Hypothesis differential covers ``n`` from
0, empty OFF lists, all-DC cubes, EMPTY pairs in cubes and OFF rows, and
``rows`` masks that select a subset, as ``by_output[j]`` does.
"""

from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bm.benchmarks import build_benchmark
from repro.cubes.cover import Cover
from repro.cubes.cube import LITERAL_DC, Cube, mask01


def expand_rows_ref(inbits: int, off_rows: Sequence[int], n_inputs: int) -> int:
    """The scalar oracle: raise literal ``i`` when the raised row meets no
    OFF row (a meet with an empty pair is no meet)."""
    m01 = mask01(n_inputs)
    for i in range(n_inputs):
        pair = LITERAL_DC << (2 * i)
        if inbits & pair == pair:
            continue
        cand = inbits | pair
        for o in off_rows:
            t = cand & o
            if (t | t >> 1) & m01 == m01:
                break
        else:
            inbits = cand
    return inbits


def _bits(codes: Sequence[int]) -> int:
    bits = 0
    for i, code in enumerate(codes):
        bits |= code << (2 * i)
    return bits


@st.composite
def raise_cases(draw):
    """(n, cube bits, OFF rows, rows mask or None); literal codes 0-3, so
    EMPTY pairs appear in cubes and OFF rows alike."""
    n = draw(st.integers(0, 7))
    codes = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    cube = _bits(draw(codes))
    off = [_bits(c) for c in draw(st.lists(codes, max_size=8))]
    rows = draw(st.one_of(st.none(), st.integers(0, (1 << len(off)) - 1)))
    return n, cube, off, rows


def _columns(n, off):
    return Cover(n, [Cube(n, bits) for bits in off]).columns()


def _selected(off, rows):
    return [o for k, o in enumerate(off) if rows is None or rows >> k & 1]


class TestDifferential:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(raise_cases())
    @example((0, 0, [], None))
    @example((3, _bits([3, 3, 3]), [_bits([1, 2, 3])], None))
    @example((3, _bits([1, 0, 2]), [_bits([3, 3, 3])], None))
    @example((2, _bits([1, 2]), [_bits([0, 3]), _bits([3, 3])], 0b01))
    def test_matches_scalar_loop(self, case):
        n, cube, off, rows = case
        got = _columns(n, off).raise_to_prime(cube, rows)
        assert got == expand_rows_ref(cube, _selected(off, rows), n)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(raise_cases())
    def test_result_is_a_prime_over_the_cube(self, case):
        n, cube, off, rows = case
        columns = _columns(n, off)
        every = (1 << len(off)) - 1
        mask = every if rows is None else rows
        got = columns.raise_to_prime(cube, rows)
        assert got & cube == cube
        if not columns.meeting(cube) & mask:
            assert not columns.meeting(got) & mask
            for i in range(n):
                pair = LITERAL_DC << (2 * i)
                if got & pair != pair:
                    assert columns.meeting(got | pair) & mask


@pytest.mark.parametrize("name", ["pscsi-tsend", "sd-control", "stetson-p2"])
def test_required_cubes_match_on_benchmarks(name):
    # The u(f) call: each required cube against its output's OFF cubes.
    inst = build_benchmark(name)
    off = inst.off_columns
    off_rows = [[c.inbits for c in o] for o in inst.off.split_outputs()]
    for rq in inst.required_cubes():
        got = off.raise_to_prime(rq.cube.inbits, off.by_output[rq.output])
        assert got == expand_rows_ref(
            rq.cube.inbits, off_rows[rq.output], inst.n_inputs
        )
