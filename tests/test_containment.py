"""Differentials for the shared containment filter and the cube transpose.

:func:`repro.cubes.containment.maximal` is the one "drop every part
another part contains" step: SCC minimization, the OFF reduction and the
canonical-required filter of :class:`~repro.hf.context.HFContext`, and
the per-output filter of the u(f) rewrite all call it.  It is checked
against an all-pairs oracle.  ``repro.cubes.cover._bit_columns`` is the
one cube-list transpose; EXPAND builds its per-slot masks with it, and
it is checked against the per-slot loop it replaced there.
"""

from typing import List, Optional, Sequence

from hypothesis import given, strategies as st

from repro.cubes import Cover, Cube
from repro.cubes.containment import maximal, maximal_cubes, minimize_scc
from repro.cubes.cover import _bit_columns
from repro.proptest.strategies import cubes


def maximal_oracle(parts: Sequence[int]) -> List[int]:
    """All pairs: position ``i`` survives unless some other part contains
    it strictly, or equals it at an earlier position."""
    return [
        i
        for i, x in enumerate(parts)
        if not any(
            x & y == x and (x != y or j < i) for j, y in enumerate(parts) if j != i
        )
    ]


def transpose_slots_oracle(
    slots: Sequence[Optional[Cube]], n_inputs: int, n_outputs: int
):
    """The per-slot loop EXPAND used before ``_bit_columns``: which live
    slots have input/output bit ``b`` set, and the mask of live slots."""
    in_by_bit = [0] * (2 * n_inputs)
    out_by_bit = [0] * n_outputs
    alive = 0
    for k, d in enumerate(slots):
        if d is None:
            continue
        bit = 1 << k
        alive |= bit
        b = d.inbits
        while b:
            low = b & -b
            in_by_bit[low.bit_length() - 1] |= bit
            b ^= low
        ob = d.outbits
        while ob:
            low = ob & -ob
            out_by_bit[low.bit_length() - 1] |= bit
            ob ^= low
    return alive, in_by_bit, out_by_bit


@st.composite
def part_lists(draw):
    """Part lists that stress the filter: duplicates of drawn parts, and
    parts of one popcount (pairwise incomparable unless equal)."""
    width = draw(st.integers(1, 10))
    base = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=12))
    if base and draw(st.booleans()):
        base += draw(st.lists(st.sampled_from(base), max_size=6))
    if draw(st.booleans()):
        ones = draw(st.integers(0, width))
        base += [
            sum(1 << b for b in bits)
            for bits in draw(
                st.lists(st.sets(st.integers(0, width - 1), min_size=ones, max_size=ones))
            )
        ]
    return draw(st.permutations(base))


@st.composite
def multi_output_parts(draw):
    """``(outbits << 2n) | inbits`` of drawn multi-output cubes, one
    output group after another, as ``minimize_scc`` builds them."""
    n = draw(st.integers(1, 4))
    n_out = draw(st.integers(1, 3))
    groups = draw(st.lists(st.lists(cubes(n, n_out), max_size=6), max_size=3))
    flat = [c for group in groups for c in group]
    if flat and draw(st.booleans()):
        flat += draw(st.lists(st.sampled_from(flat), max_size=4))
    return [(c.outbits << (2 * n)) | c.inbits for c in flat]


class TestMaximal:
    def test_empty_list(self):
        assert maximal([]) == []
        assert maximal_cubes([]) == []

    def test_first_duplicate_is_kept(self):
        assert maximal([0b01, 0b11, 0b11, 0b10]) == [1]
        assert maximal([5, 5, 6, 6]) == [0, 2]

    @given(part_lists())
    def test_matches_all_pairs_oracle(self, parts):
        assert maximal(parts) == maximal_oracle(parts)

    @given(multi_output_parts())
    def test_matches_oracle_on_multi_output_parts(self, parts):
        assert maximal(parts) == maximal_oracle(parts)

    @given(st.data())
    def test_minimize_scc_drops_empty_and_contained_cubes(self, data):
        n = data.draw(st.integers(1, 4))
        n_out = data.draw(st.integers(1, 3))
        drawn = data.draw(st.lists(cubes(n, n_out), max_size=8))
        if data.draw(st.booleans()):
            # wide empty cubes, which few cubes contain: one EMPTY literal
            # with all outputs, and every input DC with no output
            full_in, full_out = (1 << 2 * n) - 1, (1 << n_out) - 1
            for hole in (Cube(n, full_in & ~3, full_out, n_out), Cube(n, full_in, 0, n_out)):
                drawn.insert(data.draw(st.integers(0, len(drawn))), hole)
        live = [c for c in drawn if not c.is_empty]
        want = [live[i] for i in maximal_oracle([
            (c.outbits << (2 * n)) | c.inbits for c in live
        ])]
        assert minimize_scc(Cover(n, drawn, n_out)).cubes == want
        assert maximal_cubes(drawn) == want


@st.composite
def slot_lists(draw):
    """EXPAND slot lists: drawn cubes with ``None`` holes (absorbed slots)."""
    n = draw(st.integers(1, 5))
    n_out = draw(st.integers(1, 3))
    slot = st.one_of(st.none(), cubes(n, n_out))
    return n, n_out, draw(st.lists(slot, max_size=12))


class TestSlotTranspose:
    @given(slot_lists())
    def test_bit_columns_matches_per_slot_loop(self, case):
        n, n_out, slots = case
        alive, in_by_bit, out_by_bit = transpose_slots_oracle(slots, n, n_out)
        assert _bit_columns(
            [0 if d is None else d.inbits for d in slots], 2 * n
        ) == in_by_bit
        assert _bit_columns(
            [0 if d is None else d.outbits for d in slots], n_out
        ) == out_by_bit
        assert sum(1 << k for k, d in enumerate(slots) if d is not None) == alive
