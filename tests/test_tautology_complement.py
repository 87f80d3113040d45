"""Tests for the unate-recursive tautology and complement operators."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cubes import Cube, Cover
from repro.espresso import tautology, complement, cover_contains_cube
from repro.espresso.complement import complement_cube
from repro.espresso.tautology import _most_binate, tautology_rows
from repro.espresso.unate import is_unate, select_binate_var, column_counts
from repro.cubes.cube import mask01


def random_cover(draw, n_inputs, max_cubes=6):
    n_cubes = draw(st.integers(0, max_cubes))
    cubes = []
    for _ in range(n_cubes):
        lits = draw(
            st.lists(st.integers(1, 3), min_size=n_inputs, max_size=n_inputs)
        )
        cubes.append(Cube.from_literals(lits))
    return Cover(n_inputs, cubes)


cover_strategy = st.integers(1, 5).flatmap(
    lambda n: st.builds(
        lambda rows: Cover(
            n, [Cube.from_literals(r) for r in rows]
        ),
        st.lists(
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
            min_size=0,
            max_size=6,
        ),
    )
)


class TestUnateAnalysis:
    def test_column_counts(self):
        f = Cover.from_strings(["1-0", "01-"])
        assert column_counts(f) == [(1, 1, 0), (0, 1, 1), (1, 0, 1)]

    def test_is_unate(self):
        assert is_unate(Cover.from_strings(["1-0", "1--", "--0"]))
        assert not is_unate(Cover.from_strings(["1--", "0--"]))

    def test_select_binate_prefers_most_binate(self):
        f = Cover.from_strings(["10-", "01-", "0-1", "1-0"])
        # var 0 appears 2/2, var 1 appears 1/1, var 2 appears 1/1
        assert select_binate_var(f) == 0

    def test_select_binate_none_for_unate(self):
        assert select_binate_var(Cover.from_strings(["1-0"])) is None


class TestTautology:
    def test_universal_cube(self):
        assert tautology(Cover.from_strings(["---"]))

    def test_empty_cover(self):
        assert not tautology(Cover(3))

    def test_complementary_pair(self):
        assert tautology(Cover.from_strings(["1", "0"]))

    def test_classic_tautology(self):
        f = Cover.from_strings(["1-", "01", "00"])
        assert tautology(f)

    def test_not_tautology(self):
        assert not tautology(Cover.from_strings(["1-", "01"]))

    def test_three_var_tautology(self):
        f = Cover.from_strings(["11-", "0--", "1-1", "100"])
        # brute-force check first
        assert all(f.evaluate(v) for v in itertools.product((0, 1), repeat=3))
        assert tautology(f)

    @settings(max_examples=200, deadline=None)
    @given(cover_strategy)
    def test_matches_brute_force(self, cover):
        brute = all(
            cover.evaluate(v)
            for v in itertools.product((0, 1), repeat=cover.n_inputs)
        )
        assert tautology(cover) == brute

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=7
            ).map(lambda rows: (n, rows))
        )
    )
    def test_rows_match_brute_force_with_empty_literals(self, shape):
        # The integer core also sees rows with an EMPTY literal (code 0).
        n, literal_rows = shape
        cubes = [Cube.from_literals(r) for r in literal_rows]
        brute = all(
            any(c.contains_minterm(v) for c in cubes)
            for v in itertools.product((0, 1), repeat=n)
        )
        assert tautology_rows([c.inbits for c in cubes], n) == brute

    @settings(max_examples=100, deadline=None)
    @given(cover_strategy)
    def test_split_variable_is_select_binate_var(self, cover):
        low = _most_binate([c.inbits for c in cover], mask01(cover.n_inputs))
        var = select_binate_var(cover)
        assert low == (0 if var is None else 1 << (2 * var))


class TestCoverContainsCube:
    def test_contained_across_cubes(self):
        f = Cover.from_strings(["11-", "10-"])
        assert cover_contains_cube(f, Cube.from_string("1--"))

    def test_not_contained(self):
        f = Cover.from_strings(["11-"])
        assert not cover_contains_cube(f, Cube.from_string("1--"))

    @settings(max_examples=150, deadline=None)
    @given(cover_strategy, st.data())
    def test_matches_brute_force(self, cover, data):
        lits = data.draw(
            st.lists(st.integers(1, 3), min_size=cover.n_inputs, max_size=cover.n_inputs)
        )
        cube = Cube.from_literals(lits)
        brute = all(cover.evaluate(v) for v in cube.minterm_vectors())
        assert cover_contains_cube(cover, cube) == brute


class TestComplement:
    def test_complement_cube_demorgan(self):
        c = Cube.from_string("1-0")
        comp = complement_cube(c)
        for vec in itertools.product((0, 1), repeat=3):
            assert comp.evaluate(vec) == (not c.contains_minterm(vec))

    def test_complement_of_empty_is_universal(self):
        comp = complement(Cover(3))
        assert tautology(comp)

    def test_complement_of_universal_is_empty(self):
        comp = complement(Cover.from_strings(["---"]))
        assert comp.is_empty

    @settings(max_examples=200, deadline=None)
    @given(cover_strategy)
    def test_matches_brute_force(self, cover):
        comp = complement(cover)
        for vec in itertools.product((0, 1), repeat=cover.n_inputs):
            assert comp.evaluate(vec) == (not cover.evaluate(vec))

    @settings(max_examples=100, deadline=None)
    @given(cover_strategy)
    def test_complement_cubes_are_maximal_free(self, cover):
        # The complement must never intersect the original cover.
        comp = complement(cover)
        for c in comp:
            for d in cover:
                if d.is_empty:
                    continue
                assert not c.intersects_input(d)
