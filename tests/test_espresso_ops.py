"""Targeted tests for Espresso-II operators not covered elsewhere."""

import pytest

from repro.cubes import Cube, Cover
from repro.espresso import espresso, EspressoOptions
from repro.espresso.complement import complement
from repro.espresso.espresso import espresso_multi, is_cover_of
from repro.espresso.lastgasp import last_gasp
from repro.espresso.qm import exact_cover_from_primes
from repro.espresso.unate import select_active_var


class TestLastGasp:
    def test_escapes_local_minimum(self):
        """A cover arrangement where merging two reduced cubes wins."""
        # f over 3 vars: on = {000,001,011,111,110,100} (ring without 010,101)
        on = Cover(3, [Cube.from_index(3, m) for m in [0, 1, 3, 7, 6, 4]])
        off = complement(on)
        # hand it a suboptimal cover of minterm pairs
        start = Cover.from_strings(["00-", "0-1", "-11", "11-", "1-0", "-00"])
        result = last_gasp(start, None, off)
        assert len(result) <= len(start)
        assert result.semantically_equal(start)

    def test_no_candidates_returns_original(self):
        on = Cover.from_strings(["11", "00"])
        off = complement(on)
        result = last_gasp(on, None, off)
        assert result == on


class TestExpandHelpers:
    def test_meeting_clearance(self):
        off = Cover.from_strings(["11-"]).columns()
        assert not off.meeting(Cube.from_string("00-").inbits)
        assert off.meeting(Cube.from_string("1--").inbits)

    def test_raise_to_prime_no_off(self):
        inbits = Cover(3).columns().raise_to_prime(Cube.from_string("101").inbits)
        assert Cube(3, inbits).input_string() == "---"


class TestUnateHelpers:
    def test_select_active_var(self):
        assert select_active_var(Cover.from_strings(["-1-"])) == 1
        assert select_active_var(Cover.from_strings(["---"])) is None


class TestEspressoDriver:
    def test_multi_output_wrapper_rejected_by_single(self):
        cover = Cover.from_strings(["1- 10", "-1 01"])
        with pytest.raises(ValueError):
            espresso(cover)

    def test_multi_output_shares_identical_cubes(self):
        # both outputs are the same function: cubes merge into one row
        cover = Cover.from_strings(["11 11", "10 11"])
        result = espresso_multi(cover)
        assert len(result) == 1
        assert result[0].output_string() == "11"

    def test_max_iterations_respected(self):
        on = Cover(4, [Cube.from_index(4, m) for m in [0, 3, 5, 6, 9, 10, 12, 15]])
        options = EspressoOptions(max_outer_iterations=1)
        result = espresso(on, options=options)
        assert result.semantically_equal(on)

    def test_is_cover_of_detects_overcoverage(self):
        on = Cover.from_strings(["11"])
        bad = Cover.from_strings(["1-"])  # spills into OFF
        assert not is_cover_of(bad, on)
        assert is_cover_of(on, on)

    def test_is_cover_of_detects_undercoverage(self):
        on = Cover.from_strings(["1-"])
        partial = Cover.from_strings(["11"])
        assert not is_cover_of(partial, on)

    def test_parity_function(self):
        """Worst case for two-level: 3-var parity needs all 4 minterm cubes."""
        on = Cover(3, [Cube.from_index(3, m) for m in [1, 2, 4, 7]])
        result = espresso(on)
        assert len(result) == 4
        assert result.semantically_equal(on)

    def test_redundant_input_eliminated(self):
        """A variable the function ignores disappears from the cover."""
        on = Cover.from_strings(["10", "11"])  # f = a, b irrelevant
        result = espresso(on)
        assert len(result) == 1
        assert result[0].input_string() == "1-"


class TestExactCoverHelper:
    def test_returns_none_when_uncoverable(self):
        primes = [Cube.from_string("11")]
        objects = [Cube.from_string("00")]
        assert exact_cover_from_primes(primes, objects) is None

    def test_weighted_selection(self):
        primes = [Cube.from_string("1-"), Cube.from_string("11"), Cube.from_string("10")]
        objects = [Cube.from_string("11"), Cube.from_string("10")]
        # big weight on the covering prime forces the two small ones
        sol = exact_cover_from_primes(primes, objects, weights=[5, 1, 1])
        assert sorted(c.input_string() for c in sol) == ["10", "11"]
        sol2 = exact_cover_from_primes(primes, objects, weights=[1, 1, 1])
        assert [c.input_string() for c in sol2] == ["1-"]

    def test_heuristic_mode(self):
        primes = [Cube.from_string("1-"), Cube.from_string("-1")]
        objects = [Cube.from_string("11")]
        sol = exact_cover_from_primes(primes, objects, heuristic=True)
        assert len(sol) == 1
