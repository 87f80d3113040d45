"""Tests for the Espresso-II heuristic loop and the exact oracle."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cubes import Cube, Cover
from repro.espresso import espresso, exact_minimize, EspressoOptions
from repro.espresso.espresso import espresso_multi, is_cover_of
from repro.espresso.expand import expand_cover
from repro.espresso.reduce_ import reduce_cover, max_reduce
from repro.espresso.irredundant import irredundant_cover
from repro.espresso.essential import essential_primes
from repro.espresso.complement import complement


def onset_cover(n, minterms):
    return Cover(n, [Cube.from_index(n, m) for m in sorted(minterms)])


cover_strategy = st.integers(2, 4).flatmap(
    lambda n: st.builds(
        lambda rows: Cover(n, [Cube.from_literals(r) for r in rows]),
        st.lists(
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        ),
    )
)


class TestExpand:
    def test_expand_absorbs_cubes(self):
        on = Cover.from_strings(["100", "101", "110", "111"])
        off = complement(on)
        result = expand_cover(on, off)
        # every minterm of a expands to the prime a = "1--"
        assert any(c.input_string() == "1--" for c in result)

    def test_raise_to_prime(self):
        off = Cover.from_strings(["0-1"])
        prime = Cube(3, off.columns().raise_to_prime(Cube.from_string("100").inbits))
        # can raise vars 1 and 2? raising var0 would hit off when c=1
        assert not any(prime.intersects_input(o) for o in off)
        for i in range(3):
            if prime.literal(i) != 3:
                raised = prime.with_literal(i, 3)
                assert any(raised.intersects_input(o) for o in off)

    def test_expand_never_touches_off(self):
        on = Cover.from_strings(["1100", "0011"])
        off = Cover.from_strings(["0000", "1111"])
        result = expand_cover(on, off)
        for c in result:
            for o in off:
                assert not c.intersects_input(o)


class TestReduce:
    def test_max_reduce_drops_redundant(self):
        others = Cover.from_strings(["---"])
        assert max_reduce(Cube.from_string("1-0"), others) is None

    def test_max_reduce_shrinks(self):
        # cube "1--"; others cover "11-": unique part is "10-"
        others = Cover.from_strings(["11-"])
        reduced = max_reduce(Cube.from_string("1--"), others)
        assert reduced.input_string() == "10-"

    def test_reduce_preserves_cover(self):
        on = Cover.from_strings(["1--", "-1-"])
        reduced = reduce_cover(on)
        for vec in itertools.product((0, 1), repeat=3):
            assert reduced.evaluate(vec) == on.evaluate(vec) or on.evaluate(vec) == reduced.evaluate(vec)
        # exact function must be preserved
        assert reduced.semantically_equal(on)


class TestIrredundant:
    def test_removes_redundant_middle_cube(self):
        # f = ab + a'c + bc: the consensus cube bc is redundant
        f = Cover.from_strings(["11-", "0-1", "-11"])
        result = irredundant_cover(f)
        assert len(result) == 2
        assert result.semantically_equal(f)

    def test_majority_has_no_redundancy(self):
        f = Cover.from_strings(["11-", "-11", "1-1"])
        assert len(irredundant_cover(f)) == 3

    def test_keeps_needed_cubes(self):
        f = Cover.from_strings(["11-", "00-"])
        assert len(irredundant_cover(f)) == 2

    def test_respects_dont_cares(self):
        f = Cover.from_strings(["11", "01"])
        dc = Cover.from_strings(["-1"])
        result = irredundant_cover(f, dc)
        # dc covers everything both cubes cover... both are inside dc
        assert len(result) == 0


class TestEssential:
    def test_essential_detected(self):
        # f = ab + a'b'; both primes essential
        f = Cover.from_strings(["11", "00"])
        ess = essential_primes(f)
        assert len(ess) == 2

    def test_non_essential_bridge(self):
        # f = ab + bc + a'c: bc is covered by consensus paths -> not essential
        f = Cover.from_strings(["11-", "-11", "0-1"])
        ess = essential_primes(f)
        strs = {c.input_string() for c in ess}
        assert "11-" in strs and "0-1" in strs and "-11" not in strs

    def test_matches_brute_force_on_random(self):
        import random

        rng = random.Random(42)
        for _ in range(25):
            n = 3
            on = {m for m in range(8) if rng.random() < 0.5}
            if not on:
                continue
            cover = onset_cover(n, on)
            from repro.espresso import all_primes

            primes = all_primes(cover)
            prime_cover = Cover(n, primes)
            ess = essential_primes(prime_cover)
            # brute force: prime essential iff it covers an ON minterm no
            # other prime covers
            expected = []
            for p in primes:
                unique = False
                for m in on:
                    vec = tuple((m >> i) & 1 for i in range(n))
                    if p.contains_minterm(vec) and not any(
                        q != p and q.contains_minterm(vec) for q in primes
                    ):
                        unique = True
                expected.append(unique)
            assert [p in ess for p in primes] == expected


class TestEspressoLoop:
    def test_classic_function(self):
        # f = sum of minterms where espresso should find 2-cube cover
        on = Cover.from_strings(["110", "111", "011", "010"])
        result = espresso(on)
        assert len(result) == 1  # f = b
        assert result[0].input_string() == "-1-"

    def test_cover_validity(self):
        on = onset_cover(4, [0, 1, 2, 5, 7, 8, 10, 14, 15])
        result = espresso(on)
        assert is_cover_of(result, on)
        assert result.semantically_equal(on)

    def test_with_dont_cares(self):
        on = onset_cover(3, [1, 3])
        dc = onset_cover(3, [5, 7])
        result = espresso(on, dc)
        # on = {100, 110}, dc = {101, 111}: reduces to the single cube a
        assert len(result) == 1
        assert result[0].input_string() == "1--"

    def test_empty_onset(self):
        result = espresso(Cover(3))
        assert result.is_empty

    def test_tautology_function(self):
        on = onset_cover(2, [0, 1, 2, 3])
        result = espresso(on)
        assert len(result) == 1
        assert result[0].input_string() == "--"

    def test_options_disable_essentials(self):
        on = onset_cover(3, [0, 1, 6, 7])
        r1 = espresso(on, options=EspressoOptions(use_essentials=False))
        r2 = espresso(on)
        assert r1.semantically_equal(r2)

    @settings(max_examples=60, deadline=None)
    @given(cover_strategy)
    def test_heuristic_preserves_function(self, cover):
        result = espresso(cover)
        assert result.semantically_equal(cover)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 15), min_size=1))
    def test_heuristic_close_to_exact(self, on_minterms):
        on = onset_cover(4, on_minterms)
        heuristic = espresso(on)
        exact = exact_minimize(on)
        assert exact.semantically_equal(on)
        assert len(heuristic) >= len(exact)
        # Espresso on 4-var functions should rarely be off by more than 1
        assert len(heuristic) <= len(exact) + 1

    def test_multi_output(self):
        on = Cover.from_strings(["110 10", "111 10", "011 01", "111 01"])
        result = espresso_multi(on)
        for j in range(2):
            got = result.restrict_to_output(j)
            want = on.restrict_to_output(j)
            assert got.semantically_equal(want)


class TestExactMinimize:
    def test_minimum_cardinality(self):
        # f = xor needs exactly 2 cubes
        on = onset_cover(2, [1, 2])
        result = exact_minimize(on)
        assert len(result) == 2

    def test_cyclic_covering_problem(self):
        # The classic cyclic function where greedy can be suboptimal.
        on = onset_cover(3, [0, 1, 3, 4, 6, 7])
        result = exact_minimize(on)
        assert result.semantically_equal(on)
        assert len(result) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 15), min_size=1), st.sets(st.integers(0, 15)))
    def test_exact_is_minimum(self, on_minterms, dc_minterms):
        dc_minterms = dc_minterms - on_minterms
        on = onset_cover(4, on_minterms)
        dc = onset_cover(4, dc_minterms) if dc_minterms else None
        result = exact_minimize(on, dc)
        # validity
        for m in on_minterms:
            vec = tuple((m >> i) & 1 for i in range(4))
            assert result.evaluate(vec)
        off = [m for m in range(16) if m not in on_minterms and m not in dc_minterms]
        for m in off:
            vec = tuple((m >> i) & 1 for i in range(4))
            assert not result.evaluate(vec)
