"""Unit tests for the Cube bitmask encoding and algebra."""

import copy
import pickle

import pytest

from repro.cubes import Cube, LITERAL_DC, LITERAL_ONE, LITERAL_ZERO, LITERAL_EMPTY


class TestConstruction:
    def test_from_string_roundtrip(self):
        c = Cube.from_string("10-1")
        assert c.n_inputs == 4
        assert c.input_string() == "10-1"
        assert c.literals() == (LITERAL_ONE, LITERAL_ZERO, LITERAL_DC, LITERAL_ONE)

    def test_from_string_with_outputs(self):
        c = Cube.from_string("1-0", "011")
        assert c.n_outputs == 3
        assert not c.has_output(0)
        assert c.has_output(1)
        assert c.has_output(2)
        assert c.output_string() == "011"

    def test_full_cube(self):
        c = Cube.full(3)
        assert c.input_string() == "---"
        assert c.num_minterms() == 8

    def test_minterm(self):
        c = Cube.minterm([1, 0, 1])
        assert c.input_string() == "101"
        assert c.is_minterm
        assert c.num_minterms() == 1

    def test_from_index_bit_order(self):
        c = Cube.from_index(3, 0b101)
        assert c.input_string() == "101"

    def test_from_literals(self):
        c = Cube.from_literals([LITERAL_ONE, LITERAL_DC, LITERAL_ZERO])
        assert c.input_string() == "1-0"

    def test_bad_literal_char_rejected(self):
        with pytest.raises(ValueError):
            Cube.from_string("10x")

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            Cube(2, 1 << 10)
        with pytest.raises(ValueError):
            Cube(2, 0, outbits=2, n_outputs=1)

    def test_immutability(self):
        c = Cube.from_string("01")
        with pytest.raises(AttributeError):
            c.inbits = 0


class TestPredicates:
    def test_empty_cube_detection(self):
        c = Cube.from_literals([LITERAL_EMPTY, LITERAL_ONE])
        assert c.is_empty

    def test_zero_output_cube_is_empty(self):
        c = Cube(2, 0b1111, outbits=0, n_outputs=2)
        assert c.is_empty

    def test_containment(self):
        big = Cube.from_string("1--")
        small = Cube.from_string("1-0")
        assert big.contains(small)
        assert not small.contains(big)
        assert big.contains(big)

    def test_containment_with_outputs(self):
        big = Cube.from_string("1-", "11")
        small = Cube.from_string("10", "01")
        assert big.contains(small)
        assert not small.contains(big)
        wide_out = Cube.from_string("10", "11")
        narrow_in = Cube.from_string("1-", "01")
        assert not narrow_in.contains(wide_out)

    def test_intersects(self):
        a = Cube.from_string("1-0")
        b = Cube.from_string("-10")
        assert a.intersects(b)
        c = Cube.from_string("0--")
        assert not a.intersects(c)

    def test_disjoint_outputs_do_not_intersect(self):
        a = Cube.from_string("--", "10")
        b = Cube.from_string("--", "01")
        assert not a.intersects(b)
        assert a.intersects_input(b)

    def test_contains_minterm(self):
        c = Cube.from_string("1-0")
        assert c.contains_minterm([1, 0, 0])
        assert c.contains_minterm([1, 1, 0])
        assert not c.contains_minterm([0, 1, 0])

    def test_contains_minterm_matches_literal_loop(self):
        import itertools

        from tests.hazards_ref import contains_minterm

        vectors = [v for k in (2, 3, 4) for v in itertools.product((0, 1), repeat=k)]
        for lits in itertools.product(range(4), repeat=3):  # EMPTY included
            c = Cube.from_literals(lits)
            for v in vectors:
                assert c.contains_minterm(v) == contains_minterm(c, v), (c, v)
        assert not Cube.from_literals([LITERAL_DC, LITERAL_EMPTY]).contains_minterm([0, 0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Cube.from_string("10").intersects(Cube.from_string("100"))


class TestAlgebra:
    def test_intersect(self):
        a = Cube.from_string("1--")
        b = Cube.from_string("-0-")
        assert a.intersect(b).input_string() == "10-"

    def test_intersect_empty(self):
        a = Cube.from_string("1")
        b = Cube.from_string("0")
        assert a.intersect(b).is_empty

    def test_supercube(self):
        a = Cube.from_string("100")
        b = Cube.from_string("110")
        assert a.supercube(b).input_string() == "1-0"

    def test_supercube_is_smallest_container(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("011")
        sup = a.supercube(b)
        assert sup.contains(a) and sup.contains(b)
        assert sup.input_string() == "---"

    def test_distance(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("01-")
        assert a.input_distance(b) == 2
        assert a.distance(b) == 2

    def test_multi_output_distance(self):
        a = Cube.from_string("1-", "10")
        b = Cube.from_string("1-", "01")
        assert a.distance(b) == 1
        assert a.input_distance(b) == 0

    def test_conflict_vars(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("011")
        assert sorted(a.conflict_vars(b)) == [0, 1]

    def test_cofactor_basic(self):
        a = Cube.from_string("1-0")
        point = Cube.from_string("1--")
        cf = a.cofactor(point)
        assert cf.input_string() == "--0"

    def test_cofactor_none_when_disjoint(self):
        a = Cube.from_string("1--")
        b = Cube.from_string("0--")
        assert a.cofactor(b) is None


class TestMetrics:
    def test_num_literals(self):
        assert Cube.from_string("1-0-").num_literals() == 2

    def test_free_and_fixed_vars(self):
        c = Cube.from_string("1-0-")
        assert c.free_vars() == (1, 3)
        assert c.fixed_vars() == (0, 2)

    def test_minterm_vectors(self):
        c = Cube.from_string("1-0")
        vecs = sorted(c.minterm_vectors())
        assert vecs == [(1, 0, 0), (1, 1, 0)]

    def test_with_literal_and_outputs(self):
        c = Cube.from_string("10", "01")
        c2 = c.with_literal(1, LITERAL_DC)
        assert c2.input_string() == "1-"
        c3 = c.with_outputs(0b01)
        assert c3.output_string() == "10"

    def test_restrict_to_output(self):
        c = Cube.from_string("10", "01")
        r = c.restrict_to_output(1)
        assert r.n_outputs == 1 and r.outbits == 1
        with pytest.raises(ValueError):
            c.restrict_to_output(0)


class TestOrderingAndHashing:
    def test_equality_and_hash(self):
        a = Cube.from_string("1-0")
        b = Cube.from_string("1-0")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Cube.from_string("1-1")

    def test_sortable(self):
        cubes = [Cube.from_string("1-0"), Cube.from_string("0-0"), Cube.from_string("---")]
        assert sorted(cubes) == sorted(cubes, key=lambda c: (c.inbits, c.outbits))

    def test_str_single_output(self):
        assert str(Cube.from_string("1-0")) == "1-0"

    def test_str_multi_output(self):
        assert str(Cube.from_string("1-0", "01")) == "1-0 01"


class TestPickleAndCopy:
    @pytest.mark.parametrize(
        "cube",
        [Cube.from_string("1-0"), Cube.from_string("0-1~", "101"), Cube(0, 0)],
        ids=["single", "multi", "empty"],
    )
    def test_round_trips_keep_the_cube(self, cube):
        for clone in (
            pickle.loads(pickle.dumps(cube)),
            copy.copy(cube),
            copy.deepcopy(cube),
        ):
            assert clone == cube and hash(clone) == hash(cube)
            assert (clone.n_inputs, clone.n_outputs) == (cube.n_inputs, cube.n_outputs)
            assert str(clone) == str(cube)
