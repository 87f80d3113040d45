"""Unit tests for Cover containers and basic operations."""

import pytest

from repro.cubes import Cube, Cover, minimize_scc
from repro.cubes.operations import (
    cube_sharp,
    sharp_cover,
    consensus,
    supercube_of,
    transition_cube,
    changing_vars,
)


class TestCoverBasics:
    def test_from_strings(self):
        f = Cover.from_strings(["1-0", "01-"])
        assert len(f) == 2
        assert f.n_inputs == 3

    def test_shape_enforced(self):
        f = Cover(3)
        with pytest.raises(ValueError):
            f.append(Cube.from_string("10"))

    def test_evaluate(self):
        f = Cover.from_strings(["1-0", "01-"])
        assert f.evaluate([1, 1, 0])
        assert f.evaluate([0, 1, 1])
        assert not f.evaluate([0, 0, 0])

    def test_evaluate_multi_output(self):
        f = Cover.from_strings(["1- 10", "-1 01"])
        assert f.evaluate([1, 0], output=0)
        assert not f.evaluate([1, 0], output=1)
        assert f.evaluate([0, 1], output=1)

    def test_restrict_to_output(self):
        f = Cover.from_strings(["1- 10", "-1 01", "11 11"])
        g0 = f.restrict_to_output(0)
        assert len(g0) == 2
        g1 = f.restrict_to_output(1)
        assert len(g1) == 2

    def test_split_outputs_is_restrict_per_output(self):
        f = Cover.from_strings(["1- 100", "-1 011", "11 110", "0- 000"])
        split = f.split_outputs()
        assert len(split) == 3
        for j, g in enumerate(split):
            expected = f.restrict_to_output(j)
            assert (g.n_inputs, g.n_outputs) == (expected.n_inputs, 1)
            assert g.cubes == expected.cubes  # cover order kept

    def test_contains_cube(self):
        f = Cover.from_strings(["1--", "-11"])
        assert f.contains_cube(Cube.from_string("10-"))
        assert not f.contains_cube(Cube.from_string("0--"))

    def test_deduplicate_and_drop_empty(self):
        c = Cube.from_string("1-")
        empty = c.intersect(Cube.from_string("0-"))
        f = Cover(2, [c, c, empty])
        assert len(f.deduplicate()) == 2
        assert len(f.drop_empty()) == 2
        assert len(f.deduplicate().drop_empty()) == 1

    def test_semantic_equality(self):
        f = Cover.from_strings(["1-", "-1"])
        g = Cover.from_strings(["11", "10", "01"])
        assert f.semantically_equal(g)
        assert not f.semantically_equal(Cover.from_strings(["1-"]))

    def test_cover_equality_is_order_insensitive(self):
        f = Cover.from_strings(["1-", "-1"])
        g = Cover.from_strings(["-1", "1-"])
        assert f == g

    def test_cofactor(self):
        f = Cover.from_strings(["1-0", "01-"])
        cf = f.cofactor(Cube.from_string("1--"))
        assert len(cf) == 1
        assert cf[0].input_string() == "--0"


class TestSCC:
    def test_removes_contained(self):
        f = Cover.from_strings(["1--", "10-", "110"])
        assert [c.input_string() for c in minimize_scc(f)] == ["1--"]

    def test_keeps_incomparable(self):
        f = Cover.from_strings(["1-0", "01-"])
        assert len(minimize_scc(f)) == 2

    def test_removes_duplicates(self):
        f = Cover.from_strings(["1-0", "1-0"])
        assert len(minimize_scc(f)) == 1

    def test_output_aware(self):
        f = Cover.from_strings(["1- 11", "1- 01"])
        result = minimize_scc(f)
        assert len(result) == 1
        assert result[0].output_string() == "11"


class TestSharp:
    def test_disjoint_returns_original(self):
        a = Cube.from_string("1--")
        b = Cube.from_string("0--")
        assert cube_sharp(a, b) == [a]

    def test_contained_returns_empty(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("1--")
        assert cube_sharp(a, b) == []

    def test_partition_semantics(self):
        a = Cube.from_string("---")
        b = Cube.from_string("1-0")
        pieces = cube_sharp(a, b)
        union = Cover(3, pieces)
        for vec in a.minterm_vectors():
            in_b = b.contains_minterm(vec)
            assert union.evaluate(vec) == (not in_b)

    def test_sharp_cover(self):
        f = Cover.from_strings(["---"])
        g = Cover.from_strings(["11-", "00-"])
        diff = sharp_cover(f, g)
        for vec in Cube.full(3).minterm_vectors():
            assert diff.evaluate(vec) == (not g.evaluate(vec))

    def test_multi_output_sharp_keeps_other_outputs(self):
        a = Cube.from_string("--", "11")
        b = Cube.from_string("--", "01")
        pieces = cube_sharp(a, b)
        assert len(pieces) == 1
        assert pieces[0].output_string() == "10"


class TestConsensus:
    def test_adjacent_cubes(self):
        a = Cube.from_string("10-")
        b = Cube.from_string("11-")
        c = consensus(a, b)
        assert c is not None and c.input_string() == "1--"

    def test_distance_two_has_no_consensus(self):
        a = Cube.from_string("10")
        b = Cube.from_string("01")
        assert consensus(a, b) is None

    def test_classic_consensus(self):
        a = Cube.from_string("1-1")
        b = Cube.from_string("01-")
        c = consensus(a, b)
        # conflict on var 0: consensus = intersection elsewhere, var 0 freed
        assert c is not None and c.input_string() == "-11"

    def test_output_consensus(self):
        a = Cube.from_string("1-", "10")
        b = Cube.from_string("11", "01")
        c = consensus(a, b)
        assert c is not None
        assert c.input_string() == "11"
        assert c.output_string() == "11"


class TestTransitionCube:
    def test_transition_cube_literals(self):
        t = transition_cube([0, 1, 0, 0], [1, 1, 0, 1])
        assert t.input_string() == "-10-"

    def test_degenerate_transition(self):
        t = transition_cube([1, 0], [1, 0])
        assert t.input_string() == "10"

    def test_changing_vars(self):
        assert changing_vars([0, 1, 0], [1, 1, 1]) == (0, 2)

    def test_supercube_of(self):
        cubes = [Cube.from_string("100"), Cube.from_string("101"), Cube.from_string("110")]
        assert supercube_of(cubes).input_string() == "1--"
        assert supercube_of([]) is None
