"""Unit tests for the gate-level detection stack.

Covers the netlist IR (:mod:`repro.detect.netlist`), the ``.net`` text
format (:mod:`repro.detect.nlformat`), the per-transition detector
(:mod:`repro.detect.detector`), the CLI subcommands, and the
construction-time validation of
:meth:`repro.detect.netlist.Netlist.from_cover`.  The worked example
throughout is the textbook consensus hazard: ``f = ab' + bc`` with ``b``
flipping while ``a = c = 1`` glitches unless the consensus cube ``ac``
is held steady.
"""

import pytest

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.detect import (
    DetectOptions,
    Gate,
    Netlist,
    NetlistError,
    STATUS_CLEAN,
    STATUS_HAZARD,
    STATUS_MISMATCH,
    STATUS_SKIPPED,
    STATUS_UNCONSTRAINED,
    detect_cover,
    detect_netlist,
    format_netlist,
    parse_netlist,
)
from repro.guard.budget import RunBudget
from repro.guard.errors import MalformedInstance
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition
from repro.obs.metrics import MetricsRegistry


def consensus_instance():
    """f = ab' + bc on 3 inputs, with the hazardous b: 0 -> 1 transition."""
    on = Cover(3, [Cube.from_literals([2, 1, 3]), Cube.from_literals([3, 2, 2])])
    off = Cover(3, [Cube.from_literals([1, 1, 3]), Cube.from_literals([3, 2, 1])])
    t = Transition((1, 0, 1), (1, 1, 1))
    return HazardFreeInstance(on, off, [t], name="consensus"), t


def plain_cover():
    """The 2-cube cover ab' + bc (no consensus term: hazardous)."""
    return Cover(3, [Cube.from_literals([2, 1, 3]), Cube.from_literals([3, 2, 2])])


def fixed_cover():
    """ab' + bc + ac: holds the consensus cube, hazard-free."""
    return Cover(
        3,
        [
            Cube.from_literals([2, 1, 3]),
            Cube.from_literals([3, 2, 2]),
            Cube.from_literals([2, 3, 2]),
        ],
    )


class TestNetlistIR:
    def test_topological_violation_rejected(self):
        gates = [Gate("a", "input"), Gate("g", "and", (0, 2)), Gate("h", "not", (0,))]
        with pytest.raises(NetlistError, match="topological"):
            Netlist(1, gates, [1])

    def test_unknown_op_rejected(self):
        with pytest.raises(NetlistError, match="unknown op"):
            Netlist(1, [Gate("a", "input"), Gate("g", "xor", (0,))], [1])

    def test_bad_arity_rejected(self):
        with pytest.raises(NetlistError, match="cannot"):
            Netlist(1, [Gate("a", "input"), Gate("g", "not", (0, 0))], [1])

    def test_duplicate_name_rejected(self):
        with pytest.raises(NetlistError, match="duplicate"):
            Netlist(
                2, [Gate("a", "input"), Gate("a", "input"), Gate("g", "and", (0, 1))], [2]
            )

    def test_no_outputs_rejected(self):
        with pytest.raises(NetlistError, match="no outputs"):
            Netlist(1, [Gate("a", "input")], [])

    def test_netlist_error_is_malformed_instance(self):
        """Exit-code taxonomy: netlist errors ride the malformed lane."""
        assert issubclass(NetlistError, MalformedInstance)

    def test_from_cover_evaluates_like_the_cover(self):
        cover = fixed_cover()
        netlist = Netlist.from_cover(cover, name="fixed")
        for v in range(8):
            vec = tuple((v >> i) & 1 for i in range(3))
            assert netlist.evaluate(vec)[0] == (1 if cover.evaluate(vec) else 0)

    def test_from_cover_as_cover_roundtrip(self):
        cover = fixed_cover()
        back = Netlist.from_cover(cover, name="rt").as_cover()
        assert sorted(c.inbits for c in back) == sorted(c.inbits for c in cover)

    def test_from_cover_empty_output_is_const0(self):
        cover = Cover(2, [], 1)
        netlist = Netlist.from_cover(cover)
        assert netlist.evaluate((0, 0)) == (0,)
        assert netlist.evaluate((1, 1)) == (0,)
        assert netlist.products(0) == ()

    def test_from_cover_tautology_is_const1(self):
        cover = Cover(2, [Cube.from_literals([3, 3])])
        netlist = Netlist.from_cover(cover)
        assert netlist.evaluate((0, 0)) == (1,)
        assert netlist.depth == 0
        assert netlist.products(0) == ((),)  # the empty product

    def test_ternary_controlling_values(self):
        # AND with a controlling 0 is 0 even with an X beside it; OR dual.
        netlist = Netlist.from_cover(plain_cover(), name="ternary")
        assert netlist.evaluate_ternary((0, None, 0)) == (0,)
        # a=c=1, b=X: both products are X -> output X (the hazard point)
        assert netlist.evaluate_ternary((1, None, 1)) == (None,)

    def test_metrics_and_support(self):
        netlist = Netlist.from_cover(fixed_cover(), name="m")
        assert netlist.depth == 3  # x -> NOT -> AND -> OR
        assert netlist.num_gates == len(netlist.gates) - 3
        assert netlist.support(0) == frozenset({0, 1, 2})

    def test_multilevel_as_cover_rejected(self):
        gates = [
            Gate("a", "input"),
            Gate("b", "input"),
            Gate("g1", "or", (0, 1)),
            Gate("g2", "and", (0, 2)),
        ]
        netlist = Netlist(2, gates, [3], name="deep")
        with pytest.raises(NetlistError, match="not two-level"):
            netlist.as_cover()
        with pytest.raises(NetlistError, match="not two-level"):
            netlist.products(0)
        nested = Netlist(2, gates[:3] + [Gate("g2", "or", (0, 2))], [3])
        with pytest.raises(NetlistError, match="nested OR"):
            nested.products(0)


class TestNetFormat:
    CARRY = """\
# a full-adder carry
.model carry
.inputs a b c
.outputs cout
n1 = AND a b
n2 = AND a c
n3 = AND b c
cout = OR n1 n2 n3
.trans 010 110
.trans 011 111
.end
"""

    def test_parse_carry(self):
        netlist, transitions = parse_netlist(self.CARRY)
        assert netlist.name == "carry"
        assert netlist.n_inputs == 3 and netlist.n_outputs == 1
        assert netlist.evaluate((1, 1, 0)) == (1,)
        assert netlist.evaluate((1, 0, 0)) == (0,)
        assert [t.start for t in transitions] == [(0, 1, 0), (0, 1, 1)]

    def test_prime_inserts_shared_not(self):
        text = ".inputs a b\n.outputs f\nf = AND a b'\n"
        netlist, _ = parse_netlist(text)
        assert any(g.op == "not" for g in netlist.gates)
        assert netlist.evaluate((1, 0)) == (1,)
        assert netlist.evaluate((1, 1)) == (0,)

    def test_roundtrip(self):
        netlist, transitions = parse_netlist(self.CARRY)
        text = format_netlist(netlist, transitions)
        again, t2 = parse_netlist(text)
        for v in range(8):
            vec = tuple((v >> i) & 1 for i in range(3))
            assert again.evaluate(vec) == netlist.evaluate(vec)
        assert [(t.start, t.end) for t in t2] == [
            (t.start, t.end) for t in transitions
        ]

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            (".inputs a\n.outputs f\nf = XOR a a\n", 3, "unknown operator"),
            (".inputs a\n.outputs f\nf = OR a g\n", 3, "unknown signal"),
            (".inputs a\n.outputs f\nf = OR a\nf = OR a\n", 4, "defined twice"),
            (".inputs a\n.outputs f\n.trans 00 01\nf = OR a\n", 3, "binary string"),
            (".outputs f\nf = OR a\n", 2, "before .inputs"),
            (".inputs a\n.outputs f\n", 2, "never defined"),
        ],
    )
    def test_line_numbered_errors(self, text, line, fragment):
        with pytest.raises(NetlistError) as exc:
            parse_netlist(text, name="bad")
        assert f"line {line}" in str(exc.value)
        assert fragment in str(exc.value)


class TestDetector:
    def test_plain_cover_has_hazard_with_valid_witness(self):
        inst, t = consensus_instance()
        report = detect_cover(inst, plain_cover(), DetectOptions(mode="exhaustive"))
        assert not report.hazard_free
        (verdict,) = report.hazards
        assert verdict.status == STATUS_HAZARD
        w = verdict.witness
        assert w is not None and w.observed == "X"
        # The witness must replay: the netlist really is X at the point,
        # and the function really is stable there.
        netlist = Netlist.from_cover(plain_cover(), name="replay")
        point = tuple(None if ch == "X" else int(ch) for ch in w.point)
        assert netlist.evaluate_ternary(point) == (None,)
        assert inst.on.evaluate(w.start) and inst.on.evaluate(w.end)
        assert w.unstable_gates  # the trace names the glitching gates

    def test_fixed_cover_is_clean(self):
        inst, _ = consensus_instance()
        report = detect_cover(inst, fixed_cover(), DetectOptions(mode="exhaustive"))
        assert report.hazard_free and report.complete
        assert all(v.status == STATUS_CLEAN for v in report.verdicts)

    def test_functional_mismatch(self):
        inst, _ = consensus_instance()
        # A cover computing the wrong function at the endpoints.
        wrong = Cover(3, [Cube.from_literals([2, 2, 2])])  # just abc
        report = detect_cover(inst, wrong, DetectOptions(mode="exhaustive"))
        assert report.mismatches
        assert report.mismatches[0].status == STATUS_MISMATCH

    def test_dc_endpoint_is_unconstrained(self):
        # Specification leaves (1,1,1) unspecified: no requirement at all.
        on = Cover(3, [Cube.from_literals([2, 1, 3])])
        off = Cover(3, [Cube.from_literals([1, 3, 3])])
        t = Transition((1, 0, 1), (1, 1, 1))
        inst = HazardFreeInstance(on, off, [], name="dc-end")
        report = detect_netlist(
            Netlist.from_cover(on), on, off, [t], DetectOptions(mode="exhaustive")
        )
        (verdict,) = report.verdicts
        assert verdict.status == STATUS_UNCONSTRAINED
        assert verdict.points_checked == 0
        assert report.hazard_free

    def test_support_fast_path(self):
        # Output ignores the changing variable: only endpoints are checked.
        on = Cover(2, [Cube.from_literals([2, 3])])
        off = Cover(2, [Cube.from_literals([1, 3])])
        t = Transition((1, 0), (1, 1))
        report = detect_netlist(
            Netlist.from_cover(on), on, off, [t], DetectOptions(mode="exhaustive")
        )
        (verdict,) = report.verdicts
        assert verdict.status == STATUS_CLEAN
        assert verdict.points_checked == 2

    def test_budget_degrades_to_skipped(self):
        inst, t = consensus_instance()
        budget = RunBudget(max_iterations=1)
        many = [t] * 5
        report = detect_netlist(
            Netlist.from_cover(fixed_cover()),
            inst.on,
            inst.off,
            many,
            DetectOptions(budget=budget),
        )
        assert report.budget_exhausted
        assert any(v.status == STATUS_SKIPPED for v in report.verdicts)
        assert not report.complete

    def test_counters(self):
        inst, _ = consensus_instance()
        registry = MetricsRegistry()
        detect_cover(inst, plain_cover(), DetectOptions(registry=registry))
        snap = registry.snapshot()
        assert snap["detect.hazards_found"]["value"] == 1
        assert snap["detect.points_checked"]["value"] >= 1

    def test_algebra_annotation(self):
        inst, _ = consensus_instance()
        report = detect_cover(inst, fixed_cover(), DetectOptions(algebra=True))
        assert all(
            v.algebra is not None
            for v in report.verdicts
            if v.status == STATUS_CLEAN
        )

    def test_output_count_mismatch_rejected(self):
        inst, _ = consensus_instance()
        netlist = Netlist.from_cover(Cover(3, [Cube.from_literals([2, 1, 3])] , 1))
        two_out = Cover(3, [], 2)
        with pytest.raises(ValueError, match="outputs"):
            detect_netlist(netlist, two_out, two_out, inst.transitions)

    def test_report_as_dict_roundtrips_witness(self):
        inst, _ = consensus_instance()
        report = detect_cover(inst, plain_cover())
        payload = report.as_dict()
        assert payload["hazard_free"] is False
        bad = [v for v in payload["verdicts"] if v["status"] == STATUS_HAZARD]
        assert bad and "witness" in bad[0]
        assert bad[0]["witness"]["observed"] == "X"


class TestFromCoverValidation:
    def test_narrow_cube_raises_line_numbered_error(self):
        cover = Cover(3, [Cube.from_literals([2, 1, 3])])
        cover.cubes[0] = Cube.from_literals([2, 1])  # rebuilt by hand, too narrow
        with pytest.raises(MalformedInstance, match="cover cube 1: 2 input"):
            Netlist.from_cover(cover)

    def test_wide_cube_raises_line_numbered_error(self):
        cover = Cover(3, [Cube.from_literals([2, 1, 3]), Cube.from_literals([3, 3, 2])])
        cover.cubes[1] = Cube.from_literals([2, 1, 3, 3])  # too wide
        with pytest.raises(
            MalformedInstance, match="cover cube 2: 4 input literals do not fit a 3-input"
        ):
            Netlist.from_cover(cover)

    def test_wrong_width_inputs_raise(self):
        net = Netlist.from_cover(plain_cover())
        with pytest.raises(MalformedInstance, match="expected 3"):
            net.evaluate((1, 0))
        with pytest.raises(MalformedInstance, match="expected 3"):
            net.evaluate_ternary((1, 0, None, 1))

    def test_valid_cover_still_works(self):
        net = Netlist.from_cover(fixed_cover())
        assert net.evaluate((1, 0, 1)) == (1,)
        assert net.evaluate_ternary((1, None, 1)) == (1,)


class TestCliSubcommands:
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_detect_clean_netlist_exits_zero(self, tmp_path, capsys):
        from repro.detect.cli import detect_main

        path = self._write(
            tmp_path,
            "fixed.net",
            ".inputs a b c\n.outputs f\n"
            "n1 = AND a b'\nn2 = AND b c\nn3 = AND a c\nf = OR n1 n2 n3\n"
            ".trans 101 111\n",
        )
        assert detect_main([path]) == 0
        assert "HAZARD-FREE" in capsys.readouterr().out

    def test_detect_hazard_exits_three(self, tmp_path, capsys):
        from repro.detect.cli import detect_main

        path = self._write(
            tmp_path,
            "plain.net",
            ".inputs a b c\n.outputs f\n"
            "n1 = AND a b'\nn2 = AND b c\nf = OR n1 n2\n.trans 101 111\n",
        )
        assert detect_main([path]) == 3
        out = capsys.readouterr().out
        assert "witness" in out and "HAZARDOUS" in out

    def test_detect_malformed_exits_four(self, tmp_path, capsys):
        from repro.detect.cli import detect_main

        path = self._write(
            tmp_path, "bad.net", ".inputs a\n.outputs f\nf = XOR a a\n"
        )
        assert detect_main([path]) == 4
        assert "line 3" in capsys.readouterr().err

    def test_detect_requires_transitions(self, tmp_path, capsys):
        from repro.detect.cli import detect_main

        path = self._write(
            tmp_path, "no-trans.net", ".inputs a\n.outputs f\nf = OR a\n"
        )
        assert detect_main([path]) == 4
        assert "no transitions" in capsys.readouterr().err

    def test_transform_repairs_hazard(self, tmp_path, capsys):
        from repro.detect.cli import detect_main, transform_main

        src = self._write(
            tmp_path,
            "plain.net",
            ".inputs a b c\n.outputs f\n"
            "n1 = AND a b'\nn2 = AND b c\nf = OR n1 n2\n.trans 101 111\n",
        )
        dst = str(tmp_path / "fixed.net")
        assert transform_main([src, "-o", dst]) == 0
        assert "verified hazard-free" in capsys.readouterr().out
        assert detect_main([dst]) == 0

    def test_dispatch_from_main_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(
            tmp_path,
            "fixed.net",
            ".inputs a b c\n.outputs f\n"
            "n1 = AND a b'\nn2 = AND b c\nn3 = AND a c\nf = OR n1 n2 n3\n"
            ".trans 101 111\n",
        )
        assert main(["detect", path]) == 0
        capsys.readouterr()
