"""Three-oracle differential fuzzing of the gate-level detector.

The repository now holds three independent hazard oracles:

1. the **ternary detector** (:func:`repro.detect.detect_netlist`) —
   Kleene evaluation over every ternary point of each transition;
2. the **Theorem 2.11 verifier**
   (:func:`repro.hazards.verify.verify_hazard_free_cover`) — the paper's
   cube-algebraic conditions on two-level covers;
3. the **Monte-Carlo delay simulator**
   (:func:`repro.simulate.find_glitch`) — random gate/wire delays on the
   pure-delay circuit model.

Their agreement contract (docs/DETECTION.md):

* 2.11-clean  ⟹  detector-clean (2.11 is the strictest oracle: it also
  polices dynamic interleavings no ternary point can see);
* a Monte-Carlo glitch on a *static* transition  ⟹  a detector hazard
  (ternary analysis is exact for static transitions on two-level logic);
* every sampled-mode finding is a real finding of exhaustive mode.

Each property is a hard assertion — any counterexample is an unexplained
disagreement; Hypothesis shrinks it and :func:`bundle_on_failure` writes
a ``repro.guard`` failure bundle for offline triage.  The hazard-
derivative chain rule and the cofactor-based stability oracle get their
own brute-force differentials at the bottom.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.detect import (
    DetectOptions,
    Gate,
    Netlist,
    STATUS_CLEAN,
    STATUS_HAZARD,
    STATUS_MISMATCH,
    detect_cover,
)
from repro.detect.ternary import (
    derivative_gates,
    derivative_point,
    stable_value,
    stable_value_brute,
)
from repro.espresso.complement import complement
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import espresso_hf
from repro.proptest.database import bundle_on_failure
from repro.proptest.strategies import covers, instances, solvable_instances
from repro.detect.netlist import Netlist
from repro.simulate import find_glitch

EXHAUSTIVE = DetectOptions(mode="exhaustive")

BAD = (STATUS_HAZARD, STATUS_MISMATCH)


def _flagged_keys(report):
    return {
        (v.transition.start, v.transition.end, v.output)
        for v in report.verdicts
        if v.status in BAD
    }


@st.composite
def netlists(draw, max_inputs=4, max_gates=6):
    """Arbitrary multi-level AND/OR/NOT netlists (not just cover shapes)."""
    n = draw(st.integers(2, max_inputs))
    gates = [Gate(f"x{i}", "input") for i in range(n)]
    n_logic = draw(st.integers(1, max_gates))
    for k in range(n_logic):
        op = draw(st.sampled_from(["and", "or", "not"]))
        arity = 1 if op == "not" else draw(st.integers(1, 3))
        fanin = tuple(
            draw(st.integers(0, len(gates) - 1)) for _ in range(arity)
        )
        gates.append(Gate(f"g{k}", op, fanin))
    out = draw(st.integers(n, len(gates) - 1))
    return Netlist(n, gates, [out], name="hyp")


class TestThreeOracleAgreement:
    @given(solvable_instances())
    @bundle_on_failure("test_detect_differential.verified_cover_detector_clean")
    def test_verified_cover_is_detector_clean(self, inst):
        """Oracle 1 vs oracle 2, clean direction: every minimized cover the
        Theorem 2.11 verifier accepts must sail through exhaustive ternary
        detection — on every transition, at every ternary point."""
        cover = espresso_hf(inst).cover
        assert not verify_hazard_free_cover(inst, cover)
        report = detect_cover(inst, cover, EXHAUSTIVE)
        assert report.hazard_free, [
            v.as_dict() for v in report.hazards + report.mismatches
        ]

    @given(instances())
    @bundle_on_failure("test_detect_differential.detector_flag_implies_verifier")
    def test_detector_flag_implies_verifier_flag(self, inst):
        """Contrapositive on arbitrary (typically unminimized, often
        hazardous) ON covers: anything the ternary detector flags, the
        strictly stronger 2.11 conditions must also reject."""
        report = detect_cover(inst, inst.on, EXHAUSTIVE)
        if not report.hazard_free:
            assert verify_hazard_free_cover(inst, inst.on), (
                "detector flagged a cover the Theorem 2.11 verifier accepts"
            )

    @given(instances())
    @bundle_on_failure("test_detect_differential.montecarlo_vs_detector")
    def test_montecarlo_glitch_implies_detector_hazard(self, inst):
        """Oracle 1 vs oracle 3 on static transitions, both directions:
        detector-clean ⟹ no Monte-Carlo glitch, and (equivalently) any
        glitch the delay simulator finds must be a detector hazard."""
        cover = inst.on
        report = detect_cover(inst, cover, EXHAUSTIVE)
        verdict_of = {
            (v.transition.start, v.transition.end, v.output): v
            for v in report.verdicts
        }
        network = Netlist.from_cover(cover)
        for t in inst.transitions:
            for j in range(inst.n_outputs):
                if network.evaluate(t.start)[j] != network.evaluate(t.end)[j]:
                    continue  # dynamic for this realization: ternary N/A
                v = verdict_of[(t.start, t.end, j)]
                if v.status != STATUS_CLEAN:
                    # unconstrained (DC endpoint) verdicts make no claim
                    # about the realization; flagged ones need no check
                    continue
                glitch = find_glitch(network, t, trials=50, seed=11, output=j)
                assert glitch is None, (
                    f"Monte-Carlo glitch on {t} output {j} but the "
                    f"detector said {v.status}"
                )

    @given(solvable_instances())
    @bundle_on_failure("test_detect_differential.witness_replays")
    def test_hazard_witnesses_replay(self, inst):
        """Every witness the detector emits is a genuine exhibit: the
        netlist really evaluates X at the point and the specification
        really is stable there (checked by brute resolution enumeration
        against the full ON cover of both endpoints' values)."""
        report = detect_cover(inst, inst.on, EXHAUSTIVE)
        netlist = Netlist.from_cover(inst.on, name="replay")
        for v in report.hazards:
            w = v.witness
            point = tuple(None if ch == "X" else int(ch) for ch in w.point)
            observed = netlist.evaluate_ternary(point)[v.output]
            assert observed is None
            on_j = inst.on.restrict_to_output(v.output)
            off_j = inst.off.restrict_to_output(v.output)
            assert stable_value(point, on_j, off_j) == w.expected
            # The resolved endpoint pair is inside the transition cube.
            t = v.transition
            for vec in (w.start, w.end):
                assert all(
                    vec[i] in (t.start[i], t.end[i])
                    for i in range(inst.n_inputs)
                )


class TestSampledSoundness:
    @given(instances(), st.integers(0, 2**16))
    @bundle_on_failure("test_detect_differential.sampled_soundness")
    def test_sampled_findings_are_exhaustive_findings(self, inst, seed):
        """Sampling may miss hazards, never invent them: every (transition,
        output) the sampled mode flags is flagged by exhaustive mode, and a
        sampled verdict that covered all points is never *cleaner* than
        the exhaustive one."""
        cover = inst.on
        exhaustive = detect_cover(inst, cover, EXHAUSTIVE)
        sampled = detect_cover(
            inst, cover, DetectOptions(mode="sampled", max_points=8, seed=seed)
        )
        ex_bad = _flagged_keys(exhaustive)
        for v in sampled.verdicts:
            key = (v.transition.start, v.transition.end, v.output)
            if v.status in BAD:
                assert key in ex_bad, "sampled mode invented a hazard"
            elif v.exhaustive:
                assert key not in ex_bad, "full-coverage verdict missed one"


class TestDerivativeChainRule:
    @given(netlists(), st.data())
    def test_derivative_pairs_equal_kleene_evaluation(self, netlist, data):
        """The hazard-derivative chain rule (Ikenmeyer et al.) and Kleene
        ternary evaluation are the same computation, gate for gate:
        ``(v, 0)`` ↔ stable ``v`` and ``(_, 1)`` ↔ ``X``."""
        n = netlist.n_inputs
        base = [data.draw(st.integers(0, 1)) for _ in range(n)]
        unstable = [
            i for i in range(n) if data.draw(st.booleans())
        ]
        pairs = derivative_gates(netlist, base, unstable)
        point = derivative_point(base, unstable)
        ternary = netlist.eval_gates_ternary(point)
        for (value, dv), tv in zip(pairs, ternary):
            if dv:
                assert tv is None
            else:
                assert tv == value

    @given(netlists(), st.data())
    def test_derivative_zero_matches_binary_evaluation(self, netlist, data):
        """With no unstable inputs the pair encoding degenerates to plain
        binary evaluation (derivative identically 0)."""
        base = [data.draw(st.integers(0, 1)) for _ in range(netlist.n_inputs)]
        pairs = derivative_gates(netlist, base, [])
        values = netlist.eval_gates(base)
        assert [p[0] for p in pairs] == values
        assert all(p[1] == 0 for p in pairs)


class TestStabilityOracle:
    @given(covers(n_inputs=3, max_cubes=4), st.data())
    def test_stable_value_matches_brute_enumeration(self, on, data):
        """The cofactor/tautology stability check against the resolution-
        enumeration oracle, on fully specified single-output functions."""
        off = complement(on)
        point = tuple(
            data.draw(st.sampled_from([0, 1, None])) for _ in range(3)
        )
        assert stable_value(point, on, off) == stable_value_brute(point, on)
