"""Oracle sensitivity: mutated covers must be flagged, by every oracle.

The repository leans on three independent hazard oracles — the
Theorem 2.11 verifier (:func:`repro.hazards.verify.verify_hazard_free_cover`),
Eichelberger ternary simulation, and Monte-Carlo delay simulation.  These
mutation tests corrupt *known-good minimized covers* in three ways (drop a
cube, widen a literal, swap an output tag) and assert the oracles notice.
An oracle that accepts every mutant is dead weight; this file is its
heartbeat.

The corpus is deterministic: seeded instances from the shared proptest
builder, minimized once, mutants enumerated exhaustively.
"""

import pytest

from repro.hazards import hazard_free_solution_exists
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import espresso_hf
from repro.cubes.cube import LITERAL_DC
from repro.cubes.cover import Cover
from repro.proptest.strategies import seeded_instance
from repro.detect.netlist import Netlist
from repro.simulate import find_glitch, has_static_hazard_ternary
from repro.simulate.algebra import cover_hazard_free_by_algebra

#: 0-15 for breadth; 73 is the first seed whose minimized cover has a
#: dropped-cube mutant that keeps its endpoint values (the case only the
#: ternary / Monte-Carlo oracles can see)
SEEDS = list(range(16)) + [73]


def _corpus():
    """Deterministic (instance, minimized cover) pairs with droppable cubes."""
    out = []
    for seed in SEEDS:
        inst = seeded_instance(seed)
        if inst is None or not hazard_free_solution_exists(inst):
            continue
        cover = espresso_hf(inst).cover
        if len(cover) >= 1 and inst.required_cubes():
            out.append((inst, cover))
    return out


CORPUS = _corpus()


def _without(cover: Cover, idx: int) -> Cover:
    return Cover(
        cover.n_inputs,
        [c for i, c in enumerate(cover) if i != idx],
        cover.n_outputs,
    )


def _with_cube(cover: Cover, idx: int, cube) -> Cover:
    cubes = list(cover)
    cubes[idx] = cube
    return Cover(cover.n_inputs, cubes, cover.n_outputs)


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 8


class TestVerifierSensitivity:
    def test_dropping_any_cube_is_flagged(self):
        """Final covers are irredundant, so every cube is load-bearing."""
        for inst, cover in CORPUS:
            for idx in range(len(cover)):
                mutant = _without(cover, idx)
                assert verify_hazard_free_cover(inst, mutant), (
                    f"{inst.name}: dropping cube {idx} went unflagged"
                )

    def test_widening_any_literal_is_flagged(self):
        """Final cover cubes are dhf-prime, so every raise is illegal."""
        for inst, cover in CORPUS:
            for idx, cube in enumerate(cover):
                for i in range(inst.n_inputs):
                    if cube.literal(i) == LITERAL_DC:
                        continue
                    mutant = _with_cube(
                        cover, idx, cube.with_literal(i, LITERAL_DC)
                    )
                    assert verify_hazard_free_cover(inst, mutant), (
                        f"{inst.name}: widening cube {idx} var {i} unflagged"
                    )

    def test_swapping_output_tags_is_flagged_consistently(self):
        """Rotated output tags: the verifier and the eight-valued algebra
        oracle must agree, and at least one mutant must be flagged."""
        flagged = total = 0
        for inst, cover in CORPUS:
            if inst.n_outputs < 2:
                continue
            mask = (1 << inst.n_outputs) - 1
            for idx, cube in enumerate(cover):
                rotated = (
                    (cube.outbits << 1) | (cube.outbits >> (inst.n_outputs - 1))
                ) & mask
                if rotated == cube.outbits or rotated == 0:
                    continue
                mutant = _with_cube(
                    cover,
                    idx,
                    type(cube)(cube.n_inputs, cube.inbits, rotated, cube.n_outputs),
                )
                total += 1
                verifier_flags = bool(verify_hazard_free_cover(inst, mutant))
                algebra_clean = cover_hazard_free_by_algebra(inst, mutant)
                if verifier_flags:
                    flagged += 1
                else:
                    # verifier-clean mutants must also satisfy the
                    # independent algebraic oracle
                    assert algebra_clean, f"{inst.name}: oracle disagreement"
        assert total >= 5
        assert flagged >= 1


class TestSimulatorSensitivity:
    def test_dropped_cube_mutants_are_dynamically_detectable(self):
        """Every dropped-cube mutant is caught by evaluation mismatch or by
        ternary X-propagation; endpoint-preserving static mutants must also
        glitch under Monte-Carlo delay simulation."""
        eval_hits = ternary_hits = mc_hits = checked = 0
        for inst, cover in CORPUS:
            for idx in range(len(cover)):
                dropped = cover[idx]
                mutant = _without(cover, idx)
                good = Netlist.from_cover(cover)
                bad = Netlist.from_cover(mutant)
                for j in range(inst.n_outputs):
                    if not dropped.has_output(j):
                        continue
                    for t in inst.transitions:
                        checked += 1
                        s_good = good.evaluate(t.start)[j], good.evaluate(t.end)[j]
                        s_bad = bad.evaluate(t.start)[j], bad.evaluate(t.end)[j]
                        if s_good != s_bad:
                            eval_hits += 1
                            continue
                        if s_bad[0] != s_bad[1]:
                            continue  # dynamic transition: ternary N/A
                        if has_static_hazard_ternary(bad, t, output=j):
                            ternary_hits += 1
                            glitch = find_glitch(
                                bad, t, trials=100, seed=3, output=j
                            )
                            assert glitch is not None, (
                                f"{inst.name}: ternary X on {t} but no "
                                "Monte-Carlo glitch"
                            )
                            mc_hits += 1
        assert checked >= 20
        assert eval_hits >= 1, "evaluation oracle never fired"
        assert ternary_hits >= 1, "ternary oracle never fired"
        assert mc_hits >= 1, "Monte-Carlo oracle never fired"

    def test_consensus_drop_is_caught_by_ternary_and_montecarlo(self):
        """The textbook static-1 hazard: f = ab' + bc with b flipping while
        a = c = 1.  The hazard-free cover must hold the consensus cube ac
        steady; dropping it is invisible to endpoint evaluation but must be
        flagged by ternary X-propagation, Monte-Carlo delay simulation, and
        the Theorem 2.11 verifier alike."""
        from repro.cubes.cube import Cube
        from repro.hazards.instance import HazardFreeInstance
        from repro.hazards.transitions import Transition

        on = Cover(3, [Cube.from_literals([2, 1, 3]), Cube.from_literals([3, 2, 2])])
        off = Cover(3, [Cube.from_literals([1, 1, 3]), Cube.from_literals([3, 2, 1])])
        t = Transition((1, 0, 1), (1, 1, 1))
        pins = [
            Transition((1, 0, 0), (1, 0, 1)),  # pins ab' in the cover
            Transition((0, 1, 1), (1, 1, 1)),  # pins bc in the cover
        ]
        inst = HazardFreeInstance(on, off, [t] + pins, name="consensus")
        cover = espresso_hf(inst).cover
        consensus = [
            i
            for i, c in enumerate(cover)
            if c.literal(0) == 2 and c.literal(1) == LITERAL_DC and c.literal(2) == 2
        ]
        assert consensus, "cover must hold the ac consensus cube steady"
        mutant = _without(cover, consensus[0])
        assert verify_hazard_free_cover(inst, mutant)
        bad = Netlist.from_cover(mutant)
        assert bad.evaluate(t.start) == (1,) and bad.evaluate(t.end) == (1,)
        assert has_static_hazard_ternary(bad, t)
        assert find_glitch(bad, t, trials=100, seed=3) is not None

    def test_clean_covers_never_glitch(self):
        """Control: the unmutated covers pass both simulators."""
        for inst, cover in CORPUS:
            network = Netlist.from_cover(cover)
            for j in range(inst.n_outputs):
                for t in inst.transitions:
                    v0 = network.evaluate(t.start)[j]
                    v1 = network.evaluate(t.end)[j]
                    if v0 == v1:
                        assert not has_static_hazard_ternary(network, t, output=j)
                    assert (
                        find_glitch(network, t, trials=40, seed=7, output=j)
                        is None
                    )


class TestDetectorSensitivity:
    """The gate-level ternary detector's heartbeat: netlist-level defects
    injected through the ``DetectOptions.netlist_decorator`` seam
    (:mod:`repro.detect.mutate`) must be flagged — and whenever the
    detector does flag a two-level mutant, the recovered cover must also
    fail the independent Theorem 2.11 verifier."""

    DEFECT_SEEDS = (0, 1, 2)

    @staticmethod
    def _mutants():
        from repro.detect import Netlist
        from repro.detect.mutate import NETLIST_DEFECTS

        for inst, cover in CORPUS:
            netlist = Netlist.from_cover(cover, name=inst.name)
            for kind, defect in NETLIST_DEFECTS.items():
                for seed in TestDetectorSensitivity.DEFECT_SEEDS:
                    mutated = defect.mutate(netlist, seed)
                    if mutated is None:
                        continue
                    yield inst, netlist, kind, seed, mutated

    def test_every_defect_kind_is_flagged(self):
        """Across the corpus, each defect family must trip the detector at
        least once; the seam (``netlist_decorator``) must be what applies
        the mutation."""
        from repro.detect import DetectOptions, detect_netlist
        from repro.detect.mutate import NETLIST_DEFECTS, defect_decorator

        flagged = {kind: 0 for kind in NETLIST_DEFECTS}
        total = 0
        for inst, netlist, kind, seed, _ in self._mutants():
            total += 1
            options = DetectOptions(
                mode="exhaustive",
                netlist_decorator=defect_decorator(kind, seed),
            )
            report = detect_netlist(
                netlist, inst.on, inst.off, inst.transitions, options
            )
            if not report.hazard_free:
                flagged[kind] += 1
        assert total >= 20
        for kind, hits in flagged.items():
            assert hits >= 1, f"defect {kind!r} never tripped the detector"

    def test_detector_flags_agree_with_verifier(self):
        """Two-level mutants stay two-level, so ``as_cover`` bridges them
        back to the Theorem 2.11 oracle: every detector-flagged mutant
        must also be a 2.11 violation, and every detector-clean mutant
        must be free of Monte-Carlo glitches on its static transitions
        (ternary exactness)."""
        from repro.detect import DetectOptions, detect_netlist

        agreements = 0
        for inst, _, kind, seed, mutated in self._mutants():
            report = detect_netlist(
                mutated,
                inst.on,
                inst.off,
                inst.transitions,
                DetectOptions(mode="exhaustive"),
            )
            recovered = mutated.as_cover()
            network = Netlist.from_cover(recovered)
            if not report.hazard_free:
                assert verify_hazard_free_cover(inst, recovered), (
                    f"{inst.name}+{kind}@{seed}: detector flagged but the "
                    "Theorem 2.11 verifier accepted the recovered cover"
                )
                agreements += 1
            else:
                clean = {
                    (v.transition.start, v.transition.end, v.output)
                    for v in report.verdicts
                    if v.status == "clean"
                }
                for t in inst.transitions:
                    for j in range(inst.n_outputs):
                        if (t.start, t.end, j) not in clean:
                            continue
                        if network.evaluate(t.start)[j] != network.evaluate(t.end)[j]:
                            continue
                        assert (
                            find_glitch(network, t, trials=40, seed=5, output=j)
                            is None
                        ), f"{inst.name}+{kind}@{seed}: ternary-invisible glitch"
        assert agreements >= 3

    def test_decorator_without_site_raises(self):
        """A defect with no applicable site must fail loudly, not pass as
        a silently-clean mutant."""
        from repro.cubes.cube import Cube
        from repro.detect import DetectOptions, Netlist, NetlistError, detect_netlist
        from repro.detect.mutate import defect_decorator

        # Single 1-literal cube: no OR with two terms, no AND with two
        # literals — dropped_gate and widened_cube have nowhere to land.
        cover = Cover(2, [Cube.from_literals([2, 3])])
        netlist = Netlist.from_cover(cover, name="tiny")
        inst_on = cover
        inst_off = Cover(2, [Cube.from_literals([1, 3])])
        from repro.hazards.transitions import Transition

        t = Transition((1, 0), (1, 1))
        for kind in ("dropped_gate", "widened_cube"):
            options = DetectOptions(netlist_decorator=defect_decorator(kind))
            with pytest.raises(NetlistError, match="no site"):
                detect_netlist(netlist, inst_on, inst_off, [t], options)

    def test_unknown_defect_rejected(self):
        from repro.detect.mutate import defect_decorator
        from repro.detect import NetlistError

        with pytest.raises(NetlistError, match="unknown"):
            defect_decorator("gamma_ray")
