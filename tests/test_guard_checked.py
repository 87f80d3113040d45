"""Checked mode: invariant checkpoints, scalar fallback, bundles, shrinking.

The acceptance scenario from the guarded-runtime work: inject a fault into
the coverage-bitset engine, run in checked mode, and the run must (a)
detect the scalar-vs-bitset divergence, (b) fall back to the scalar
engine and still produce a verified hazard-free cover, and (c) leave
behind a shrunk, replayable repro bundle.
"""

import importlib
import json

import pytest

from repro.bm.benchmarks import build_benchmark
from repro.guard.bundle import (
    load_bundle,
    probe_failure,
    replay_bundle,
    write_bundle,
)
from repro.guard.errors import InvariantViolation
from repro.guard.invariants import check_phase
from repro.guard.runner import guarded_espresso_hf
from repro.guard.shrink import shrink_instance
from repro.hazards.verify import verify_hazard_free_cover
from repro.hf import EspressoHFOptions, espresso_hf
from repro.hf.context import HFContext

from tests.test_hazards import figure3_instance


def drop_a_bit(inbits, outbits, mask):
    """Coverage-engine fault model: lose one covered bit from every mask."""
    return mask & (mask - 1) if mask else mask


class TestCheckedMode:
    def test_clean_run_passes_all_checkpoints(self):
        result = espresso_hf(figure3_instance(), EspressoHFOptions(checked=True))
        assert result.status == "ok"
        assert result.counters.invariant_checks > 0
        assert result.counters.crosscheck_divergences == 0
        assert result.counters.scalar_fallbacks == 0

    def test_checked_mode_matches_unchecked_result(self):
        instance = build_benchmark("dram-ctrl")
        plain = espresso_hf(instance)
        checked = espresso_hf(instance, EspressoHFOptions(checked=True))
        assert checked.num_cubes == plain.num_cubes
        assert sorted((c.inbits, c.outbits) for c in checked.cover) == sorted(
            (c.inbits, c.outbits) for c in plain.cover
        )

    def test_injected_fault_triggers_scalar_fallback(self):
        instance = build_benchmark("dram-ctrl")
        options = EspressoHFOptions(checked=True, coverage_fault_hook=drop_a_bit)
        result = espresso_hf(instance, options)
        # the divergence was caught, the engine swapped out, the run recovered
        assert result.counters.crosscheck_divergences > 0
        assert result.counters.scalar_fallbacks == 1
        assert any(l.startswith("scalar-fallback@") for l in result.trace)
        assert not verify_hazard_free_cover(instance, result.cover)

    def test_unchecked_run_does_not_notice_the_fault(self):
        # Control: without checked mode nothing cross-checks the engine —
        # the corrupted coverage either slips through silently or blows up
        # as a raw internal error; there is no detection and no fallback.
        instance = figure3_instance()
        options = EspressoHFOptions(coverage_fault_hook=drop_a_bit)
        try:
            result = espresso_hf(instance, options)
        except Exception:
            return  # crashed deep inside an operator: exactly the failure
        assert result.counters.crosscheck_divergences == 0
        assert result.counters.scalar_fallbacks == 0

    def test_check_phase_raises_on_uncovered_required(self):
        instance = figure3_instance()
        ctx = HFContext(instance, checked=True)
        reqs = ctx.canonical_required()
        assert reqs
        with pytest.raises(InvariantViolation) as info:
            check_phase(ctx, "unit-test", [], reqs)
        assert info.value.phase == "unit-test"
        assert info.value.violations
        assert info.value.exit_code == 3
        assert isinstance(info.value, AssertionError)


class TestBundles:
    def test_guarded_run_writes_shrunk_replayable_bundle(self, tmp_path):
        instance = build_benchmark("dram-ctrl")
        options = EspressoHFOptions(checked=True, coverage_fault_hook=drop_a_bit)
        result = guarded_espresso_hf(instance, options, bundle_dir=str(tmp_path))
        # the run recovered (scalar fallback) but evidence was preserved
        assert not verify_hazard_free_cover(instance, result.cover)
        bundle_lines = [l for l in result.trace if l.startswith("bundle:")]
        assert len(bundle_lines) == 1
        path = bundle_lines[0].split(":", 1)[1]

        bundle = load_bundle(path)
        assert bundle.failure_kind == "crosscheck_divergence"
        # shrinking made real progress on a 9-input, 10-output circuit
        assert bundle.shrink["shrunk"]["n_transitions"] <= (
            bundle.shrink["original"]["n_transitions"]
        )
        assert bundle.shrink["shrunk"]["n_outputs"] < (
            bundle.shrink["original"]["n_outputs"]
        )
        # the bundle replays: same failure kind under the same fault
        replay = replay_bundle(path, fault_hook=drop_a_bit)
        assert replay["reproduced"], replay

    def test_bundle_is_self_contained_json(self, tmp_path):
        instance = figure3_instance()
        path = write_bundle(
            instance,
            failure_kind="crash",
            failure_message="unit test",
            options=EspressoHFOptions(),
            trace=["phase:x"],
            bundle_dir=str(tmp_path),
        )
        data = json.loads(open(path).read())
        assert data["format"] == "espresso-hf-repro-bundle"
        assert ".trans" in data["pla"]
        # round-trip: the embedded PLA reconstructs an equivalent instance
        rebuilt = load_bundle(path).instance()
        assert rebuilt.n_inputs == instance.n_inputs
        assert len(rebuilt.transitions) == len(instance.transitions)

    def test_content_addressing_dedupes_rewrites(self, tmp_path):
        instance = figure3_instance()
        p1 = write_bundle(instance, "crash", "same", bundle_dir=str(tmp_path))
        p2 = write_bundle(instance, "crash", "same", bundle_dir=str(tmp_path))
        assert p1 == p2
        assert len(list(tmp_path.iterdir())) == 1

    def test_probe_failure_clean_on_healthy_instance(self):
        assert probe_failure(figure3_instance()) is None

    def test_probe_failure_detects_injected_fault(self):
        kind = probe_failure(figure3_instance(), fault_hook=drop_a_bit)
        assert kind == "crosscheck_divergence"

    def test_replay_keeps_recorded_passes(self, tmp_path, monkeypatch):
        """A bundle recorded under a custom pipeline replays (and so
        shrinks) against that pipeline, not the default one."""
        # ``repro.hf.espresso_hf`` names the function on the package, so
        # fetch the module itself.
        hf_module = importlib.import_module("repro.hf.espresso_hf")
        seen = []
        run = hf_module.espresso_hf

        def spy(instance, options=None):
            seen.append(options)
            return run(instance, options)

        monkeypatch.setattr(hf_module, "espresso_hf", spy)
        passes = ("essentials", "loop")
        options = EspressoHFOptions(passes=passes, use_last_gasp=False)
        path = write_bundle(
            figure3_instance(), "crash", "x", options=options,
            bundle_dir=str(tmp_path),
        )
        replay_bundle(path)
        probe_failure(figure3_instance(), options, fault_hook=drop_a_bit)
        assert [o.passes for o in seen] == [passes, passes]
        assert [o.use_last_gasp for o in seen] == [False, False]
        assert all(o.checked and o.budget is None for o in seen)
        assert seen[0].coverage_fault_hook is None
        assert seen[1].coverage_fault_hook is drop_a_bit


class TestShrink:
    def test_shrink_respects_predicate(self):
        instance = build_benchmark("dram-ctrl")

        def reproduces(candidate):
            return probe_failure(candidate, fault_hook=drop_a_bit) == (
                "crosscheck_divergence"
            )

        assert reproduces(instance)
        result = shrink_instance(instance, reproduces, max_evaluations=120)
        assert reproduces(result.instance)
        assert result.shrunk["n_transitions"] <= result.original["n_transitions"]
        assert result.shrunk["n_outputs"] <= result.original["n_outputs"]
        assert result.evaluations <= 120

    def test_shrink_keeps_at_least_one_transition(self):
        instance = figure3_instance()
        result = shrink_instance(instance, lambda _c: True, max_evaluations=60)
        assert len(result.instance.transitions) >= 1

    def test_shrink_of_nonreducible_failure_is_identity(self):
        instance = figure3_instance()
        result = shrink_instance(instance, lambda _c: False, max_evaluations=60)
        assert result.instance is instance
