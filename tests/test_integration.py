"""End-to-end integration tests across package boundaries."""

import subprocess
import sys

import pytest

from repro.bm import build_controller, synthesize
from repro.bm.benchmarks import build_benchmark
from repro.cli import main as cli_main
from repro.exact import exact_hazard_free_minimize, ExactBudget
from repro.hazards import hazard_free_solution_exists
from repro.hazards.verify import is_hazard_free_cover, verify_hazard_free_cover
from repro.hf import espresso_hf, espresso_hf_per_output
from repro.pla import read_pla, write_pla
from repro.detect.netlist import Netlist
from repro.simulate import find_glitch, has_static_hazard_ternary
from repro.hazards.transitions import TransitionKind


class TestSpecToSiliconPipeline:
    """spec -> synthesis -> PLA round-trip -> minimize -> verify -> simulate."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pipeline")
        spec = build_controller("scsi-target-send")
        synth = synthesize(spec)
        path = tmp / "scsi.pla"
        write_pla(synth.instance, path)
        instance = read_pla(path).to_instance()
        result = espresso_hf(instance)
        return instance, result

    def test_round_tripped_instance_minimizes(self, pipeline):
        instance, result = pipeline
        assert result.num_cubes > 0
        assert is_hazard_free_cover(instance, result.cover)

    def test_every_output_simulates_clean(self, pipeline):
        instance, result = pipeline
        network = Netlist.from_cover(result.cover)
        for j in range(instance.n_outputs):
            for t in instance.transitions:
                assert find_glitch(network, t, trials=50, seed=j, output=j) is None

    def test_static_transitions_pass_ternary(self, pipeline):
        instance, result = pipeline
        network = Netlist.from_cover(result.cover)
        for j in range(instance.n_outputs):
            for t in instance.transitions:
                kind = instance.kind(t, j)
                if kind in (TransitionKind.STATIC_ONE, TransitionKind.STATIC_ZERO):
                    assert not has_static_hazard_ternary(network, t, output=j)

    def test_exact_agrees_on_this_controller(self, pipeline):
        instance, result = pipeline
        exact = exact_hazard_free_minimize(
            instance, budget=ExactBudget(time_limit_s=60)
        )
        assert exact.num_cubes <= result.num_cubes
        assert is_hazard_free_cover(instance, exact.cover)


class TestBenchmarkPipeline:
    def test_suite_circuit_full_flow(self, tmp_path):
        instance = build_benchmark("sscsi-trcv-bm")
        hf = espresso_hf(instance)
        per_output = espresso_hf_per_output(instance)
        exact = exact_hazard_free_minimize(
            instance, budget=ExactBudget(time_limit_s=60)
        )
        assert exact.num_cubes <= hf.num_cubes <= per_output.num_cubes
        for cover in (hf.cover, per_output.cover, exact.cover):
            assert is_hazard_free_cover(instance, cover)
        out = tmp_path / "min.pla"
        write_pla(hf.cover, out, pla_type="f")
        back = read_pla(out)
        assert len(back.on) == hf.num_cubes

    def test_cli_on_synthesized_controller(self, tmp_path):
        instance = synthesize(build_controller("dma-controller")).instance
        src = tmp_path / "dma.pla"
        out = tmp_path / "dma.min.pla"
        write_pla(instance, src)
        assert cli_main([str(src), "-o", str(out), "--verify"]) == 0
        minimized = read_pla(out)
        cover = minimized.on
        assert is_hazard_free_cover(instance, cover)

    def test_cli_subprocess_entry_point(self, tmp_path):
        """python -m repro.cli works as a real process."""
        instance = synthesize(build_controller("handshake")).instance
        src = tmp_path / "hs.pla"
        write_pla(instance, src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(src), "--verify", "--stats"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert ".p" in proc.stdout


class TestCrossMinimizerConsistency:
    """All three hazard-free flows agree on solvability and validity."""

    @pytest.mark.parametrize("name", ["handshake", "dma-controller", "pe-send-ifc"])
    def test_library_controller(self, name):
        instance = synthesize(build_controller(name)).instance
        assert hazard_free_solution_exists(instance)
        hf = espresso_hf(instance)
        exact = exact_hazard_free_minimize(
            instance, budget=ExactBudget(time_limit_s=60)
        )
        assert exact.num_cubes <= hf.num_cubes
        assert verify_hazard_free_cover(instance, hf.cover) == []
        assert verify_hazard_free_cover(instance, exact.cover) == []
