"""Tests for the hand-written burst-mode controller library."""

import pytest

from repro.bm import build_controller, controller_names, synthesize
from repro.bm.library import (
    dma_controller,
    dram_refresh_controller,
    handshake,
    pe_send_interface,
    scsi_target_send,
)
from repro.hazards import hazard_free_solution_exists
from repro.hazards.verify import is_hazard_free_cover
from repro.hf import espresso_hf
from repro.detect.netlist import Netlist
from repro.simulate import find_glitch


class TestLibraryRegistry:
    def test_names(self):
        assert controller_names() == [
            "dma-controller",
            "dram-refresh",
            "handshake",
            "pe-send-ifc",
            "scsi-target-send",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            build_controller("nope")

    def test_factories_fresh(self):
        a = build_controller("handshake")
        b = build_controller("handshake")
        assert a is not b


@pytest.mark.parametrize("name", controller_names())
class TestEveryController:
    def test_synthesizes_and_solves(self, name):
        spec = build_controller(name)
        result = synthesize(spec)
        instance = result.instance
        assert hazard_free_solution_exists(instance)
        hf = espresso_hf(instance)
        assert is_hazard_free_cover(instance, hf.cover)

    def test_simulation_clean(self, name):
        instance = synthesize(build_controller(name)).instance
        cover = espresso_hf(instance).cover
        network = Netlist.from_cover(cover)
        for j in range(min(instance.n_outputs, 3)):
            for t in instance.transitions[:4]:
                assert find_glitch(network, t, trials=40, seed=1, output=j) is None


class TestSpecificControllers:
    def test_handshake_unrolls_to_two_states(self):
        assert synthesize(handshake()).n_synth_states == 2

    def test_dma_unrolls_to_six(self):
        # each spec state appears with two polarity sets
        assert synthesize(dma_controller()).n_synth_states == 6

    def test_scsi_returns_to_initial_polarity(self):
        # the closing burst toggles everything back: exactly 4 total states
        assert synthesize(scsi_target_send()).n_synth_states == 4

    def test_dram_refresh_has_choice(self):
        spec = dram_refresh_controller()
        idle = spec.states["idle"]
        assert len(idle.transitions) == 2  # refresh vs access

    def test_pe_send_withdrawal_path(self):
        spec = pe_send_interface()
        armed = spec.states["armed"]
        targets = {t.target for t in armed.transitions}
        assert targets == {"sending", "idle"}
