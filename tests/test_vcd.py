"""Tests for the VCD waveform exporter."""

from repro.cubes import Cover
from repro.hazards import Transition
from repro.detect.netlist import Netlist
from repro.simulate import find_glitch, waveform_to_vcd, trace_to_vcd
from repro.simulate.vcd import _identifier, write_vcd


class TestVcdFormat:
    def test_header_and_vars(self):
        text = waveform_to_vcd({"f": [(0.0, 1), (2.5, 0)]})
        assert "$timescale 1ns $end" in text
        assert "$var wire 1 ! f $end" in text
        assert "$enddefinitions $end" in text

    def test_initial_dump_and_edges(self):
        text = waveform_to_vcd({"f": [(0.0, 1), (2.0, 0), (4.0, 1)]})
        lines = text.splitlines()
        dump_at = lines.index("$dumpvars")
        assert lines[dump_at + 1] == "1!"
        assert "#200" in lines  # 2.0 * scale 100
        assert "#400" in lines

    def test_multiple_signals_share_timeline(self):
        text = waveform_to_vcd(
            {"a": [(0.0, 0), (1.0, 1)], "b": [(0.0, 1), (1.0, 0)]}
        )
        # both edges at tick 100 under a single #100 stamp
        assert text.count("#100") == 1

    def test_identifier_uniqueness(self):
        ids = {_identifier(i) for i in range(500)}
        assert len(ids) == 500

    def test_write_to_disk(self, tmp_path):
        path = tmp_path / "wave.vcd"
        write_vcd(path, {"x": [(0.0, 0), (1.0, 1)]})
        assert path.read_text().startswith("$date")


class TestTraceExport:
    def test_trace_to_vcd(self):
        edges = [(1.0, "x0", 1), (2.0, "y0", 1), (3.0, "y0", 0)]
        text = trace_to_vcd(edges, initial={"x0": 0, "y0": 0})
        assert "x0" in text and "y0" in text
        # y0's glitchy double edge appears at distinct times
        assert "#200" in text and "#300" in text

    def test_glitch_report_roundtrip(self):
        """A real glitch report renders into a parseable VCD."""
        net = Netlist.from_cover(Cover.from_strings(["11-", "0-1"]))
        t = Transition((1, 1, 1), (0, 1, 1))
        report = find_glitch(net, t, trials=300)
        assert report is not None
        text = waveform_to_vcd({"f": report.output_waveform})
        values = [
            line[0]
            for line in text.splitlines()
            if line and line[0] in "01" and line[1:] == "!"
        ]
        # the glitch 1 -> 0 -> 1 is visible in the dump
        assert values == ["1", "0", "1"]
