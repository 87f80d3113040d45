"""Tests for the statistics/report module and its CLI integration."""

from repro.cli import main as cli_main
from repro.cubes import Cover
from repro.pla import write_pla
from repro.report import cover_stats, instance_stats, minimization_report
from repro.hf import espresso_hf

from tests.test_hazards import figure3_instance


class TestInstanceStats:
    def test_counts(self):
        stats = instance_stats(figure3_instance())
        assert stats.n_inputs == 4
        assert stats.n_outputs == 1
        assert stats.n_transitions == 5
        assert stats.n_required_cubes == 7
        assert stats.n_privileged_cubes == 2

    def test_transition_kinds(self):
        stats = instance_stats(figure3_instance())
        assert stats.transitions_by_kind == {"1->1": 3, "1->0": 2}

    def test_lines_render(self):
        lines = instance_stats(figure3_instance()).lines()
        assert any("required cubes" in l for l in lines)


class TestCoverStats:
    def test_metrics(self):
        cover = Cover.from_strings(["11- 10", "0-1 11"])
        stats = cover_stats(cover)
        assert stats.n_cubes == 2
        assert stats.n_literals == 4
        assert stats.output_connections == 3
        assert stats.pla_area == 2 * (2 * 3 + 2)
        assert stats.avg_fanin == 2.0

    def test_empty_cover(self):
        stats = cover_stats(Cover(3))
        assert stats.pla_area == 0
        assert stats.avg_fanin == 0.0


class TestReport:
    def test_report_with_baseline(self):
        inst = figure3_instance()
        cover = espresso_hf(inst).cover
        baseline = Cover(
            inst.n_inputs,
            [q.cube.with_outputs(1) for q in inst.required_cubes()],
            1,
        )
        text = minimization_report(inst, cover, baseline)
        assert "vs baseline: 7 -> 3 products" in text
        assert "PLA area" in text

    def test_cli_report_and_simulate(self, tmp_path, capsys):
        path = tmp_path / "fig3.pla"
        write_pla(figure3_instance(), path)
        assert cli_main([str(path), "--report", "--simulate", "25"]) == 0
        err = capsys.readouterr().err
        assert "PLA area" in err
        assert "simulation clean" in err
