"""Tests for the espresso-hf command-line interface."""

from pathlib import Path

import pytest

from repro.cli import (
    EXIT_MALFORMED,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    main,
)
from repro.pla import parse_pla, write_pla
from repro.bench.figure1 import figure1_instance

from tests.test_hazards import figure3_instance, unsolvable_instance

BENCH_DIR = Path(__file__).resolve().parents[1] / "data" / "benchmarks"


@pytest.fixture
def fig3_pla(tmp_path):
    path = tmp_path / "fig3.pla"
    write_pla(figure3_instance(), path)
    return str(path)


@pytest.fixture
def unsolvable_pla(tmp_path):
    path = tmp_path / "bad.pla"
    write_pla(unsolvable_instance(), path)
    return str(path)


class TestCli:
    def test_minimize_to_stdout(self, fig3_pla, capsys):
        assert main([fig3_pla]) == EXIT_OK
        out = capsys.readouterr().out
        assert ".p 3" in out

    def test_minimize_to_file(self, fig3_pla, tmp_path, capsys):
        out_path = tmp_path / "result.pla"
        assert main([fig3_pla, "-o", str(out_path), "--verify"]) == EXIT_OK
        pla = parse_pla(out_path.read_text())
        assert len(pla.on) == 3

    def test_exact_mode(self, fig3_pla, capsys):
        assert main([fig3_pla, "--exact"]) == EXIT_OK
        out = capsys.readouterr().out
        assert ".p 3" in out

    def test_existence_only(self, fig3_pla, unsolvable_pla, capsys):
        assert main([fig3_pla, "--check-existence"]) == EXIT_OK
        assert main([unsolvable_pla, "--check-existence"]) == EXIT_NO_SOLUTION
        out = capsys.readouterr().out
        assert out.endswith(
            "no hazard-free cover exists (Theorem 4.1); "
            "offending required cubes: -10 (output 0)\n"
        )

    def test_unsolvable_exit_code(self, unsolvable_pla, capsys):
        assert main([unsolvable_pla]) == EXIT_NO_SOLUTION
        err = capsys.readouterr().err
        assert "no hazard-free cover exists" in err

    def test_bad_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text("garbage\n")
        assert main([str(bad)]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" == err[err.index("\n") :]  # one-line diagnostic

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.pla")]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        # argparse would exit(2); the CLI remaps usage errors to 1.
        assert main(["--no-such-flag"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--session-in", "--session-out"])
    def test_retired_session_flags_are_usage_errors(self, flag, tmp_path, capsys):
        # The session flags no longer exist: argparse rejects them before
        # any minimization runs.
        bench = Path(__file__).resolve().parent.parent / "data" / "benchmarks"
        out_path = tmp_path / "cover.pla"
        argv = [str(bench / "cache-ctrl.pla"), flag, str(tmp_path / "x.json")]
        assert main(argv + ["-o", str(out_path)]) == EXIT_USAGE
        assert not out_path.exists()
        assert ".p " not in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "exit" not in capsys.readouterr().err

    def test_option_flags(self, fig3_pla):
        assert main([fig3_pla, "--no-essentials", "--no-last-gasp",
                     "--no-make-prime", "--stats", "--verify"]) == EXIT_OK

    def test_pipeline_flag_selects_stages(self, fig3_pla, capsys):
        assert main(
            [fig3_pla, "--pipeline", "essentials,loop", "--verify"]
        ) == EXIT_OK
        assert ".p " in capsys.readouterr().out

    def test_pipeline_flag_rejects_bad_stage(self, fig3_pla, capsys):
        assert main([fig3_pla, "--pipeline", "nonsense"]) == EXIT_USAGE
        assert "unknown pipeline stage" in capsys.readouterr().err

    def test_pipeline_flag_rejects_misplaced_make_prime(self, fig3_pla, capsys):
        assert main([fig3_pla, "--pipeline", "make_prime,loop"]) == EXIT_USAGE
        assert "must be last" in capsys.readouterr().err

    def test_jobs_flag_runs_per_output_mode(self, fig3_pla, capsys):
        assert main([fig3_pla, "--jobs", "2", "--verify", "--stats"]) == EXIT_OK
        assert ".p 3" in capsys.readouterr().out

    def test_checked_mode(self, fig3_pla, tmp_path, capsys):
        assert main([
            fig3_pla, "--checked", "--verify",
            "--bundle-dir", str(tmp_path / "artifacts"),
        ]) == EXIT_OK
        assert ".p 3" in capsys.readouterr().out

    def test_figure1_via_cli(self, tmp_path, capsys):
        path = tmp_path / "fig1.pla"
        write_pla(figure1_instance(), path)
        assert main([str(path), "--verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert ".p 5" in out


class TestCliTimeout:
    def test_isolated_run_ok(self, fig3_pla, tmp_path, capsys):
        assert main([
            fig3_pla, "--timeout", "120", "--verify",
            "--bundle-dir", str(tmp_path / "artifacts"),
        ]) == EXIT_OK
        assert ".p 3" in capsys.readouterr().out

    def test_isolated_run_unsolvable(self, unsolvable_pla, tmp_path, capsys):
        assert main([
            unsolvable_pla, "--timeout", "120",
            "--bundle-dir", str(tmp_path / "artifacts"),
        ]) == EXIT_NO_SOLUTION
        assert "no hazard-free cover exists" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["dram-ctrl", "cache-ctrl"])
    def test_isolated_run_prints_the_in_process_cover(self, name, capsys):
        # The isolated run reads its cover back from the row's integer
        # rows, so its stdout must equal the in-process run's byte for byte.
        path = str(BENCH_DIR / f"{name}.pla")
        assert main([path]) == EXIT_OK
        in_process = capsys.readouterr().out
        assert main([path, "--timeout", "120"]) == EXIT_OK
        assert capsys.readouterr().out == in_process

    def test_isolated_run_timeout(self, fig3_pla, tmp_path, capsys, monkeypatch):
        # Force the subprocess over its deadline regardless of machine speed.
        import repro.guard.runner as runner

        real_run_one = runner.run_one

        def tiny_timeout(payload, timeout_s=None, bundle_dir=None):
            payload = dict(payload, repeats=10_000_000)
            return real_run_one(payload, timeout_s=0.2, bundle_dir=bundle_dir)

        monkeypatch.setattr(runner, "run_one", tiny_timeout)
        assert main([
            fig3_pla, "--timeout", "0.2",
            "--bundle-dir", str(tmp_path / "artifacts"),
        ]) == EXIT_TIMEOUT
        err = capsys.readouterr().err
        assert "timeout" in err
