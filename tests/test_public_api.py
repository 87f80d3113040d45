"""The documented top-level API works as advertised."""

import importlib

import pytest

import repro
from repro.guard.runner import guarded_espresso_hf
from repro.hf import HFResult, espresso_hf
from repro.perf import PerfCounters


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_example(self):
        on = repro.Cover.from_strings(["-1--", "1-0-", "0-00"])
        off = repro.Cover.from_strings(["-01-", "0001"])
        instance = repro.HazardFreeInstance(
            on, off, [repro.Transition((0, 1, 0, 0), (0, 0, 0, 1))]
        )
        assert repro.hazard_free_solution_exists(instance)
        result = repro.espresso_hf(instance)
        assert repro.verify_hazard_free_cover(instance, result.cover) == []

    def test_exact_from_top_level(self):
        on = repro.Cover.from_strings(["-1"])
        off = repro.Cover.from_strings(["-0"])
        instance = repro.HazardFreeInstance(
            on, off, [repro.Transition((0, 1), (1, 1))]
        )
        exact = repro.exact_hazard_free_minimize(
            instance, budget=repro.ExactBudget(time_limit_s=10)
        )
        assert exact.num_cubes == 1

    def test_subpackages_importable(self):
        for name in (
            "bench", "bm", "cli", "cubes", "espresso", "exact", "hazards",
            "hf", "mincov", "pipeline", "pla", "report", "serve", "simulate",
        ):
            importlib.import_module(f"repro.{name}")


class TestNoSessionApi:
    """Stored-and-replayed covers are not part of the API: every run is
    cold, and repeated submissions are answered by ``serve``'s cache."""

    @pytest.mark.parametrize("entry", [espresso_hf, guarded_espresso_hf])
    @pytest.mark.parametrize("keyword", ["warm_start", "capture_session"])
    def test_session_keywords_are_rejected(self, entry, keyword):
        on = repro.Cover.from_strings(["-1"])
        off = repro.Cover.from_strings(["-0"])
        instance = repro.HazardFreeInstance(
            on, off, [repro.Transition((0, 1), (1, 1))]
        )
        with pytest.raises(TypeError, match=keyword):
            entry(instance, **{keyword: None})

    def test_session_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.session")

    def test_result_has_no_session_fields(self):
        names = set(HFResult.__dataclass_fields__)
        assert not names & {"warm", "session"}

    def test_counters_have_no_warm_reverify_key(self):
        assert "warm_cubes_reverified" not in PerfCounters().as_dict()
