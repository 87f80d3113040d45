"""The documented top-level API works as advertised."""

import importlib

import repro


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
