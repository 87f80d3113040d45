"""Section 4's claim: the Theorem 4.1 existence check is much faster than
deciding existence through the exact flow's dhf-prime table.

The fast check is a handful of forced supercube expansions per required
cube; the exact route must generate *all* dhf-primes first.  On the large
circuits the exact route does not finish at all, while the fast check still
answers — reproduced here as the ultimate speedup.
"""

import pytest

from benchmarks.conftest import BENCH_EXACT_BUDGET, EXACT_FAILING, SMALL_CIRCUITS
from repro.bm.random_spec import random_instance
from repro.exact import all_dhf_primes
from repro.espresso.primes import PrimeExplosionError
from repro.exact.dhf_primes import DhfTransformExplosionError
from repro.hazards import existence_report, hazard_free_solution_exists


@pytest.mark.parametrize("name", SMALL_CIRCUITS + ["stetson-p2", "sd-control"])
def test_fast_existence(benchmark, instances, name):
    instance = instances[name]
    exists = benchmark(lambda: hazard_free_solution_exists(instance))
    assert exists


@pytest.mark.parametrize("name", SMALL_CIRCUITS)
def test_existence_via_dhf_prime_table(benchmark, instances, name):
    """The exact route: generate all dhf-primes, check the table (slow)."""
    instance = instances[name]

    def run():
        primes = all_dhf_primes(instance)
        for q in instance.required_cubes():
            if not any(
                p.has_output(q.output) and p.contains_input(q.cube) for p in primes
            ):
                return False
        return True

    assert benchmark(run)


@pytest.mark.parametrize("name", EXACT_FAILING)
def test_fast_existence_answers_where_exact_route_cannot(benchmark, instances, name):
    """On the three paper-failing circuits the dhf-prime route explodes but
    Theorem 4.1 still answers instantly."""
    instance = instances[name]
    exists = benchmark.pedantic(
        lambda: hazard_free_solution_exists(instance), rounds=1, iterations=1
    )
    assert exists
    with pytest.raises((PrimeExplosionError, DhfTransformExplosionError)):
        all_dhf_primes(
            instance,
            prime_limit=BENCH_EXACT_BUDGET.prime_limit,
            transform_limit=BENCH_EXACT_BUDGET.transform_limit,
            deadline=__import__("time").perf_counter() + BENCH_EXACT_BUDGET.time_limit_s,
        )


def test_existence_agrees_with_exact_route_on_random(benchmark):
    """Both existence criteria agree (including unsolvable instances)."""

    def run():
        agree = 0
        for seed in range(40):
            inst = random_instance(4, 1, n_transitions=3, seed=seed)
            fast = hazard_free_solution_exists(inst)
            primes = all_dhf_primes(inst)
            slow = all(
                any(p.contains_input(q.cube) for p in primes)
                for q in inst.required_cubes()
            )
            assert fast == slow
            agree += 1
        return agree

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 40


def test_existence_report_details(benchmark, instances):
    """A solvable circuit's report names no failing required cube."""
    instance = instances["dram-ctrl"]
    report = benchmark(lambda: existence_report(instance))
    assert report.exists
    assert report.failures == []
