"""Randomized whole-stack validation, with failure capture as repro bundles.

This is the library form of what ``scripts/fuzz.py`` runs overnight:
generate random instances (direct and via burst-mode synthesis) and check
every cross-implementation invariant the repository maintains —

* Espresso-HF and the exact flow agree on solvability (Theorem 4.1);
* every produced cover passes the Theorem 2.11 verifier;
* Espresso-HF's cardinality is never below the exact minimum;
* the eight-valued algebra agrees the cover is clean;
* Monte-Carlo delay simulation finds no glitches.

Living in the guard package buys two things over the old script-only form:
a seeded deterministic slice runs in tier-1 CI
(``tests/test_fuzz_smoke.py``), and any failing seed is serialized as a
shrunk repro bundle instead of evaporating into an assertion message.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class FuzzOutcome:
    """Result of one fuzz iteration."""

    seed: int
    status: str  # "ok" | "unsolvable" | "skipped" | "failed"
    name: str = ""
    error: str = ""
    bundle_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Aggregate over a fuzz run."""

    outcomes: List[FuzzOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failures(self) -> List[FuzzOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def stats(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return counts


def check_instance(inst, budget=None, do_exact=True, do_sim=True) -> str:
    """Cross-check one instance across every implementation; returns status.

    Raises ``AssertionError`` on any cross-implementation disagreement —
    the caller (:func:`run_fuzz`) captures that as a repro bundle.
    """
    from repro.exact import ExactBudget, ExactFailure, exact_hazard_free_minimize
    from repro.guard.errors import NoSolutionError
    from repro.hazards.dhf import supercube_dhf
    from repro.hazards.verify import verify_hazard_free_cover
    from repro.hf import espresso_hf
    from repro.detect.netlist import Netlist
    from repro.simulate import find_glitch
    from repro.simulate.algebra import cover_hazard_free_by_algebra

    if budget is None:
        budget = ExactBudget(
            prime_limit=20_000,
            transform_limit=50_000,
            covering_node_limit=100_000,
            time_limit_s=20,
        )
    # Theorem 4.1 decided independently of the engine: one scalar
    # supercube_dhf per required cube, on Cube objects.
    failing = [
        (q.cube, q.output)
        for q in inst.required_cubes()
        if supercube_dhf(
            [q.cube],
            inst.privileged_for_output(q.output),
            inst.off_for_output(q.output),
        )
        is None
    ]
    exists = not failing
    try:
        hf = espresso_hf(inst)
    except NoSolutionError as exc:
        assert not exists, f"{inst.name}: HF refused a solvable instance"
        assert [(q.cube, q.output) for q in exc.failures] == failing, (
            f"{inst.name}: HF and the scalar check name different cubes"
        )
        if do_exact:
            try:
                exact = exact_hazard_free_minimize(inst, budget=budget)
            except ExactFailure:
                pass
            else:
                assert exact.status == "no_solution", (
                    f"{inst.name}: exact solved an unsolvable instance"
                )
                assert [(q.cube, q.output) for q in exact.failures] == failing, (
                    f"{inst.name}: exact and the scalar check name different cubes"
                )
        return "unsolvable"
    assert exists, f"{inst.name}: HF solved but Theorem 4.1 says unsolvable"
    violations = verify_hazard_free_cover(inst, hf.cover, collect_all=True)
    assert not violations, f"{inst.name}: {violations[:3]}"
    assert cover_hazard_free_by_algebra(inst, hf.cover), f"{inst.name}: algebra"
    if do_exact:
        try:
            exact = exact_hazard_free_minimize(inst, budget=budget)
            assert exact.status == "ok", (
                f"{inst.name}: exact says {exact.status} on an instance "
                "HF solved"
            )
            assert exact.num_cubes <= hf.num_cubes, (
                f"{inst.name}: exact {exact.num_cubes} > HF {hf.num_cubes}"
            )
            assert not verify_hazard_free_cover(inst, exact.cover)
        except ExactFailure:
            pass
    if do_sim:
        network = Netlist.from_cover(hf.cover)
        for j in range(min(inst.n_outputs, 4)):
            for t in inst.transitions[:6]:
                glitch = find_glitch(network, t, trials=30, seed=1, output=j)
                assert glitch is None, f"{inst.name}: {glitch}"
    return "ok"


def _instance_for_seed(seed: int, index: int):
    """Deterministic instance generator: alternate direct / synthesized.

    Even indices draw through the property-testing toolkit's builder
    (:func:`repro.proptest.strategies.seeded_instance`) — the same
    construction code the Hypothesis strategies shrink, driven by a seeded
    PRNG; odd indices go through burst-mode synthesis for specification-
    shaped inputs the direct builder never produces.
    """
    from repro.bm.random_spec import random_burst_mode_spec
    from repro.bm.spec import SpecError
    from repro.bm.synthesis import synthesize
    from repro.proptest.strategies import seeded_instance

    if index % 2 == 0:
        return seeded_instance(seed), True
    try:
        spec = random_burst_mode_spec(
            2 + seed % 4, 1 + seed % 3, 2 + seed % 4, seed=seed
        )
        return synthesize(spec).instance, (index % 4 == 1)
    except SpecError:
        return None, False


def run_fuzz(
    n_iterations: int = 200,
    base_seed: int = 0,
    exact_budget=None,
    bundle_dir: Optional[str] = None,
    progress_every: int = 25,
    verbose: bool = False,
) -> FuzzReport:
    """Run the fuzz loop; failures become bundles instead of raising.

    Deterministic for a given ``(n_iterations, base_seed)``.  When
    ``bundle_dir`` is set, a failing seed's instance is delta-debugged
    against its failure and serialized there.
    """
    report = FuzzReport()
    t0 = time.perf_counter()
    for i in range(n_iterations):
        seed = base_seed + i
        inst, do_exact = _instance_for_seed(seed, i)
        if inst is None:
            report.outcomes.append(FuzzOutcome(seed=seed, status="skipped"))
            continue
        try:
            status = check_instance(inst, budget=exact_budget, do_exact=do_exact)
            report.outcomes.append(
                FuzzOutcome(seed=seed, status=status, name=inst.name)
            )
        except Exception as exc:  # noqa: BLE001 - capture, bundle, continue
            outcome = FuzzOutcome(
                seed=seed,
                status="failed",
                name=inst.name,
                error=f"{type(exc).__name__}: {exc}",
            )
            if bundle_dir:
                outcome.bundle_path = _bundle_fuzz_failure(
                    inst, outcome.error, seed, bundle_dir, exact_budget
                )
            report.outcomes.append(outcome)
        if verbose and progress_every and (i + 1) % progress_every == 0:
            print(
                f"  {i + 1}/{n_iterations} "
                f"({time.perf_counter() - t0:.0f}s) {report.stats()}",
                flush=True,
            )
    report.elapsed_s = time.perf_counter() - t0
    return report


def _bundle_fuzz_failure(
    inst, error: str, seed: int, bundle_dir: str, exact_budget
) -> Optional[str]:
    """Shrink a failing fuzz instance against its check and bundle it."""
    from repro.guard.bundle import write_bundle
    from repro.guard.shrink import shrink_instance

    def reproduces(candidate) -> bool:
        try:
            check_instance(candidate, budget=exact_budget, do_exact=False)
            return False
        except Exception:  # noqa: BLE001 - any failure reproduces
            return True

    shrink_meta: Dict = {}
    shrunk = inst
    try:
        if reproduces(inst):
            result = shrink_instance(inst, reproduces, max_evaluations=60)
            shrunk = result.instance
            shrink_meta = result.as_dict()
    except Exception:  # noqa: BLE001 - shrinking must never mask the bug
        shrunk = inst
        shrink_meta = {}
    try:
        return write_bundle(
            shrunk,
            failure_kind="crash",
            failure_message=f"fuzz seed {seed}: {error}",
            failure_phase="fuzz",
            trace=[f"fuzz-seed:{seed}"],
            shrink=shrink_meta,
            bundle_dir=bundle_dir,
        )
    except Exception:  # noqa: BLE001 - bundling is best-effort
        return None
