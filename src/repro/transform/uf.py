"""The hazard-free rewrite ``u(f)``: any circuit → a hazard-free one.

Ikenmeyer et al. prove every boolean function has a hazard-free circuit
(at worst the complete sum / DNF of prime implicants) and give the
hazard-derivative machinery for constructing one.  This module ships the
practical two-level instantiation in two strengths:

* ``mode="transitions"`` — the *transition-scoped* rewrite.  Take the
  instance's required cubes (Definition 2.9, via
  :func:`repro.hazards.required.maximal_on_subcubes`) and raise each to
  a prime against its output's OFF cubes (``CoverColumns.raise_to_prime``
  over ``instance.off_columns``).  For a
  function-hazard-free instance every constant-1 subcube of a specified
  transition lies inside a single required cube (the ``[A, p]``
  downward-closure lemma), so the result is **hazard-free at every
  ternary point of every specified transition** — including instances
  Espresso-HF must refuse as unsolvable, because condition (c)
  (privileged-cube intersections) never constrains this construction.
* ``mode="complete"`` — the complete sum: *all* prime implicants per
  output (:func:`repro.espresso.primes.all_primes`, budget-gated).
  Hazard-free at every ternary point of the whole cube — the classical
  worst-case-size certificate, kept as the strongest guarantee for
  small functions.

The scoreboard (``scripts/detect_run.py``) compares both against
Espresso-HF covers for size/depth/latency; ``docs/DETECTION.md`` states
the guarantees precisely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cubes.containment import maximal
from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.detect.netlist import Netlist
from repro.espresso.primes import PrimeExplosionError, all_primes
from repro.guard.budget import RunBudget
from repro.guard.errors import BudgetExceeded
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition
from repro.obs.metrics import MetricsRegistry

#: Live-cube cap handed to :func:`all_primes` in ``complete`` mode.
DEFAULT_PRIME_LIMIT = 20_000

MODES = ("transitions", "complete")


@dataclass
class TransformResult:
    """Outcome of one ``u(f)`` rewrite."""

    name: str
    mode: str
    cover: Cover
    netlist: Netlist
    elapsed_s: float
    cubes_by_output: Dict[int, int] = field(default_factory=dict)

    @property
    def num_cubes(self) -> int:
        return len(self.cover.cubes)

    @property
    def num_gates(self) -> int:
        return self.netlist.num_gates

    @property
    def depth(self) -> int:
        return self.netlist.depth

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "mode": self.mode,
            "num_cubes": self.num_cubes,
            "num_gates": self.num_gates,
            "num_literals": self.netlist.num_literals,
            "depth": self.depth,
            "elapsed_s": round(self.elapsed_s, 6),
        }


def transform_instance(
    instance: HazardFreeInstance,
    mode: str = "transitions",
    budget: Optional[RunBudget] = None,
    registry: Optional[MetricsRegistry] = None,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
) -> TransformResult:
    """Build the hazard-free two-level rewrite of an instance."""
    if mode not in MODES:
        raise ValueError(f"unknown transform mode {mode!r}")
    t0 = time.perf_counter()
    n, n_out = instance.n_inputs, instance.n_outputs
    # the input parts of the candidate cubes, per output
    per_output: Dict[int, List[int]] = {j: [] for j in range(n_out)}
    if mode == "transitions":
        off = instance.off_columns
        for rq in instance.required_cubes():
            if budget is not None:
                budget.checkpoint("transform")
            inbits = off.raise_to_prime(rq.cube.inbits, off.by_output[rq.output])
            per_output[rq.output].append(inbits)
    else:
        deadline = None
        if budget is not None and budget.wall_s is not None:
            budget.start()
            deadline = time.perf_counter() + budget.wall_s
        for j in range(n_out):
            on_j = instance.on.restrict_to_output(j)
            try:
                primes = all_primes(on_j, limit=prime_limit, deadline=deadline)
            except PrimeExplosionError as exc:
                raise BudgetExceeded(
                    f"{instance.name}: complete-sum u(f) exploded on "
                    f"output {j}: {exc}"
                )
            per_output[j].extend(p.inbits for p in primes)
    by_inbits: Dict[int, int] = {}
    cubes_by_output: Dict[int, int] = {}
    for j, rows in per_output.items():
        kept = maximal(rows)
        cubes_by_output[j] = len(kept)
        for i in kept:
            by_inbits[rows[i]] = by_inbits.get(rows[i], 0) | (1 << j)
    cover = Cover(n, (), n_out)
    for inbits in sorted(by_inbits):
        cover.append(Cube(n, inbits, by_inbits[inbits], n_out))
    netlist = Netlist.from_cover(cover, name=f"uf({instance.name})")
    elapsed = time.perf_counter() - t0
    if registry is not None:
        registry.counter("transform.runs").inc()
        registry.counter("transform.cubes_out").inc(len(cover.cubes))
        registry.histogram("transform.elapsed_s").observe(elapsed)
    return TransformResult(
        name=instance.name,
        mode=mode,
        cover=cover,
        netlist=netlist,
        elapsed_s=elapsed,
        cubes_by_output=cubes_by_output,
    )


def transform_netlist(
    netlist: Netlist,
    transitions: Sequence[Transition] = (),
    budget: Optional[RunBudget] = None,
    registry: Optional[MetricsRegistry] = None,
    max_inputs: Optional[int] = None,
) -> TransformResult:
    """Rewrite a foreign netlist into a hazard-free two-level network.

    With transitions the rewrite is transition-scoped; without, the
    complete sum certifies hazard-freedom at *every* ternary point.
    Function extraction enumerates ``2^n`` vectors, so this entry point
    is for interface-scale circuits.
    """
    from repro.transform.extract import DEFAULT_MAX_INPUTS, extract_covers

    on, off = extract_covers(
        netlist,
        max_inputs=DEFAULT_MAX_INPUTS if max_inputs is None else max_inputs,
    )
    if transitions:
        instance = HazardFreeInstance(
            on, off, list(transitions), name=netlist.name
        )
        return transform_instance(
            instance, mode="transitions", budget=budget, registry=registry
        )
    instance = HazardFreeInstance(on, off, [], name=netlist.name, validate=False)
    return transform_instance(
        instance, mode="complete", budget=budget, registry=registry
    )
