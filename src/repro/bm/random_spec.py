"""Seeded random generators for hazard-free minimization instances.

Two generators:

* :func:`random_instance` — a fully defined random function plus randomly
  harvested function-hazard-free transitions.  Used by property tests and
  the optimality-gap experiment (small input counts).
* :func:`random_burst_mode_spec` — a random well-formed burst-mode machine,
  synthesized into an instance by :mod:`repro.bm.synthesis`.  Used by the
  Figure 8 benchmark suite (realistic structure, larger input counts).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition, function_hazard_free


def random_instance(
    n_inputs: int,
    n_outputs: int = 1,
    n_transitions: int = 4,
    seed: int = 0,
    density: float = 0.5,
    max_burst: Optional[int] = None,
    max_tries: int = 2000,
) -> HazardFreeInstance:
    """A random instance: fully defined function + hazard-free transitions.

    The function is a uniformly random ON/OFF labelling of all ``2^n``
    minterms (``density`` = ON probability), so it is defined everywhere and
    no definedness filtering is needed.  Transitions are random minterm
    pairs (burst size capped at ``max_burst``) kept only when every output
    is function-hazard-free over them.  Intended for small ``n_inputs``
    (the minterm covers are exponential in ``n``).
    """
    if n_inputs > 12:
        raise ValueError("random_instance enumerates minterms; use the "
                         "burst-mode generator for larger inputs")
    rng = random.Random(seed)
    n_points = 1 << n_inputs
    on_cubes: List[Cube] = []
    off_cubes: List[Cube] = []
    labels = []
    for m in range(n_points):
        bits = 0
        for j in range(n_outputs):
            if rng.random() < density:
                bits |= 1 << j
        labels.append(bits)
    for m in range(n_points):
        onb = labels[m]
        offb = ((1 << n_outputs) - 1) ^ onb
        if onb:
            on_cubes.append(Cube.from_index(n_inputs, m, onb, n_outputs))
        if offb:
            off_cubes.append(Cube.from_index(n_inputs, m, offb, n_outputs))
    on = Cover(n_inputs, on_cubes, n_outputs)
    off = Cover(n_inputs, off_cubes, n_outputs)
    on_by_out = on.split_outputs()
    off_by_out = off.split_outputs()

    transitions: List[Transition] = []
    seen = set()
    tries = 0
    while len(transitions) < n_transitions and tries < max_tries:
        tries += 1
        a = tuple(rng.randint(0, 1) for _ in range(n_inputs))
        burst = max_burst if max_burst is not None else n_inputs
        flip = rng.sample(range(n_inputs), rng.randint(1, max(1, min(burst, n_inputs))))
        b = tuple(v ^ 1 if i in flip else v for i, v in enumerate(a))
        t = Transition(a, b)
        key = (a, b)
        if key in seen:
            continue
        if all(
            function_hazard_free(t, on_by_out[j], off_by_out[j])
            for j in range(n_outputs)
        ):
            seen.add(key)
            transitions.append(t)
    return HazardFreeInstance(
        on, off, transitions, name=f"random-{n_inputs}x{n_outputs}-s{seed}"
    )


def random_burst_mode_spec(
    n_inputs: int,
    n_outputs: int,
    n_states: int,
    seed: int = 0,
    max_burst: int = 3,
    branching: int = 2,
):
    """A random well-formed burst-mode specification.

    States form a strongly connected machine: each state gets up to
    ``branching`` outgoing transitions whose input bursts satisfy the
    maximal set property (no burst a subset of a sibling burst).  Output
    bursts toggle random output subsets.
    """
    from repro.bm.spec import BurstModeSpec

    rng = random.Random(seed)
    spec = BurstModeSpec(
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        name=f"bm-random-{n_inputs}x{n_outputs}-s{seed}",
    )
    for s in range(n_states):
        spec.add_state(f"s{s}")
    for s in range(n_states):
        n_out_edges = rng.randint(1, branching)
        bursts: List[frozenset] = []
        for _ in range(n_out_edges):
            for _attempt in range(20):
                size = rng.randint(1, min(max_burst, n_inputs))
                burst = frozenset(rng.sample(range(n_inputs), size))
                # maximal set property: no burst may contain another
                if all(
                    not (burst <= other or other <= burst) for other in bursts
                ):
                    bursts.append(burst)
                    break
        for burst in bursts:
            target = rng.randrange(n_states)
            out_burst = frozenset(
                j for j in range(n_outputs) if rng.random() < 0.4
            )
            spec.add_transition(
                f"s{s}", f"s{target}", input_burst=burst, output_burst=out_burst
            )
    return spec


def random_burst_mode_instance(
    n_inputs: int,
    n_outputs: int,
    n_states: int,
    seed: int = 0,
    max_burst: int = 3,
    branching: int = 2,
    max_seed_tries: int = 30,
    require_solvable: bool = True,
) -> Optional[HazardFreeInstance]:
    """A random burst-mode *instance*: spec → synthesis → solvability check.

    One-stop generator for corpus builds (:mod:`repro.corpus.generator`):
    draws :func:`random_burst_mode_spec` machines at ``seed``, ``seed+1``,
    … until synthesis succeeds and (with ``require_solvable``) Theorem 4.1
    admits a hazard-free cover, or ``max_seed_tries`` seeds are exhausted
    (then ``None``).  Deterministic for a given argument tuple.  Note the
    synthesized instance is wider than the spec: one-hot state bits are
    appended to both inputs and outputs (see :func:`repro.bm.synthesis.
    synthesize`).
    """
    from repro.bm.spec import SpecError
    from repro.bm.synthesis import synthesize
    from repro.hazards.existence import hazard_free_solution_exists

    for s in range(seed, seed + max_seed_tries):
        try:
            spec = random_burst_mode_spec(
                n_inputs,
                n_outputs,
                n_states,
                seed=s,
                max_burst=max_burst,
                branching=branching,
            )
            result = synthesize(spec)
        except SpecError:
            continue
        instance = result.instance
        if require_solvable and not hazard_free_solution_exists(instance):
            continue
        return instance
    return None
