"""Composable generators for cubes, covers, transitions, and instances.

This module is the generation layer of the property-based correctness
toolkit.  It follows the central idea of Hypothesis's own internals: every
generated object is produced by a *builder* that pulls primitive choices
from a :class:`DrawSource`, and the same builder runs against two sources —

:class:`HypothesisSource`
    adapts a Hypothesis ``draw`` function, so builders become shrinkable
    strategies (:func:`cubes`, :func:`covers`, :func:`transitions`,
    :func:`instances`) whose counterexamples Hypothesis minimizes natively;
:class:`RandomSource`
    adapts a seeded :class:`random.Random`, so the *same* construction code
    powers the deterministic overnight fuzz loop
    (:func:`repro.guard.fuzz.run_fuzz` via :func:`seeded_instance`).

Generation is **solvability-aware**: by Theorem 4.1 a hazard-free cover
exists iff every required cube has a defined dhf-supercube, and each
undefined supercube is blamed on the transition it was derived from.
:func:`repair_to_solvable` drops exactly the blamed transitions and
re-checks, so random instances are biased toward the solvable region where
the minimizer actually runs — without the rejection-heavy filtering that
``HealthCheck.filter_too_much`` exists to flag.

Functions are generated *compactly*: the ON-set is a small drawn cube list
and the OFF-set is its per-output complement, so the function is fully
defined everywhere (no definedness filtering needed) and a shrunk
counterexample serializes to a handful of PLA rows rather than a minterm
dump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.espresso import complement
from repro.hazards.existence import existence_report, hazard_free_solution_exists
from repro.hazards.instance import HazardFreeInstance
from repro.hazards.transitions import Transition, function_hazard_free

try:  # Hypothesis is a test-time dependency; the seeded path works without it
    from hypothesis import assume
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# Draw sources
# ----------------------------------------------------------------------


class DrawSource:
    """Primitive-choice interface shared by all builders.

    The two implementations below answer the same four questions —
    ``integer``, ``boolean``, ``choice``, ``subset`` — from a Hypothesis
    draw or a seeded PRNG, which is what lets one builder body serve both
    property tests (with shrinking) and the seeded fuzz loop (with
    deterministic replay).
    """

    def integer(self, lo: int, hi: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def boolean(self) -> bool:  # pragma: no cover
        raise NotImplementedError

    def choice(self, seq: Sequence):  # pragma: no cover
        raise NotImplementedError

    def subset(self, seq: Sequence, min_size: int, max_size: int) -> List:
        """An ordered subset of ``seq`` with size in [min_size, max_size]."""
        raise NotImplementedError  # pragma: no cover


class RandomSource(DrawSource):
    """Draws answered by a seeded :class:`random.Random` (fuzz path)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def integer(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def boolean(self) -> bool:
        return self.rng.random() < 0.5

    def choice(self, seq: Sequence):
        return seq[self.rng.randrange(len(seq))]

    def subset(self, seq: Sequence, min_size: int, max_size: int) -> List:
        k = self.rng.randint(min_size, min(max_size, len(seq)))
        picked = self.rng.sample(list(seq), k)
        return sorted(picked, key=list(seq).index)


class HypothesisSource(DrawSource):
    """Draws answered by a Hypothesis ``draw`` function (property path).

    Primitives shrink the way Hypothesis primitives do: integers toward
    ``lo``, subsets toward the smallest allowed prefix — so a shrunk
    instance has few inputs, few cubes, and few, short transitions.
    """

    def __init__(self, draw):
        self.draw = draw

    def integer(self, lo: int, hi: int) -> int:
        return self.draw(st.integers(lo, hi))

    def boolean(self) -> bool:
        return self.draw(st.booleans())

    def choice(self, seq: Sequence):
        return self.draw(st.sampled_from(list(seq)))

    def subset(self, seq: Sequence, min_size: int, max_size: int) -> List:
        items = list(seq)
        picked = self.draw(
            st.lists(
                st.sampled_from(items),
                min_size=min_size,
                max_size=min(max_size, len(items)),
                unique=True,
            )
        )
        return sorted(picked, key=items.index)


# ----------------------------------------------------------------------
# Builders (source-agnostic construction)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceConfig:
    """Size and bias knobs for instance generation.

    ``solvable_bias`` turns on the Theorem 4.1 transition-dropping repair;
    it biases rather than guarantees — callers that need a strict guarantee
    still check :func:`repro.hazards.hazard_free_solution_exists`.
    """

    min_inputs: int = 2
    max_inputs: int = 4
    min_outputs: int = 1
    max_outputs: int = 2
    min_on_cubes: int = 1
    max_on_cubes: int = 6
    min_transitions: int = 1
    max_transitions: int = 4
    max_burst: Optional[int] = None
    solvable_bias: bool = True


DEFAULT_CONFIG = InstanceConfig()

#: the fuzz loop's scale: slightly larger than property-test defaults,
#: matching the pre-toolkit ``random_instance(3..5 inputs, 1..3 outputs)``
FUZZ_CONFIG = InstanceConfig(
    min_inputs=3,
    max_inputs=5,
    min_outputs=1,
    max_outputs=3,
    max_on_cubes=8,
    min_transitions=1,
    max_transitions=4,
)


def build_cube(
    src: DrawSource, n_inputs: int, n_outputs: int = 1, multi_output: bool = True
) -> Cube:
    """Draw one non-empty cube; output parts are drawn when multi-output."""
    lits = [src.integer(1, 3) for _ in range(n_inputs)]
    if multi_output and n_outputs > 1:
        outbits = src.integer(1, (1 << n_outputs) - 1)
    else:
        outbits = (1 << n_outputs) - 1 if multi_output else 1
    return Cube.from_literals(lits, outbits, n_outputs)


def build_cover(
    src: DrawSource,
    n_inputs: int,
    n_outputs: int = 1,
    min_cubes: int = 0,
    max_cubes: int = 5,
) -> Cover:
    """Draw a cover of ``min_cubes..max_cubes`` drawn cubes."""
    n = src.integer(min_cubes, max_cubes)
    return Cover(
        n_inputs, [build_cube(src, n_inputs, n_outputs) for _ in range(n)], n_outputs
    )


def build_transition(
    src: DrawSource, n_inputs: int, max_burst: Optional[int] = None
) -> Transition:
    """Draw a multiple-input-change transition (burst size >= 1)."""
    start = tuple(src.integer(0, 1) for _ in range(n_inputs))
    burst_cap = max_burst if max_burst is not None else n_inputs
    flips = src.subset(range(n_inputs), 1, max(1, min(burst_cap, n_inputs)))
    end = tuple(v ^ 1 if i in flips else v for i, v in enumerate(start))
    return Transition(start, end)


def build_function(
    src: DrawSource,
    n_inputs: int,
    n_outputs: int,
    min_on_cubes: int = 1,
    max_on_cubes: int = 6,
):
    """Draw a fully defined function: ON cubes + per-output complement OFF.

    Returns ``(on, off)`` multi-output covers with no don't-care points, so
    any transition cube is automatically fully defined.
    """
    on = build_cover(src, n_inputs, n_outputs, min_on_cubes, max_on_cubes)
    on = on.drop_empty().deduplicate()
    off_cubes: List[Cube] = []
    for j in range(n_outputs):
        for c in complement(on.restrict_to_output(j)):
            off_cubes.append(Cube(n_inputs, c.inbits, 1 << j, n_outputs))
    return on, Cover(n_inputs, off_cubes, n_outputs)


def repair_to_solvable(
    instance: HazardFreeInstance, max_rounds: int = 3
) -> HazardFreeInstance:
    """Theorem 4.1-aware bias: drop the transitions blamed for insolvability.

    Every required cube whose dhf-supercube is undefined records the
    transition it was derived from; removing those transitions removes the
    offending required cubes (dropping specified transitions always yields
    a valid, weaker instance).  Repeats until solvable, out of transitions,
    or ``max_rounds`` exhausted; returns the last instance either way.
    """
    for _ in range(max_rounds):
        report = existence_report(instance)
        if report.exists:
            return instance
        blamed = {q.transition for q in report.failures if q.transition is not None}
        keep = [t for t in instance.transitions if t not in blamed]
        if not keep or len(keep) == len(instance.transitions):
            return instance
        instance = HazardFreeInstance(
            instance.on,
            instance.off,
            keep,
            name=instance.name,
            validate=False,
        )
    return instance


def build_instance(
    src: DrawSource, config: InstanceConfig = DEFAULT_CONFIG, name: str = "proptest"
) -> Optional[HazardFreeInstance]:
    """Draw one :class:`HazardFreeInstance`, or ``None`` when the drawn
    function admits no function-hazard-free transitions.

    Candidate transitions are drawn and kept only when every output is
    function-hazard-free over them (the model's precondition); with
    ``config.solvable_bias`` the result is then repaired toward Theorem 4.1
    solvability by dropping blamed transitions.
    """
    n_inputs = src.integer(config.min_inputs, config.max_inputs)
    n_outputs = src.integer(config.min_outputs, config.max_outputs)
    on, off = build_function(
        src, n_inputs, n_outputs, config.min_on_cubes, config.max_on_cubes
    )
    on_by = on.split_outputs()
    off_by = off.split_outputs()
    target = src.integer(config.min_transitions, config.max_transitions)
    transitions: List[Transition] = []
    seen = set()
    for _ in range(4 * target):
        if len(transitions) >= target:
            break
        t = build_transition(src, n_inputs, config.max_burst)
        key = (t.start, t.end)
        if key in seen:
            continue
        seen.add(key)
        if all(
            function_hazard_free(t, on_by[j], off_by[j]) for j in range(n_outputs)
        ):
            transitions.append(t)
    if len(transitions) < config.min_transitions:
        return None
    instance = HazardFreeInstance(
        on, off, transitions, name=f"{name}-{n_inputs}x{n_outputs}"
    )
    if config.solvable_bias:
        instance = repair_to_solvable(instance)
        if not instance.transitions:
            return None
    return instance


def build_unsolvable_instance(
    src: DrawSource,
    config: InstanceConfig = DEFAULT_CONFIG,
    name: str = "unsolvable",
    max_tries: int = 12,
) -> Optional[HazardFreeInstance]:
    """Draw an instance with **no** hazard-free cover, or ``None``.

    The complement of :func:`build_instance`'s solvable bias: the Theorem
    4.1 repair is turned off and draws are rejected until one *fails* the
    existence check.  This is the corpus generator's source of deliberate
    hard-negative cases (the regime where a heuristic and an exact
    minimizer can disagree about solvability itself), so the differential
    driver can assert that both sides answer ``no_solution``.
    """
    cfg = replace(config, solvable_bias=False)
    for _ in range(max_tries):
        inst = build_instance(src, cfg, name=name)
        if inst is not None and not hazard_free_solution_exists(inst):
            return inst
    return None


def seeded_instance(
    seed: int, config: InstanceConfig = FUZZ_CONFIG, name: str = "fuzz"
) -> Optional[HazardFreeInstance]:
    """Deterministic instance for a seed (the fuzz loop's generator).

    Same builder as the Hypothesis strategies, driven by
    ``random.Random(seed)`` — one seed, one instance, forever.
    """
    src = RandomSource(random.Random(seed))
    return build_instance(src, config, name=f"{name}-s{seed}")


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    def literals() -> "st.SearchStrategy[int]":
        """A non-empty input literal code (ZERO/ONE/DC)."""
        return st.integers(1, 3)

    def cubes(n_inputs: int, n_outputs: int = 1) -> "st.SearchStrategy[Cube]":
        """Non-empty cubes; with ``n_outputs > 1`` output parts are drawn too."""
        out_strategy = (
            st.integers(1, (1 << n_outputs) - 1) if n_outputs > 1 else st.just(1)
        )
        return st.builds(
            lambda lits, outbits: Cube.from_literals(lits, outbits, n_outputs),
            st.lists(literals(), min_size=n_inputs, max_size=n_inputs),
            out_strategy,
        )

    def covers(
        n_inputs: int,
        n_outputs: int = 1,
        min_cubes: int = 0,
        max_cubes: int = 5,
    ) -> "st.SearchStrategy[Cover]":
        """Multi-output covers of drawn cubes (shrinks toward fewer cubes)."""
        return st.builds(
            lambda cs: Cover(n_inputs, cs, n_outputs),
            st.lists(
                cubes(n_inputs, n_outputs), min_size=min_cubes, max_size=max_cubes
            ),
        )

    @st.composite
    def transitions(draw, n_inputs: int, max_burst: Optional[int] = None):
        """Multiple-input-change transitions (burst shrinks toward 1)."""
        return build_transition(HypothesisSource(draw), n_inputs, max_burst)

    @st.composite
    def instances(
        draw,
        config: InstanceConfig = DEFAULT_CONFIG,
        solvable: bool = False,
    ):
        """Whole :class:`HazardFreeInstance` values via the shared builder.

        With ``solvable=True`` the strategy additionally *guarantees*
        Theorem 4.1 solvability (the repair makes the residual ``assume``
        filter rare).
        """
        inst = build_instance(HypothesisSource(draw), config)
        assume(inst is not None)
        if solvable:
            from repro.hazards import hazard_free_solution_exists

            assume(hazard_free_solution_exists(inst))
        return inst

    def solvable_instances(
        config: InstanceConfig = DEFAULT_CONFIG,
    ) -> "st.SearchStrategy[HazardFreeInstance]":
        """Instances guaranteed to admit a hazard-free cover."""
        return instances(config=config, solvable=True)

    @st.composite
    def unsolvable_instances(draw, config: InstanceConfig = DEFAULT_CONFIG):
        """Instances guaranteed to admit **no** hazard-free cover."""
        inst = build_unsolvable_instance(HypothesisSource(draw), config)
        assume(inst is not None)
        return inst

else:  # pragma: no cover - exercised only without hypothesis

    def _needs_hypothesis(*_args, **_kwargs):
        raise RuntimeError(
            "repro.proptest strategies require the 'hypothesis' package; "
            "only the seeded builders (seeded_instance, build_instance) "
            "work without it"
        )

    literals = cubes = covers = transitions = _needs_hypothesis
    instances = solvable_instances = unsolvable_instances = _needs_hypothesis
