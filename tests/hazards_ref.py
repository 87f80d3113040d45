"""Scalar reference for the transition-table path of ``repro.hazards``.

The instance preamble — ``validate()``, transition kinds and the required
and privileged cubes of paper §3.1 — runs on
:class:`repro.hazards.transitions.TransitionEntry` rows: bitmask
changed-variable sets computed once per transition for every output.  This
module keeps the original per-(transition, output) loops over
``Cover``/``Cube`` objects, one literal at a time, as the oracle the
differential in ``tests/test_hazards_fused.py`` compares against.  Nothing
in ``src/`` imports it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.cubes.cover import Cover
from repro.cubes.cube import LITERAL_DC, Cube
from repro.espresso.tautology import tautology
from repro.hazards.instance import (
    HazardFreeInstance,
    InstanceError,
    PrivilegedCube,
    RequiredCube,
)
from repro.hazards.transitions import Transition, TransitionKind, classify_transition


def contains_minterm(cube: Cube, values: Sequence[int]) -> bool:
    """Literal-at-a-time minterm containment."""
    for i, v in enumerate(values):
        if not (cube.literal(i) >> (1 if v else 0)) & 1:
            return False
    return True


def evaluate(cover: Cover, values: Sequence[int]) -> bool:
    return any(c.has_output(0) and contains_minterm(c, values) for c in cover)


# ----------------------------------------------------------------------
# Function hazards and required cubes of one transition
# ----------------------------------------------------------------------


def _blocker_sets(start, end, cover: Cover, t_cube: Cube) -> list:
    """``(D, E)`` changed-variable sets of every cover cube meeting ``[A, B]``."""
    changing = [i for i, (a, b) in enumerate(zip(start, end)) if a != b]
    result = []
    for c in cover:
        if c.is_empty or not c.intersects_input(t_cube):
            continue
        d = frozenset(
            i for i in changing if not (c.literal(i) >> (1 if start[i] else 0)) & 1
        )
        e = frozenset(i for i in changing if (c.literal(i) >> (1 if end[i] else 0)) & 1)
        result.append((d, e))
    return result


def function_hazard_free(
    transition: Transition,
    on: Cover,
    off: Cover,
    kind: Optional[TransitionKind] = None,
) -> bool:
    t_cube = transition.cube
    if kind is None:
        kind = classify_transition(
            transition, evaluate(on, transition.start), evaluate(on, transition.end)
        )
    if kind is TransitionKind.STATIC_ONE:
        return not any(o.intersects_input(t_cube) for o in off if not o.is_empty)
    if kind is TransitionKind.STATIC_ZERO:
        return not any(c.intersects_input(t_cube) for c in on if not c.is_empty)
    if kind is TransitionKind.RISING:
        return function_hazard_free(
            transition.reversed(), on, off, TransitionKind.FALLING
        )
    off_sets = _blocker_sets(transition.start, transition.end, off, t_cube)
    on_sets = _blocker_sets(transition.start, transition.end, on, t_cube)
    return not any(d_o <= e_n for d_o, _ in off_sets for _, e_n in on_sets)


def minimal_hitting_sets(sets: Sequence[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Berge's construction on frozensets."""
    for d in sets:
        if not d:
            raise ValueError("cannot hit an empty set")
    current: List[FrozenSet[int]] = [frozenset()]
    for d in _minimal_sets(sets):
        extended: Set[FrozenSet[int]] = set()
        for h in current:
            if h & d:
                extended.add(h)
            else:
                for x in d:
                    extended.add(h | {x})
        current = _minimal_sets(list(extended))
    return current


def _minimal_sets(sets: Iterable[FrozenSet[int]]) -> List[FrozenSet[int]]:
    kept: List[FrozenSet[int]] = []
    for s in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def maximal_on_subcubes(transition: Transition, off: Cover) -> List[Cube]:
    start, end = transition.start, transition.end
    changing = [i for i, (a, b) in enumerate(zip(start, end)) if a != b]
    t_cube = transition.cube
    blockers: List[FrozenSet[int]] = []
    for o in off:
        if o.is_empty or not o.intersects_input(t_cube):
            continue
        d = frozenset(
            i for i in changing if not (o.literal(i) >> (1 if start[i] else 0)) & 1
        )
        if not d:
            raise ValueError(
                "OFF cube contains the start point of a 1->0 transition; "
                "the instance is ill-formed (f(A) must be 1)"
            )
        blockers.append(d)
    if not blockers:
        raise ValueError(
            "no OFF cube meets the transition cube of a 1->0 transition; "
            "the end point must be OFF"
        )
    cubes: List[Cube] = []
    for h in minimal_hitting_sets(blockers):
        cube = Cube.minterm(start)
        for i in set(changing) - h:
            cube = cube.with_literal(i, LITERAL_DC)
        cubes.append(cube)
    return sorted(cubes)


# ----------------------------------------------------------------------
# The instance preamble, one (transition, output) pair at a time
# ----------------------------------------------------------------------


def value(instance: HazardFreeInstance, vec: Sequence[int], j: int) -> Optional[bool]:
    if evaluate(instance.on_for_output(j), vec):
        return True
    if evaluate(instance.off_for_output(j), vec):
        return False
    return None


def kind(instance: HazardFreeInstance, transition: Transition, j: int) -> TransitionKind:
    sv = value(instance, transition.start, j)
    ev = value(instance, transition.end, j)
    if sv is None or ev is None:
        raise InstanceError(f"transition {transition} endpoint undefined for output {j}")
    return classify_transition(transition, sv, ev)


def validate(instance: HazardFreeInstance) -> None:
    n = instance.n_inputs
    for j in range(instance.n_outputs):
        for c in instance.on_for_output(j):
            for o in instance.off_for_output(j):
                if c.intersects_input(o):
                    raise InstanceError(
                        f"ON and OFF sets of output {j} intersect: "
                        f"{c.input_string()} ∩ {o.input_string()}"
                    )
    for t in instance.transitions:
        if len(t.start) != n:
            raise InstanceError(f"transition {t} has wrong width")
        t_cube = Cube(n, t.cube.inbits, 1, 1)
        for j in range(instance.n_outputs):
            on_j, off_j = instance.on_for_output(j), instance.off_for_output(j)
            union = Cover(n, (), 1)
            union.cubes = list(on_j.cubes) + list(off_j.cubes)
            if not tautology(union.cofactor(t_cube)):
                raise InstanceError(f"function not fully defined on {t} for output {j}")
            if not function_hazard_free(t, on_j, off_j):
                raise InstanceError(f"transition {t} has a function hazard on output {j}")


def required_cubes(instance: HazardFreeInstance) -> List[RequiredCube]:
    required: List[RequiredCube] = []
    seen = set()
    for t in instance.transitions:
        for j in range(instance.n_outputs):
            k = kind(instance, t, j)
            if k is TransitionKind.STATIC_ONE:
                cubes = [t.cube]
            elif k is TransitionKind.FALLING:
                cubes = maximal_on_subcubes(t, instance.off_for_output(j))
            elif k is TransitionKind.RISING:
                cubes = maximal_on_subcubes(t.reversed(), instance.off_for_output(j))
            else:
                continue
            for c in cubes:
                key = (c.inbits, j)
                if key not in seen:
                    seen.add(key)
                    required.append(RequiredCube(c, j, t))
    return required


def privileged_cubes(instance: HazardFreeInstance) -> List[PrivilegedCube]:
    privileged: List[PrivilegedCube] = []
    seen = set()
    for t in instance.transitions:
        for j in range(instance.n_outputs):
            k = kind(instance, t, j)
            if k is TransitionKind.FALLING:
                norm = t
            elif k is TransitionKind.RISING:
                norm = t.reversed()
            else:
                continue
            key = (norm.cube.inbits, norm.start_cube().inbits, j)
            if key not in seen:
                seen.add(key)
                privileged.append(PrivilegedCube(norm.cube, norm.start_cube(), j, norm))
    return privileged
