"""Canonical instance keys: content addressing modulo symmetry.

Two requests that differ only by a relabeling of input variables — an
*input permutation* and/or a *polarity flip* (the two bijective rewrites of
:mod:`repro.proptest.metamorphic`) — describe the same minimization
problem: solvability, the required/privileged cube structure, and minimized
cover cardinality are all invariant, and a hazard-free cover of one maps to
a hazard-free cover of the other through the same relabeling.  The serve
cache therefore keys results by a **canonical form**: the lexicographically
smallest serialization of the instance over the symmetry group
``S_n x Z_2^n`` (all input permutations crossed with per-variable
complementation).

Computing that minimum naively costs ``n! * 2^n`` serializations, so
:func:`canonicalize` prunes with per-variable *column signatures* — for
variable ``i`` under polarity ``p``, the multiset of ``i``'s literals over
the ON rows, OFF rows, and transition endpoints.  A column's content does
not depend on how *other* variables are labeled, so the signature is
group-invariant: it fixes each variable's polarity (smaller signature wins)
and a variable ordering, and only genuine ties — variables or polarities
with *identical* signatures — are enumerated.  Random instances have
essentially no ties; the pathological fully-symmetric ones are capped by
``max_candidates``, and large ones by :data:`MAX_ROW_SERIALIZATIONS`
(candidates times rows, since every candidate serializes every row).
Beyond either cap the instance falls back to an exact-match key (its own
sorted serialization, marked distinctly).  The fallback is
*sound* — equivalent instances may then miss the cache, but a cache hit
never returns a cover for a different function, and whether an instance
overflows is itself group-invariant.

The properties the cache relies on are pinned by
``tests/test_serve_canon.py``: every permutation/flip rewrite of an
instance hashes to the same key, distinct instances do not collide, and
:meth:`CanonicalForm.cover_from_canonical` maps cached covers back into
the requester's variable labeling hazard-free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cubes.cover import Cover
from repro.cubes.cube import LITERAL_ONE, LITERAL_ZERO, Cube
from repro.hazards.instance import HazardFreeInstance
from repro.proptest.metamorphic import (
    flip_cover,
    flip_instance,
    permute_cover,
    permute_instance,
)

#: candidate-serialization budget before falling back to exact-match keys;
#: covers full symmetry up to 6 variables (6! * 2^6 = 46080 > cap only for
#: totally indistinguishable columns, which serialize identically anyway)
DEFAULT_MAX_CANDIDATES = 20_000

#: work budget: each candidate serializes every ON row, OFF row and
#: transition, so the search also falls back once candidates x rows
#: exceeds this many row serializations (the largest benchmark that
#: canonicalizes, sd-control, needs 120 x 768 = 92,160)
MAX_ROW_SERIALIZATIONS = 100_000

_LIT_CHAR = {0: "~", 1: "0", 2: "1", 3: "-"}
_FLIP_LIT = {LITERAL_ZERO: LITERAL_ONE, LITERAL_ONE: LITERAL_ZERO}


def _flip_lit(lit: int, p: int) -> int:
    return _FLIP_LIT.get(lit, lit) if p else lit


@dataclass(frozen=True)
class CanonicalForm:
    """One instance's canonical key plus the transform that produced it.

    ``perm``/``flip_mask`` map the *original* instance onto the canonical
    form: flip the variables in ``flip_mask`` first, then relabel so that
    canonical variable ``i`` carries original variable ``perm[i]``.  With
    ``overflow`` the symmetry search was capped and the transform is the
    identity — the key then matches byte-identical instances only.
    """

    key: str
    text: str
    perm: Tuple[int, ...]
    flip_mask: int
    overflow: bool
    candidates: int

    def cover_to_canonical(self, cover: Cover) -> Cover:
        """Map a cover of the original instance into canonical labeling."""
        return permute_cover(flip_cover(cover, self.flip_mask), self.perm)

    def cover_from_canonical(self, cover: Cover) -> Cover:
        """Map a canonically-labeled cover back onto the original instance.

        This is how a cache hit computed for an *equivalent* instance is
        served: the cached cover lives in canonical labeling; pushing it
        through the inverse transform yields a hazard-free cover of the
        requester's instance (metamorphic invariance, PR 4).
        """
        inverse = [0] * len(self.perm)
        for position, var in enumerate(self.perm):
            inverse[var] = position
        return flip_cover(permute_cover(cover, inverse), self.flip_mask)

    def inputs_to_canonical(self, inputs: Sequence[str]) -> List[str]:
        """Map input parts (``"10-"`` strings) into canonical labeling."""
        return _input_strings(self.cover_to_canonical(self._cover(inputs)))

    def inputs_from_canonical(self, inputs: Sequence[str]) -> List[str]:
        """Map canonically-labeled input parts back onto the original."""
        return _input_strings(self.cover_from_canonical(self._cover(inputs)))

    def _cover(self, inputs: Sequence[str]) -> Cover:
        return Cover(len(self.perm), [Cube.from_string(s) for s in inputs])

    def canonical_instance(self, instance: HazardFreeInstance) -> HazardFreeInstance:
        """Materialize the canonical representative (tests / diagnostics)."""
        return permute_instance(
            flip_instance(instance, self.flip_mask), self.perm
        )


def _input_strings(cover: Cover) -> List[str]:
    return [c.input_string() for c in cover]


def _column_data(instance: HazardFreeInstance):
    """Per-cube literal tuples and per-transition endpoint pairs."""
    on_rows = [(c.literals(), c.output_string()) for c in instance.on]
    off_rows = [(c.literals(), c.output_string()) for c in instance.off]
    trans_rows = [tuple(zip(t.start, t.end)) for t in instance.transitions]
    return on_rows, off_rows, trans_rows


def _column_signature(on_rows, off_rows, trans_rows, i: int, p: int):
    """Group-invariant signature of variable ``i`` under polarity ``p``."""
    return (
        tuple(sorted((_flip_lit(lits[i], p), out) for lits, out in on_rows)),
        tuple(sorted((_flip_lit(lits[i], p), out) for lits, out in off_rows)),
        tuple(sorted((s ^ p, e ^ p) for row in trans_rows for s, e in [row[i]])),
    )


def _serialize(
    instance: HazardFreeInstance,
    on_rows,
    off_rows,
    trans_rows,
    perm: Sequence[int],
    flips: Sequence[int],
) -> str:
    """Row-order-independent serialization under one transform."""

    def cube_row(lits, out) -> str:
        return (
            "".join(
                _LIT_CHAR[_flip_lit(lits[v], flips[v])] for v in perm
            )
            + "|"
            + out
        )

    def trans_row(row) -> str:
        return "".join(
            f"{row[v][0] ^ flips[v]}{row[v][1] ^ flips[v]}" for v in perm
        )

    parts = [
        f"{instance.n_inputs},{instance.n_outputs}",
        ";".join(sorted(cube_row(lits, out) for lits, out in on_rows)),
        ";".join(sorted(cube_row(lits, out) for lits, out in off_rows)),
        ";".join(sorted(trans_row(row) for row in trans_rows)),
    ]
    return "\n".join(parts)


def canonicalize(
    instance: HazardFreeInstance,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CanonicalForm:
    """Compute the canonical form of an instance (see module docstring)."""
    n = instance.n_inputs
    on_rows, off_rows, trans_rows = _column_data(instance)

    polarity_choices: List[Tuple[int, ...]] = []
    chosen_sigs = []
    for i in range(n):
        s0 = _column_signature(on_rows, off_rows, trans_rows, i, 0)
        s1 = _column_signature(on_rows, off_rows, trans_rows, i, 1)
        if s0 < s1:
            polarity_choices.append((0,))
            chosen_sigs.append(s0)
        elif s1 < s0:
            polarity_choices.append((1,))
            chosen_sigs.append(s1)
        else:
            polarity_choices.append((0, 1))
            chosen_sigs.append(s0)

    # Variables ordered by signature; equal signatures form tie groups
    # whose internal order (and ambiguous polarities) must be searched.
    groups: Dict[object, List[int]] = {}
    for i in range(n):
        groups.setdefault(chosen_sigs[i], []).append(i)
    ordered_groups = [groups[sig] for sig in sorted(groups)]

    count = 1
    for choices in polarity_choices:
        count *= len(choices)
    for group in ordered_groups:
        count *= factorial(len(group))

    rows = len(on_rows) + len(off_rows) + len(trans_rows)
    if count > max_candidates or count * rows > MAX_ROW_SERIALIZATIONS:
        identity = tuple(range(n))
        text = "sym-overflow\n" + _serialize(
            instance, on_rows, off_rows, trans_rows, identity, [0] * n
        )
        return CanonicalForm(
            key=_digest(text),
            text=text,
            perm=identity,
            flip_mask=0,
            overflow=True,
            candidates=count,
        )

    best_text: Optional[str] = None
    best_perm: Optional[Tuple[int, ...]] = None
    best_flips: Optional[Tuple[int, ...]] = None
    for flips in product(*polarity_choices):
        for group_orders in product(
            *(permutations(group) for group in ordered_groups)
        ):
            perm = tuple(v for group in group_orders for v in group)
            text = _serialize(
                instance, on_rows, off_rows, trans_rows, perm, flips
            )
            if best_text is None or text < best_text:
                best_text, best_perm, best_flips = text, perm, flips

    flip_mask = 0
    for i, p in enumerate(best_flips):
        if p:
            flip_mask |= 1 << i
    text = "canon\n" + best_text
    return CanonicalForm(
        key=_digest(text),
        text=text,
        perm=best_perm,
        flip_mask=flip_mask,
        overflow=False,
        candidates=count,
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_instance_key(
    instance: HazardFreeInstance,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> str:
    """The content-addressed key of an instance modulo input permutation
    and polarity flip — equal for every such rewrite of the same instance,
    distinct (cryptographically) for genuinely different instances."""
    return canonicalize(instance, max_candidates=max_candidates).key
