"""The Espresso-II heuristic two-level minimizer (baseline, non-hazard-free).

This is the algorithm Espresso-HF is modelled on (paper §3.1): iterate
EXPAND / REDUCE / IRREDUNDANT until the cover stops shrinking, escape local
minima with LAST_GASP, and pull out essential primes early to shrink the
problem.  Single-output semantics; multi-output functions are minimized per
output by :func:`espresso_multi`.

Like Espresso-HF, the loop runs on the shared pass-pipeline framework
(:mod:`repro.pipeline`): the same :class:`~repro.pipeline.manager.PassManager`
and the same :class:`~repro.pipeline.base.FixedPoint` vocabulary drive both
minimizers, so the nested do/while structure is written once.  The baseline
has no guard runtime — no budget, no checked mode — so the corresponding
hooks are inert here and the driver still returns a plain
:class:`~repro.cubes.cover.Cover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cubes.cube import Cube
from repro.cubes.cover import Cover
from repro.cubes.containment import minimize_scc
from repro.espresso.complement import complement
from repro.espresso.essential import essential_primes
from repro.espresso.expand import expand_cover
from repro.espresso.irredundant import irredundant_cover
from repro.espresso.lastgasp import last_gasp
from repro.espresso.reduce_ import reduce_cover
from repro.espresso.tautology import cover_contains_cube
from repro.pipeline import FixedPoint, PassManager, PipelineState, Step


@dataclass
class EspressoOptions:
    """Tuning knobs for the Espresso loop.

    ``max_outer_iterations`` caps the outer REDUCE/EXPAND/IRREDUNDANT +
    LAST_GASP loop, matching
    :attr:`repro.hf.espresso_hf.EspressoHFOptions.max_outer_iterations`.
    """

    use_essentials: bool = True
    use_last_gasp: bool = True
    max_outer_iterations: int = 20


class EspressoState(PipelineState):
    """Pipeline state of one single-output Espresso-II run.

    ``f`` is the working cover; ``working_dc`` the don't-care cover the
    loop operators see (the original DC-set plus extracted essential
    primes); ``essentials`` the extracted primes folded back in by the
    finalize pass.  ``snapshot_cubes`` stays ``None``: the baseline has no
    guard runtime, so there is nothing to degrade to.
    """

    def __init__(
        self,
        on: Cover,
        dc: Optional[Cover],
        off: Cover,
        options: EspressoOptions,
    ):
        super().__init__()
        self.on = on
        self.dc = dc
        self.off = off
        self.options = options
        self.f = on
        self.working_dc = (
            dc.copy() if dc is not None else Cover(on.n_inputs, (), on.n_outputs)
        )
        self.essentials: List[Cube] = []

    def measure(self) -> int:
        return len(self.f)

    def cover_size(self) -> int:
        return len(self.f)


class SccPass:
    """Single-cube containment minimization (Espresso's cheap cleanup).

    The initial application also decides emptiness: an empty ON-set stops
    the pipeline immediately, like the original driver's early return.
    """

    name = "scc"

    def __init__(self, stop_if_empty: bool = False):
        self.stop_if_empty = stop_if_empty

    def run(self, state: EspressoState):
        state.f = minimize_scc(state.f)
        if self.stop_if_empty and state.f.is_empty:
            state.stop = True
            state.stopped_early = True
        return state


class EspressoExpandPass:
    """EXPAND against the OFF-set."""

    name = "expand"

    def run(self, state: EspressoState):
        state.f = expand_cover(state.f, state.off)
        return state


class EspressoIrredundantPass:
    """IRREDUNDANT within ON ∪ working-DC."""

    name = "irredundant"

    def run(self, state: EspressoState):
        state.f = irredundant_cover(state.f, state.working_dc)
        return state


class EspressoReducePass:
    """REDUCE within ON ∪ working-DC."""

    name = "reduce"

    def run(self, state: EspressoState):
        state.f = reduce_cover(state.f, state.working_dc)
        return state


class EspressoEssentialsPass:
    """Extract essential primes and move them into the don't-care set.

    Essentials are computed against the *original* DC-set; once removed
    from the working cover they join ``working_dc`` so the loop operators
    may exploit (but never drop) them.
    """

    name = "essentials"

    def run(self, state: EspressoState):
        essentials = essential_primes(state.f, state.dc)
        if essentials:
            state.essentials = essentials
            keep = [c for c in state.f.cubes if c not in essentials]
            state.f = Cover(state.f.n_inputs, keep, state.f.n_outputs)
            state.working_dc.extend(essentials)
        return state


class EspressoLastGaspPass:
    """LAST_GASP: escape a local minimum via maximally-reduced cubes."""

    name = "last_gasp"

    def run(self, state: EspressoState):
        state.f = last_gasp(state.f, state.working_dc, state.off)
        return state


class FinalizePass:
    """Fold the essential primes back in and SCC-minimize the result."""

    name = "finalize"

    def run(self, state: EspressoState):
        f = state.f.copy()
        f.extend(state.essentials)
        state.f = minimize_scc(f)
        return state


def build_espresso_pipeline(options: EspressoOptions):
    """The Espresso-II loop as a pipeline spec.

    Same shape as the Espresso-HF spec (:func:`repro.hf.espresso_hf.
    build_hf_pipeline`): initial expand/irredundant, essentials, then the
    nested inner/outer fixed points, finalize.  The baseline neither
    charges a budget nor tracks convergence — it predates the paper's
    guarded-execution concerns and reports no status.
    """
    inner = FixedPoint(
        "loop",
        body=(
            Step(EspressoReducePass()),
            Step(EspressoExpandPass()),
            Step(SccPass()),
            Step(EspressoIrredundantPass()),
        ),
    )
    outer = FixedPoint(
        "outer",
        body=(
            inner,
            Step(
                EspressoLastGaspPass(),
                enabled=lambda s: s.options.use_last_gasp,
            ),
        ),
        max_rounds=options.max_outer_iterations,
    )
    return (
        Step(SccPass(stop_if_empty=True)),
        Step(EspressoExpandPass()),
        Step(SccPass()),
        Step(EspressoIrredundantPass()),
        Step(
            EspressoEssentialsPass(),
            enabled=lambda s: s.options.use_essentials,
        ),
        outer,
        Step(FinalizePass()),
    )


def espresso(
    on: Cover,
    dc: Optional[Cover] = None,
    off: Optional[Cover] = None,
    options: Optional[EspressoOptions] = None,
) -> Cover:
    """Minimize a single-output cover heuristically (Espresso-II).

    ``on`` is the initial ON-set cover; ``dc`` the optional don't-care cover;
    ``off`` the OFF-set (computed by complementation when omitted).  Returns
    a prime, irredundant cover of the ON-set within ON∪DC.
    """
    if on.n_outputs != 1:
        raise ValueError("espresso() is single-output; use espresso_multi()")
    options = options or EspressoOptions()
    if off is None:
        union = on.copy()
        if dc is not None:
            union.extend(dc.cubes)
        off = complement(union)
    state = EspressoState(on, dc, off, options)
    PassManager().run(build_espresso_pipeline(options), state)
    return state.f


def espresso_multi(
    on: Cover,
    dc: Optional[Cover] = None,
    options: Optional[EspressoOptions] = None,
) -> Cover:
    """Minimize a multi-output cover, one output at a time.

    Cubes with identical input parts across outputs are merged afterwards so
    shared AND terms are counted once, approximating true multi-output
    minimization (full multi-valued Espresso is outside this baseline's
    scope; Espresso-HF itself is natively multi-output).
    """
    merged: dict = {}
    for j in range(on.n_outputs):
        on_j = on.restrict_to_output(j)
        dc_j = dc.restrict_to_output(j) if dc is not None else None
        result = espresso(on_j, dc_j, options=options)
        for c in result:
            merged[c.inbits] = merged.get(c.inbits, 0) | (1 << j)
    out = Cover(on.n_inputs, (), on.n_outputs)
    for inbits, outbits in sorted(merged.items()):
        out.append(Cube(on.n_inputs, inbits, outbits, on.n_outputs))
    return out


def is_cover_of(candidate: Cover, on: Cover, dc: Optional[Cover] = None, off: Optional[Cover] = None) -> bool:
    """Check that ``candidate`` covers ``on`` and avoids the OFF-set.

    Used as a verification oracle by tests and the benchmark harness.
    """
    for c in on:
        if not cover_contains_cube(candidate, c):
            return False
    if off is None:
        union = on.copy()
        if dc is not None:
            union.extend(dc.cubes)
        off = complement(union)
    for c in candidate:
        if any(c.intersects_input(o) for o in off):
            return False
    return True
